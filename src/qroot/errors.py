"""Exception hierarchy.

Every error carries a short machine-readable ``kind`` (used by the CLI to
emit ``{"error": kind}``) plus a human message.
"""


class QRootError(Exception):
    kind = "Error"

    def __init__(self, message=""):
        super().__init__(message or self.kind)


class ParseError(QRootError):
    kind = "ParseError"


class DimensionMismatch(QRootError):
    kind = "DimensionMismatch"


class OddDimension(QRootError):
    kind = "OddDimension"


class NotInOmega(QRootError):
    kind = "NotInOmega"


class NotHermitian(QRootError):
    kind = "NotHermitian"


class NearSingularH(QRootError):
    kind = "NearSingularH"


class NotSelfadjoint(QRootError):
    kind = "NotSelfadjoint"


class SpecInvalid(QRootError):
    kind = "SpecInvalid"


class RankAmbiguous(QRootError):
    kind = "RankAmbiguous"


class RootInaccurate(QRootError):
    kind = "RootInaccurate"


class ClusterOverlap(QRootError):
    kind = "ClusterOverlap"


class ClassMismatch(QRootError):
    kind = "ClassMismatch"


class ProfileInvalid(QRootError):
    kind = "ProfileInvalid"


class OracleDisagreement(QRootError):
    kind = "OracleDisagreement"
