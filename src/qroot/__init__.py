"""H-selfadjoint m-th roots of H-selfadjoint quaternion matrices.

The pipeline embeds a quaternion pair (B, H) into the complex subalgebra
Omega_2n, canonicalizes it, decides existence of an H-selfadjoint m-th root
from the canonical form, constructs one per eigenvalue class when it
exists, and verifies the result independently.
"""

from . import errors
from .canonical import (CanonicalBlock, CanonicalSpec, SegreSequence,
                        canonicalize_pair, inertia, jordan_block,
                        materialize_pair, segre_characteristic, sip_matrix)
from .omega import (OmegaMatrix, omega_embed, omega_extract,
                    omega_membership, selfadjoint_residual)
from .quaternion import Quaternion, QuatMatrix
from .roots import (Certificate, MTuple, RootDecision, RootResult,
                    assemble_root, m_tuple_partition, mth_root,
                    root_block_negative_even, root_block_nilpotent,
                    root_block_nonreal, root_block_real, root_exists,
                    sign_pattern_check)
from .verify import (VerificationReport, power_segre_oracle, random_instance,
                     verify_root)

__all__ = [
    "errors",
    "Quaternion", "QuatMatrix", "OmegaMatrix",
    "omega_embed", "omega_extract", "omega_membership", "selfadjoint_residual",
    "CanonicalBlock", "CanonicalSpec", "SegreSequence",
    "jordan_block", "sip_matrix", "materialize_pair", "segre_characteristic",
    "canonicalize_pair", "inertia",
    "MTuple", "Certificate", "RootDecision", "RootResult",
    "root_exists", "m_tuple_partition", "sign_pattern_check",
    "root_block_real", "root_block_nonreal",
    "root_block_negative_even", "root_block_nilpotent", "assemble_root",
    "mth_root",
    "VerificationReport", "verify_root", "power_segre_oracle", "random_instance",
]

__version__ = "0.1.0"
