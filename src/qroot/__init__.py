"""H-selfadjoint m-th roots of H-selfadjoint quaternion matrices.

The pipeline embeds a quaternion pair (B, H) into the complex subalgebra
Omega_2n, canonicalizes it, decides existence of an H-selfadjoint m-th root
from the canonical form, constructs one per eigenvalue class when it
exists, and verifies the result independently.
"""

from . import errors
from .canonical import (CanonicalBlock, CanonicalSpec, canonicalize_pair,
                        jordan_block, materialize_pair, sip_matrix)
from .generate import random_instance
from .omega import OmegaMatrix, omega_embed, omega_extract, selfadjoint_residual
from .quaternion import QuatMatrix
from .roots import (Certificate, RootDecision, RootResult, assemble_root, mth_root,
                    root_block_negative_even, root_block_nilpotent,
                    root_block_nonreal, root_block_real, root_exists)
from .verify import VerificationReport, verify_root

__all__ = [
    "errors",
    "QuatMatrix", "OmegaMatrix",
    "omega_embed", "omega_extract", "selfadjoint_residual",
    "CanonicalBlock", "CanonicalSpec",
    "jordan_block", "sip_matrix", "materialize_pair", "canonicalize_pair",
    "Certificate", "RootDecision", "RootResult", "root_exists",
    "root_block_real", "root_block_nonreal",
    "root_block_negative_even", "root_block_nilpotent", "assemble_root",
    "mth_root",
    "VerificationReport", "verify_root", "random_instance",
]

__version__ = "0.1.0"
