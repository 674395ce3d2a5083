"""Exact-arithmetic toolkit for the graded characters of symplectic-fermion
invariant vertex algebras whose degree-2 part is a rank-d type-B Jordan
algebra, together with the mode-algebra, Griess-product, and Fock-space
machinery used to cross-validate them."""

from .branching import branching_product, branching_weylsum, denominator_identity_check
from .characters import (
    QLaurent,
    decompose_by_level,
    fermion_character,
    invariant_series_oracle,
    theorem2_character,
)
from .fock import (
    generation_check,
    graded_basis,
    invariant_subspace,
    mode_apply,
    virasoro_check,
)
from .modealg import (
    GenCombo,
    GenKey,
    PBWState,
    bracket,
    genkey,
    griess_product,
    jordan_product,
    mode_operator,
    simplicity_scan,
)
from .qseries import TruncSeries, euler_product, partition_power
from .rootsys import (
    CapExceededError,
    RootData,
    Weight,
    build_root_data,
    conformal_h,
    dominant_weights_up_to,
    inner,
    weyl_elements,
)
from .weylchar import (
    LaurentPoly,
    alternating_sum,
    decompose,
    irr_character,
    tensor_decompose,
    tensor_multiplicity,
    weyl_dim,
)

__version__ = "0.1.0"

__all__ = [
    "branching_product",
    "branching_weylsum",
    "denominator_identity_check",
    "QLaurent",
    "decompose_by_level",
    "fermion_character",
    "invariant_series_oracle",
    "theorem2_character",
    "generation_check",
    "graded_basis",
    "invariant_subspace",
    "mode_apply",
    "virasoro_check",
    "GenCombo",
    "GenKey",
    "PBWState",
    "bracket",
    "genkey",
    "griess_product",
    "jordan_product",
    "mode_operator",
    "simplicity_scan",
    "TruncSeries",
    "euler_product",
    "partition_power",
    "CapExceededError",
    "RootData",
    "Weight",
    "build_root_data",
    "conformal_h",
    "dominant_weights_up_to",
    "inner",
    "weyl_elements",
    "LaurentPoly",
    "alternating_sum",
    "decompose",
    "irr_character",
    "tensor_decompose",
    "tensor_multiplicity",
    "weyl_dim",
]
