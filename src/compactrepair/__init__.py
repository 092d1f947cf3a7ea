"""Compact repair groups for full-length Reed-Solomon codes.

Builds coset families of repair groups from subspace seeds, constructs and
dilates trace repair schemes, computes exact failure tolerance as a
minimum-hitting-set size, and counts subspace orbits to assemble
multi-seed designs that attain the tolerance upper bound.
"""

# Set before the submodules load: design stamps it into bundle provenance.
__version__ = "0.1.0"

from .design import (
    DesignBundle,
    SimReport,
    bandwidth_comparison,
    design_multi_seed,
    design_single_seed,
    load_bundle,
    simulate_failures,
    verify_reference_example,
)
from .gf import FElem, FieldCtx, field_new
from .hitting import (
    BoundsReport,
    HittingResult,
    bounds,
    bounds_for_seed,
    min_hitting_set,
)
from .orbits import (
    CosetFamily,
    OrbitReport,
    base_counts,
    coset_family,
    count_with_base,
    mobius,
    orbit_count_formula,
    orbit_decomposition,
    stabilizer_order,
)
from .repair import (
    HelperPayload,
    RepairScheme,
    SeedScheme,
    bandwidth,
    dilate_translate,
    helper_payload,
    naive_seed_scheme,
    recover_symbol,
    search_seed_scheme,
    verify_full_rank,
)
from .subspaces import (
    Subspace,
    base_of,
    enumerate_subspaces,
    gaussian_coefficient,
    span,
    subspace_polynomial,
)

__all__ = [
    "BoundsReport",
    "CosetFamily",
    "DesignBundle",
    "FElem",
    "FieldCtx",
    "HelperPayload",
    "HittingResult",
    "OrbitReport",
    "RepairScheme",
    "SeedScheme",
    "SimReport",
    "Subspace",
    "bandwidth",
    "bandwidth_comparison",
    "base_counts",
    "base_of",
    "bounds",
    "bounds_for_seed",
    "coset_family",
    "count_with_base",
    "design_multi_seed",
    "design_single_seed",
    "dilate_translate",
    "enumerate_subspaces",
    "field_new",
    "gaussian_coefficient",
    "helper_payload",
    "load_bundle",
    "min_hitting_set",
    "mobius",
    "naive_seed_scheme",
    "orbit_count_formula",
    "orbit_decomposition",
    "recover_symbol",
    "search_seed_scheme",
    "simulate_failures",
    "span",
    "stabilizer_order",
    "subspace_polynomial",
    "verify_full_rank",
    "verify_reference_example",
]
