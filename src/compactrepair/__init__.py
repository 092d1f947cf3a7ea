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
from .gf import FieldCtx, field_new
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
)
from .repair import (
    HelperPayload,
    SeedScheme,
    dilate_translate,
    helper_payload,
    recover_symbol,
    search_seed_scheme,
)
from .subspaces import (
    Subspace,
    enumerate_subspaces,
    gaussian_coefficient,
    span,
    subspace_polynomial,
)

__all__ = [
    "BoundsReport",
    "CosetFamily",
    "DesignBundle",
    "FieldCtx",
    "HelperPayload",
    "HittingResult",
    "OrbitReport",
    "SeedScheme",
    "SimReport",
    "Subspace",
    "bandwidth_comparison",
    "base_counts",
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
    "orbit_count_formula",
    "orbit_decomposition",
    "recover_symbol",
    "search_seed_scheme",
    "simulate_failures",
    "span",
    "subspace_polynomial",
    "verify_reference_example",
]
