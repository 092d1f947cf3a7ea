"""Brute-force oracles the tests check the library against.

Neither is part of the library: no design path needs them, and both are
exponential or exhaustive by construction.
"""

from itertools import combinations
from math import comb

from compactrepair.errors import BudgetExceededError, EmptyFamilyError


def check_polynomial_validity(ctx, k: int, coeffs) -> bool:
    """True iff the polynomial is a dual-code check: degree <= q^ell - k - 1."""
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    if deg < 0:
        return True  # the zero polynomial is (degenerately) orthogonal
    return deg <= ctx.order - k - 1


def verify_tolerance_exhaustive(family, e: int, budget: int = 10**7) -> bool:
    """True iff every e-subset of the universe leaves some set untouched.

    family is a CosetFamily (whose universe is used) or a list of sets
    (whose union is).  Raises BudgetExceededError when C(|universe|, e)
    exceeds the budget.
    """
    sets = [frozenset(s) for s in getattr(family, "sets", family)]
    if not sets:
        raise EmptyFamilyError("cannot verify an empty family")
    universe = getattr(family, "universe", None)
    universe = sorted(frozenset().union(*sets) if universe is None else universe)
    if e < 0 or e > len(universe):
        raise ValueError(f"need 0 <= e <= {len(universe)}, got {e}")
    patterns = comb(len(universe), e)
    if patterns > budget:
        raise BudgetExceededError(
            f"{patterns} failure patterns exceed the budget of {budget}"
        )
    for pattern in combinations(universe, e):
        failed = frozenset(pattern)
        if not any(s.isdisjoint(failed) for s in sets):
            return False
    return True
