"""Brute-force oracles the tests check the library against.

None is part of the library: no design path needs them, and each is the
exhaustive or dense form of something the library computes from structure.
"""

from itertools import combinations
from math import comb

from compactrepair.errors import BudgetExceededError, EmptyFamilyError
from compactrepair.orbits import CosetFamily


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


def coset_family_scan(seeds, center=None) -> CosetFamily:
    """coset_family by scanning every multiplier z^j, j < q^ell - 1.

    Each distinct group keeps the first (seed index, b) that produced it,
    seeds in order and multipliers in increasing j.
    """
    seeds = list(seeds)
    ctx = seeds[0].ctx
    shift = 0 if center is None else center
    first_seen = {}
    for t, S in enumerate(seeds):
        star = S.star()
        for j in range(ctx.order - 1):
            b = ctx.exp(j)
            grp = frozenset(ctx.add(shift, ctx.mul(b, x)) for x in star)
            first_seen.setdefault(grp, (t, b))
    universe = frozenset(ctx.elements()) - {shift}
    sets = tuple(first_seen)
    return CosetFamily(
        ctx,
        seeds[0].q,
        center,
        sets,
        tuple(first_seen[g][0] for g in sets),
        tuple(first_seen[g][1] for g in sets),
        universe,
    )


def subspace_polynomial_product(S) -> tuple:
    """Dense coefficients (low first) of prod_{a in S} (x - a); degree |S|."""
    ctx = S.ctx
    coeffs = [1]
    for a in sorted(S.members):
        na = ctx.neg(a)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = ctx.add(nxt[i + 1], c)
            nxt[i] = ctx.add(nxt[i], ctx.mul(c, na))
        coeffs = nxt
    return tuple(coeffs)


def linearized_to_dense(ctx, q: int, coeffs) -> tuple:
    """Dense coefficients of sum_j coeffs[j] x^(q^j)."""
    dense = [0] * (q ** (len(coeffs) - 1) + 1)
    for j, a in enumerate(coeffs):
        dense[q**j] = a
    return tuple(dense)


def horner_eval(ctx, coeffs, x: int) -> int:
    """Dense Horner evaluation of a polynomial, coefficients low first."""
    acc = 0
    for c in reversed(coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc
