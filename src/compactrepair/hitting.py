"""Exact minimum hitting sets over coset families, and the tolerance bounds.

The failure tolerance of a collection of repair groups is |MHS| - 1: an
adversary must hit every group to make the symbol unrepairable.  Finding a
minimum hitting set is NP-hard in general; at desk scale (universe within
the field cap, up to a few thousand sets) every instance here is solved
exactly by one 0/1 integer program (HiGHS via scipy.optimize.milp) over a
sparse set-by-element incidence matrix.  The solver's witness is checked to
hit every set before it is reported with method="exact".

If the solver's node budget runs out, or it returns no verified optimum,
the smaller of its verified incumbent and a greedy max-coverage cover is
returned flagged method="greedy-upper-only".  Witnesses are reproducible
for fixed inputs, but only size and the hitting property are contractual.

For a single subspace seed, |MHS| is sandwiched between
ceil((q^ell - 1)/(q^delta - 1)), by double counting element occurrences,
and (q^(ell-delta+1) - 1)/(q - 1), the minimum number of lines meeting
every delta-dimensional subspace.  Two seed shapes have exact values:
multiplicative subfield cosets (their cosets tile the nonzero elements,
giving the lower bound) and seeds that are subspaces over the subfield of
order q^(ell-delta) (rescaling collapses the sandwich to q^(ell-delta)+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from .errors import EmptyFamilyError, InvariantError
from .subspaces import Subspace, base_of

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class HittingResult:
    witness: tuple[int, ...]
    method: str  # "exact" | "greedy-upper-only"

    @property
    def size(self) -> int:
        return len(self.witness)

    @property
    def tolerance(self) -> int:
        """Failures tolerated by the family: |MHS| - 1."""
        return self.size - 1


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: int
    exact: int | None
    case: str  # "subfield-coset" | "nested-subspace" | "generic"


def _family_sets(family) -> list[frozenset[int]]:
    raw = getattr(family, "sets", family)
    return [frozenset(s) for s in raw]


def _greedy_hitting(sets, elements) -> list[int]:
    emask = {e: 0 for e in elements}
    for i, s in enumerate(sets):
        for e in s:
            emask[e] |= 1 << i
    picked = []
    unhit = (1 << len(sets)) - 1
    while unhit:
        best_e, best_c = None, 0
        for e in elements:
            c = (emask[e] & unhit).bit_count()
            if c > best_c:
                best_e, best_c = e, c
        picked.append(best_e)
        unhit &= ~emask[best_e]
    return picked


def min_hitting_set(family, budget: int = DEFAULT_NODE_BUDGET) -> HittingResult:
    """Exact minimum hitting set of a family of sets."""
    sets = _family_sets(family)
    if not sets:
        raise EmptyFamilyError("cannot hit an empty family")
    if any(not s for s in sets):
        raise ValueError("a family containing the empty set has no hitting set")
    # Duplicates do not change the optimum; drop them, keeping first-seen order.
    sets = list(dict.fromkeys(sets))
    elements = sorted(frozenset().union(*sets))
    index = {e: i for i, e in enumerate(elements)}
    rows = [r for r, s in enumerate(sets) for _ in s]
    cols = [index[e] for s in sets for e in s]
    a = csr_array(
        (np.ones(len(cols)), (rows, cols)), shape=(len(sets), len(elements))
    )
    res = milp(
        c=np.ones(len(elements)),
        constraints=LinearConstraint(a, lb=1.0),
        integrality=np.ones(len(elements)),
        bounds=Bounds(0.0, 1.0),
        options={"node_limit": budget},
    )
    candidate = None
    if res.x is not None:
        candidate = [e for e in elements if res.x[index[e]] > 0.5]
        if any(s.isdisjoint(candidate) for s in sets):
            candidate = None
    if res.status == 0 and candidate is not None:
        return HittingResult(tuple(candidate), "exact")
    # Budget exhausted (or solver gave up): report the best upper bound seen.
    greedy = sorted(_greedy_hitting(sets, elements))
    if candidate is None or len(greedy) <= len(candidate):
        candidate = greedy
    return HittingResult(tuple(candidate), "greedy-upper-only")


def bounds(q: int, ell: int, delta: int) -> BoundsReport:
    """Sandwich bounds on |MHS| of a single-seed coset family."""
    if delta < 1 or delta > ell:
        raise ValueError(f"need 1 <= delta <= ell, got delta={delta}, ell={ell}")
    lower = -(-(q**ell - 1) // (q**delta - 1))
    upper = (q ** (ell - delta + 1) - 1) // (q - 1)
    return BoundsReport(lower, upper, None, "generic")


def bounds_for_seed(S: Subspace) -> BoundsReport:
    """Sandwich bounds, with the exact |MHS| when the seed has a solved shape.

    Multiplicative cosets of the subfield of order q^delta tile the nonzero
    elements, so their value is the lower bound (case "subfield-coset").
    Subspaces over the order-q^(ell-delta) subfield collapse the sandwich to
    q^(ell-delta) + 1 (case "nested-subspace").  Other seeds are "generic"
    with exact=None.
    """
    q = S.q
    ell = S.ell
    delta = S.dim
    base = bounds(q, ell, delta)
    m = base_of(S)
    e = ell - delta
    if m == delta:
        value, tag = (q**ell - 1) // (q**delta - 1), "subfield-coset"
    elif e >= 1 and m % e == 0:
        value, tag = q**e + 1, "nested-subspace"
    else:
        return base
    if not base.lower <= value <= base.upper:
        raise InvariantError(
            f"{tag} value {value} lies outside the sandwich "
            f"[{base.lower}, {base.upper}]"
        )
    return BoundsReport(base.lower, base.upper, value, tag)
