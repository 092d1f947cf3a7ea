"""Exact minimum hitting sets over coset families, and the tolerance bounds.

The failure tolerance of a collection of repair groups is |MHS| - 1: an
adversary must hit every group to make the symbol unrepairable.  Finding a
minimum hitting set is NP-hard in general; at desk scale (universe within
the field cap, up to a few thousand sets) every instance here is solved
exactly by one 0/1 integer program (HiGHS via scipy.optimize.milp) over a
sparse set-by-element incidence matrix, built in numpy: one row per set in
family order (a CosetFamily's groups come from its per-seed log arrays, a
raw list of sets is deduplicated first) and one column per element in
ascending value.  The witness is checked to hit every row before it is
reported with method="exact".

If the solver's node budget runs out, or it returns no verified optimum,
the smaller of its verified incumbent and a greedy max-coverage cover is
returned flagged method="greedy-upper-only".  Witnesses are reproducible
for fixed inputs, but only size and the hitting property are contractual.

|MHS| is invariant under the semilinear group GammaL(1, q^ell): scaling
x -> b*x and the Frobenius map x -> x^p both carry a coset family around 0
onto another one, set for set.  So a CosetFamily with center None (every
family the library builds) is solved once per class.  A scaling adds a
constant to logs, so each kept seed's logs reduce to their least translate
(orbits._least_translate); x -> x^(p^f) multiplies logs by p^f.  The
canonical key is the sorted tuple of these forms at the smallest f < n
that minimises it.  A miss solves the coset family of the key's seeds and
stores its witness logs in a bounded module-level memo, keyed by (p, n,
modulus, generator, q, budget, key) rather than by the FieldCtx object,
which every CLI call and load_bundle builds anew.  The stored witness is
mapped back by log -> p^(n-f) * log and checked to hit every group of the
caller's family (CosetFamily.first_miss; InvariantError otherwise).  Every
caller gets the canonical solve mapped back, hit or miss, so a result
depends on the family alone, never on what the process solved before: the
memo is a pure cache.  Raw lists of sets and centred families are solved
directly.

For a single subspace seed, |MHS| is sandwiched between
ceil((q^ell - 1)/(q^delta - 1)), by double counting element occurrences,
and (q^(ell-delta+1) - 1)/(q - 1), the minimum number of lines meeting
every delta-dimensional subspace.  Two seed shapes have exact values:
multiplicative subfield cosets (their cosets tile the nonzero elements,
giving the lower bound) and seeds that are subspaces over the subfield of
order q^(ell-delta) (rescaling collapses the sandwich to q^(ell-delta)+1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from .errors import EmptyFamilyError, InvariantError
from .orbits import CosetFamily, _least_translate, coset_family
from .subspaces import Subspace, base_of, span

DEFAULT_NODE_BUDGET = 10**7

# Most canonical classes the memo keeps; the oldest entry goes first.
MEMO_LIMIT = 4096
# (p, n, modulus, generator, q, budget, canonical key) -> (witness logs, method)
_MEMO: dict[tuple, tuple[tuple[int, ...], str]] = {}
_MEMO_LOCK = threading.Lock()  # eviction and insertion happen together


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


def _rows(family) -> tuple[np.ndarray, np.ndarray]:
    """(values, indptr): set r of the family is values[indptr[r]:indptr[r + 1]].

    A CosetFamily lists its groups in family order.  Any other iterable of
    sets is deduplicated, keeping first-seen order.
    """
    if isinstance(family, CosetFamily):
        blocks = family.blocks()
        values = np.concatenate([block.ravel() for block in blocks])
        lengths = np.repeat([b.shape[1] for b in blocks], [b.shape[0] for b in blocks])
    else:
        sets = list(dict.fromkeys(frozenset(s) for s in family))
        if not sets:
            raise EmptyFamilyError("cannot hit an empty family")
        if any(not s for s in sets):
            raise ValueError("a family containing the empty set has no hitting set")
        values = np.array([e for s in sets for e in sorted(s)], np.int64)
        lengths = [len(s) for s in sets]
    return values, np.concatenate(([0], np.cumsum(lengths)))


def _greedy_hitting(a: csr_array) -> list[int]:
    """Columns picked by max coverage of unhit rows; ties go to the lowest column."""
    by_col = a.tocsc()
    unhit = np.ones(a.shape[0])
    picked = []
    while unhit.any():
        col = int(np.argmax(a.T @ unhit))
        picked.append(col)
        unhit[by_col.indices[by_col.indptr[col] : by_col.indptr[col + 1]]] = 0.0
    return picked


def min_hitting_set(family, budget: int = DEFAULT_NODE_BUDGET) -> HittingResult:
    """Exact minimum hitting set of a family of sets.

    A CosetFamily around 0 is solved once per class under scaling and
    Frobenius through the memo (see the module docstring); any other
    family is solved directly.
    """
    if isinstance(family, CosetFamily) and family.center is None:
        return _memo_solve(family, budget)
    return _solve(*_rows(family), budget)


def _solve(values: np.ndarray, indptr: np.ndarray, budget: int) -> HittingResult:
    """One HiGHS MILP over the set-by-element incidence matrix.

    Rows are the sets in order and columns the elements in ascending
    value, so equal families give HiGHS equal matrices.
    """
    elements, cols = np.unique(values, return_inverse=True)
    a = csr_array(
        (np.ones(len(cols)), cols, indptr), shape=(len(indptr) - 1, len(elements))
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
        chosen = res.x[cols] > 0.5
        if np.logical_or.reduceat(chosen, indptr[:-1]).all():
            candidate = np.flatnonzero(res.x > 0.5)
    if res.status == 0 and candidate is not None:
        return HittingResult(tuple(elements[candidate].tolist()), "exact")
    # Budget exhausted (or solver gave up): report the best upper bound seen.
    greedy = sorted(_greedy_hitting(a))
    if candidate is None or len(greedy) <= len(candidate):
        candidate = greedy
    return HittingResult(tuple(elements[candidate].tolist()), "greedy-upper-only")


def _canonical_class(family: CosetFamily) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(f, key): the least image of the family's scaling orbits under x -> x^(p^f).

    Each kept seed's logs are mapped by log -> p^f * log and reduced to
    their least translate; the key is the sorted tuple of those forms, at
    the smallest f < n that minimises it.
    """
    ctx = family.ctx
    group = ctx.order - 1
    key, f = min(
        (tuple(sorted(_least_translate([ctx.p**f * v % group for v in logs], group)
                      for logs in family.logs)), f)
        for f in range(ctx.n)
    )
    return f, key


def _memo_solve(family: CosetFamily, budget: int) -> HittingResult:
    """Solve the family's canonical ΓL class once, and map its witness back."""
    ctx = family.ctx
    group = ctx.order - 1
    f, key = _canonical_class(family)
    memo_key = (ctx.p, ctx.n, ctx.modulus, ctx.generator, family.q, budget, key)
    entry = _MEMO.get(memo_key)
    if entry is None:
        seeds = [span(ctx, family.q, [ctx.exp(v) for v in form]) for form in key]
        res = _solve(*_rows(coset_family(seeds)), budget)
        entry = (tuple(ctx.log(w) for w in res.witness), res.method)
        with _MEMO_LOCK:
            if len(_MEMO) >= MEMO_LIMIT:
                del _MEMO[next(iter(_MEMO))]
            _MEMO[memo_key] = entry
    logs, method = entry
    back = ctx.p ** (ctx.n - f)
    witness = tuple(sorted(ctx.exp(back * v % group) for v in logs))
    if family.first_miss(witness) is not None:
        raise InvariantError("memoised witness misses a set of the caller's family")
    return HittingResult(witness, method)


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
