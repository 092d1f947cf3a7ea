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

|MHS| is invariant under the semilinear group GammaL(1, q^ell): scaling
x -> b*x and the Frobenius map x -> x^p both carry a coset family around 0
onto another one, set for set.  So a CosetFamily with center None (every
family the library builds, each closed under scaling) is solved once per
class.  In discrete logs a scaling is a translation, so each scaling orbit
reduces to the least translate of its log-set (Booth's least rotation of
the cyclic gap sequence); the Frobenius power x -> x^(p^f) multiplies logs
by p^f.  The canonical key is the sorted tuple of orbit forms at the
smallest f < n that minimises it.  A miss solves the coset family of the
key's seeds and stores its witness logs in a bounded module-level memo,
keyed by (p, n, modulus, generator, q, budget, key) rather than by the
FieldCtx object, which every CLI call and load_bundle builds anew.  The
stored witness is mapped back by log -> p^(n-f) * log and checked to hit
every set of the caller's family (InvariantError otherwise).  Every caller
gets the canonical solve mapped back, hit or miss, so a result depends on
the family alone, never on what the process solved before: the memo is a
pure cache.  Raw lists of sets and centred families are solved directly.

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
from .orbits import CosetFamily, coset_family
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
    """Exact minimum hitting set of a family of sets.

    A CosetFamily around 0 is solved once per class under scaling and
    Frobenius through the memo (see the module docstring); any other
    family is solved directly.
    """
    if isinstance(family, CosetFamily) and family.center is None:
        return _memo_solve(family, budget)
    return _solve(_family_sets(family), budget)


def _solve(sets: list[frozenset[int]], budget: int) -> HittingResult:
    """One HiGHS MILP over the set-by-element incidence matrix."""
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


def _least_rotation(seq: list[int]) -> int:
    """Start of the lexicographically least rotation of seq (Booth, linear time)."""
    doubled = seq + seq
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != doubled[k + i + 1]:  # here i == -1
            if c < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _least_translate(logs, group: int) -> tuple[int, ...]:
    """The lexicographically least translate of a log-set mod group.

    A translate that puts member s_r at 0 lists the partial sums of the
    cyclic gap sequence read from r, so the least translate starts at the
    least rotation of the gaps.
    """
    s = sorted(logs)
    gaps = [b - a for a, b in zip(s, s[1:])] + [s[0] + group - s[-1]]
    start = s[_least_rotation(gaps)]
    return tuple(sorted((x - start) % group for x in s))


def _canonical_class(family: CosetFamily) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(f, key): the least image of the family's scaling orbits under x -> x^(p^f).

    One log-set per orbit (the first set of each seed index) is mapped by
    log -> p^f * log and reduced to its least translate; the key is the
    sorted tuple of those forms, at the smallest f < n that minimises it.
    """
    ctx = family.ctx
    group = ctx.order - 1
    firsts: dict[int, frozenset[int]] = {}
    for t, s in zip(family.seed_index, family.sets):
        firsts.setdefault(t, s)
    orbit_logs = [[ctx.log(x) for x in s] for s in firsts.values()]
    key, f = min(
        (tuple(sorted(_least_translate([ctx.p**f * v % group for v in logs], group)
                      for logs in orbit_logs)), f)
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
        res = _solve(list(coset_family(seeds).sets), budget)
        entry = (tuple(ctx.log(w) for w in res.witness), res.method)
        with _MEMO_LOCK:
            if len(_MEMO) >= MEMO_LIMIT:
                del _MEMO[next(iter(_MEMO))]
            _MEMO[memo_key] = entry
    logs, method = entry
    back = ctx.p ** (ctx.n - f)
    witness = tuple(sorted(ctx.exp(back * v % group) for v in logs))
    if any(s.isdisjoint(witness) for s in family.sets):
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
