"""Exact minimum hitting sets over coset families, and the tolerance bounds.

The failure tolerance of a collection of repair groups is |MHS| - 1: an
adversary must hit every group to make the symbol unrepairable.  Finding a
minimum hitting set is NP-hard in general, but three coset-family shapes
are solved by a formula (see below), reported with method="exact" and no
solver run.  min_hitting_set checks every CosetFamily witness, formula or
solved, once (CosetFamily.first_miss; InvariantError if it misses a group).

Every other instance is solved exactly at desk scale (universe within the
field cap, up to a few thousand sets) by one 0/1 integer program (HiGHS
via scipy.optimize.milp) over a sparse set-by-element incidence matrix,
built in numpy: one row per group in family order, from the per-seed
log arrays, and one column per element in ascending value.  The witness is
checked to hit every row before it is reported with method="exact".
scipy.optimize and scipy.sparse are imported by the first solve, not with
this module: the milp attribute resolves on first read (module
__getattr__), and _solve calls through it.

If the solver spends its NODE_BUDGET nodes, or it returns no verified
optimum, the result is flagged method="greedy-upper-only" and is the
smaller of its verified incumbent, if any, and the Bose-Burton line cover
for the least seed dimension (see below), which keeps it within bounds'
upper end.  Witnesses are reproducible for fixed inputs, but only size
and the hitting property are contractual.

|MHS| is invariant under the semilinear group GammaL(1, q^ell): scaling
x -> b*x and the Frobenius map x -> x^p both carry a coset family around 0
onto another one, set for set.  So a CosetFamily that goes to the solver,
whose groups lie around 0, is solved once per class.  A scaling adds a
constant to logs, so each kept seed's logs reduce to their least translate
(orbits._least_translate); x -> x^(p^f) multiplies logs by p^f.  The
canonical key is the sorted tuple of these forms, each with its seed's
period (both maps keep stabilizers), at the smallest f < n that minimises
it.  A miss solves the CosetFamily of the key's forms and periods, and an
exact solve keeps its witness logs with the field context, under ("mhs",
key) in ctx._derived: the entry lives as long as the context, and a
context built anew solves anew.  A not-exact result is never kept, so a
later call solves again.  The stored witness is mapped back by
log -> p^(n-f) * log and checked against the caller's family by
min_hitting_set, so a corrupted entry raises InvariantError.  Every
caller gets the canonical solve mapped back, hit or miss, so a result
depends on the family alone, never on what the process solved before: the
memo is a pure cache.

For a single subspace seed, |MHS| is sandwiched between
ceil((q^ell - 1)/(q^delta - 1)), by double counting element occurrences,
and (q^(ell-delta+1) - 1)/(q - 1), the minimum number of lines meeting
every delta-dimensional subspace.  _solved_shape owns the rule for the two
seed shapes with exact values, read from delta and the base q^m:

* subfield-coset (m = delta): S* is a coset of F*_{q^delta}, whose cosets
  z^j * F*_{q^delta}, j < B = (q^ell - 1)/(q^delta - 1), tile the nonzero
  elements; W = {z^0, ..., z^(B-1)} hits each, and B is the lower bound.
* nested-subspace (e = ell - delta divides m): S is a hyperplane over the
  order-q^e subfield, and so is every group's span b*S.  Each such
  hyperplane meets the F_{q^e}-plane span(1, z) in at least a line, so
  one point per line of that plane, W = {1} u {z + c : c in F_{q^e}}, hits every
  group with q^e + 1 points, the counting lower bound (e <= delta, since
  e | m | delta).

z is the field's generator.  bounds_for_seed reports the same values.  The
third shape is every delta-subspace once, as from one seed per scaling
orbit: gaussian_coefficient(ell, delta, q) groups of q^delta - 1 points.
A lone seed of a solved shape takes its own formula first.  Otherwise
U = span(z^0, ..., z^(ell-delta)) meets each group's span in at least a
line, so the least F_q-multiple of each nonzero member of U hits them all,
with (q^(ell-delta+1) - 1)/(q - 1) points: the Bose-Burton bound.  The
same U, of dimension ell - delta + 1, meets every group of a seed of
dimension delta_t >= delta in delta_t - delta + 1 >= 1 dimensions, so the
line cover of the least seed dimension hits every group of any coset
family: the not-exact fallback.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .orbits import CosetFamily, _least_translate
from .subspaces import Subspace, _check_delta, gaussian_coefficient, span

# Branch-and-bound nodes one HiGHS solve may spend before it stops.
NODE_BUDGET = 10**7


def __getattr__(name: str):
    """milp, imported from scipy.optimize on first read: most processes never solve."""
    if name != "milp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import milp

    globals()["milp"] = milp
    return milp


@dataclass(frozen=True)
class HittingResult:
    witness: tuple[int, ...]
    method: str  # "exact", or "greedy-upper-only": an upper bound, not proven minimum

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


def _rows(family: CosetFamily) -> tuple[np.ndarray, np.ndarray]:
    """(values, indptr): group r, in family order, is values[indptr[r]:indptr[r + 1]]."""
    blocks = family.blocks()
    values = np.concatenate([block.ravel() for block in blocks])
    lengths = np.repeat([b.shape[1] for b in blocks], [b.shape[0] for b in blocks])
    return values, np.concatenate(([0], np.cumsum(lengths)))


def min_hitting_set(family: CosetFamily) -> HittingResult:
    """Exact minimum hitting set of a coset family's groups.

    The family gets its formula witness if it has a solved shape, else its
    class's memoised solve (see the module docstring), checked here
    against every group.  Anything but a CosetFamily raises TypeError.
    """
    if not isinstance(family, CosetFamily):
        raise TypeError(f"min_hitting_set needs a CosetFamily, got {type(family).__name__}")
    res = _formula_witness(family) or _memo_solve(family)
    if family.first_miss(res.witness) is not None:
        raise InvariantError(f"the {res.method} witness of {res.size} points misses a group")
    return res


def _formula_witness(family: CosetFamily) -> HittingResult | None:
    """The witness of a family of a solved shape, unchecked, else None.

    delta is read from |S*| = q^delta - 1, and a lone seed's base m from its
    period (q^ell - 1)/(q^m - 1); _solved_shape decides, as for
    bounds_for_seed.  Failing that, every delta-subspace gets the line cover.
    """
    ctx = family.ctx
    q, ell = ctx.q, ctx.ell
    delta = _shared_delta(family)
    if delta is None:
        return None
    m = _exponent(q, (ctx.order - 1) // family.periods[0] + 1)
    shape = _solved_shape(q, ell, delta, m) if len(family.kept) == 1 and m else None
    case, size = shape or (None, None)
    if case == "subfield-coset":
        witness = ctx.exp_array(np.arange(size)).tolist()
    elif case == "nested-subspace":
        z = ctx.generator
        witness = [1] + [ctx.add(z, c) for c in ctx.subfield_elements(ctx.s * (ell - delta))]
    elif len(family) == gaussian_coefficient(ell, delta, q):
        witness = _line_cover(ctx, delta)
    else:
        return None
    return HittingResult(tuple(sorted(witness)), "exact")


def _shared_delta(family: CosetFamily) -> int | None:
    """delta with |S*| = q^delta - 1 for every kept seed, else None."""
    delta, *mixed = {_exponent(family.ctx.q, len(logs) + 1) for logs in family.logs}
    return None if mixed else delta


def _line_cover(ctx, delta: int) -> set[int]:
    """The least F_q-multiple of each nonzero member of U = span(z^0, ..., z^(ell-delta)).

    U meets every subspace of dimension at least delta in at least a line,
    so these (q^(ell-delta+1) - 1)/(q - 1) points, bounds' upper end, hit
    every group of any family whose seeds have dimension delta or more.
    """
    U = span(ctx, ctx.q, [ctx.exp(i) for i in range(ctx.ell - delta + 1)])
    scalars = ctx.subfield_elements(ctx.s)[1:]
    return {min(ctx.mul(c, v) for c in scalars) for v in U.members if v}


def _exponent(q: int, value: int) -> int | None:
    """d with q^d == value, else None."""
    d = 0
    while q**d < value:
        d += 1
    return d if q**d == value else None


def _solve(values: np.ndarray, indptr: np.ndarray) -> HittingResult | None:
    """One HiGHS MILP over the set-by-element incidence matrix.

    Rows are the sets in order and columns the elements in ascending
    value, so equal families give HiGHS equal matrices.  The result is
    the verified optimum, "exact"; else the verified incumbent, flagged
    "greedy-upper-only"; else None.  The solver is read as this module's
    milp attribute, so a replacement set there is the one called.
    """
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.sparse import csr_array

    elements, cols = np.unique(values, return_inverse=True)
    a = csr_array(
        (np.ones(len(cols)), cols, indptr), shape=(len(indptr) - 1, len(elements))
    )
    res = sys.modules[__name__].milp(
        c=np.ones(len(elements)),
        constraints=LinearConstraint(a, lb=1.0),
        integrality=np.ones(len(elements)),
        bounds=Bounds(0.0, 1.0),
        options={"node_limit": NODE_BUDGET},
    )
    if res.x is None:
        return None
    chosen = res.x > 0.5
    if not np.logical_or.reduceat(chosen[cols], indptr[:-1]).all():
        return None
    method = "exact" if res.status == 0 else "greedy-upper-only"
    return HittingResult(tuple(elements[chosen].tolist()), method)


def _canonical_class(family: CosetFamily) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """(f, key): the least image of the family's scaling orbits under x -> x^(p^f).

    Each kept seed's logs are mapped by log -> p^f * log and reduced to
    their least translate, paired with the seed's period; the key is the
    sorted tuple of those pairs, at the smallest f < n that minimises it.
    """
    ctx = family.ctx
    group = ctx.order - 1
    key, f = min(
        (tuple(sorted((_least_translate([ctx.p**f * v % group for v in logs], group), period)
                      for logs, period in zip(family.logs, family.periods))), f)
        for f in range(ctx.n)
    )
    return f, key


def _memo_solve(family: CosetFamily) -> HittingResult:
    """The family's ΓL class solved once per context, its witness mapped back, unchecked.

    Only an exact solve is kept.  Otherwise the result is the smaller of
    the solver's incumbent and the line cover of the least seed dimension,
    flagged not exact.
    """
    ctx = family.ctx
    group = ctx.order - 1
    f, key = _canonical_class(family)
    logs, method = ctx._derived.get(("mhs", key)), "exact"
    if logs is None:  # racing solves agree in size; setdefault keeps the first
        forms, periods = zip(*key)  # a form lists the logs of a seed's image
        res = _solve(*_rows(CosetFamily(ctx, tuple(range(len(key))), forms, periods)))
        if res is not None and res.method == "exact":
            logs = ctx._derived.setdefault(("mhs", key), tuple(ctx.log(w) for w in res.witness))
        else:
            cover = _line_cover(ctx, min(_exponent(ctx.q, len(v) + 1) for v in family.logs))
            if res is None or len(cover) < res.size:
                return HittingResult(tuple(sorted(cover)), "greedy-upper-only")
            logs, method = tuple(ctx.log(w) for w in res.witness), res.method
    back = ctx.p ** (ctx.n - f)
    return HittingResult(tuple(sorted(ctx.exp(back * v % group) for v in logs)), method)


def bounds(q: int, ell: int, delta: int) -> BoundsReport:
    """Sandwich bounds on |MHS| of a single-seed coset family."""
    _check_delta(q, ell, delta)
    lower = -(-(q**ell - 1) // (q**delta - 1))
    upper = (q ** (ell - delta + 1) - 1) // (q - 1)
    return BoundsReport(lower, upper, None, "generic")


def _solved_shape(q: int, ell: int, delta: int, m: int) -> tuple[str, int] | None:
    """(case, exact |MHS|) of a seed of dimension delta and base q^m, or None if generic.

    The one owner of the shape rule: bounds_for_seed and _formula_witness
    both read it.
    """
    e = ell - delta
    if m == delta:
        return "subfield-coset", (q**ell - 1) // (q**delta - 1)
    if e >= 1 and m % e == 0:
        return "nested-subspace", q**e + 1
    return None


def bounds_for_seed(S: Subspace) -> BoundsReport:
    """Sandwich bounds, with the exact |MHS| when the seed has a solved shape.

    Multiplicative cosets of the subfield of order q^delta tile the nonzero
    elements, so their value is the lower bound (case "subfield-coset").
    Subspaces over the order-q^(ell-delta) subfield collapse the sandwich to
    q^(ell-delta) + 1 (case "nested-subspace").  Other seeds are "generic"
    with exact=None.
    """
    base = bounds(S.q, S.ell, S.dim)
    shape = _solved_shape(S.q, S.ell, S.dim, S.base)
    if shape is None:
        return base
    tag, value = shape
    if not base.lower <= value <= base.upper:
        raise InvariantError(
            f"{tag} value {value} lies outside the sandwich "
            f"[{base.lower}, {base.upper}]"
        )
    return BoundsReport(base.lower, base.upper, value, tag)
