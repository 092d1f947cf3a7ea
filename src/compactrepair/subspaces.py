"""F_q-subspaces of GF(q^ell): spans, enumeration, bases, subspace polynomials.

Every Subspace is over its field's own F_q: it stores the field, basis and
members, and reads q = ctx.q, ell = ctx.ell and dim = len(basis) from them.
A Subspace is canonicalized by the reduced row echelon form of its basis
over the scalar subfield, taken in the generator power-basis coordinates of
its FieldCtx (FieldCtx.echelon), so equal subspaces always carry identical
basis tuples.  The member set is materialized up front (the 2^20 field cap
keeps that cheap) for coset_family's logs, the closure test of base, the
support and helpers of a SeedScheme and design_multi_seed's witness.

Enumeration works on numpy blocks: _subspace_blocks yields the canonical
bases and member lists of many subspaces at once, built with array
exp/log multiplication and digit-wise array addition.  enumerate_subspaces
wraps its rows as Subspace objects, and orbit_decomposition reads the
blocks of the subspaces through 1 directly.  span builds one subspace
with a Python closure, which is faster than array set-up at that size.

S.base is the largest m such that S is closed under scalars from the
order-q^m subfield; its multiplicative group is exactly the stabilizer of
S under coset scaling, so S.coset_count = (q^ell - 1)/(q^m - 1) counts
S's distinct cosets b*S* and its scaling orbit.  Both drive all orbit
counting downstream; each Subspace derives its base once, on first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .errors import InvariantError
from .gf import FieldCtx


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of the field over its scalar subfield, of order q = ctx.q."""

    ctx: FieldCtx
    basis: tuple[int, ...]
    members: frozenset[int]

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ell(self) -> int:
        """Extension degree of the whole field over the scalar subfield."""
        return self.ctx.ell

    @cached_property
    def base(self) -> int:
        """Largest m such that S is a subspace over the order-q^m subfield.

        Tested in decreasing divisor order of gcd(ell, dim): S is q^m-closed
        iff scaling by a multiplicative generator of that subfield maps the
        basis into S.
        """
        if self.dim == 0:
            raise ValueError("the trivial subspace has no base field")
        ctx = self.ctx
        g = gcd(self.ell, self.dim)
        for m in range(g, 0, -1):
            if g % m:
                continue
            w = ctx.exp((ctx.order - 1) // (self.q**m - 1))
            if all(ctx.mul(w, b) in self.members for b in self.basis):
                return m
        raise InvariantError("unreachable: every subspace is q-closed")

    @property
    def coset_count(self) -> int:
        """Distinct cosets b*S* over nonzero b: (q^ell - 1)/(q^m - 1), m = base.

        F*_{q^m} is the stabilizer of S* under scaling, so this is also the
        size of S's scaling orbit.
        """
        return (self.ctx.order - 1) // (self.q**self.base - 1)

    def star(self) -> tuple[int, ...]:
        """Nonzero members, sorted; the punctured set the cosets scale."""
        return tuple(sorted(self.members - {0}))

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ctx is other.ctx and self.basis == other.basis

    def __hash__(self):
        return hash((id(self.ctx), self.basis))

    def __repr__(self):
        return f"Subspace(q={self.q}, dim={self.dim}, basis={sorted(self.basis)})"

    def to_json(self) -> list[int]:
        return sorted(self.basis)


def _closure(ctx: FieldCtx, m: int, basis) -> frozenset[int]:
    scalars = ctx.subfield_elements(m)
    members = {0}
    for b in basis:
        members = {ctx.add(x, ctx.mul(c, b)) for x in members for c in scalars}
    return frozenset(members)


def _check_q(ctx: FieldCtx, q: int) -> None:
    """The one rule on a subspace's q: the field's own, ctx.q."""
    if q != ctx.q:
        raise ValueError(f"subspaces of GF({ctx.order}) are over its F_{ctx.q}, got q = {q}")


def span(ctx: FieldCtx, q: int, generators) -> Subspace:
    """Smallest F_q-subspace containing the generators, in canonical form; q must be ctx.q."""
    _check_q(ctx, q)
    basis, _ = ctx.echelon(generators, ctx.s)
    return Subspace(ctx, basis, _closure(ctx, ctx.s, basis))


def _check_delta(q: int, ell: int, delta: int, least: int = 1) -> None:
    """The one rule on q, ell and delta: integers with q >= 2 and least <= delta <= ell."""
    if not (hasattr(q, "__index__") and q >= 2):
        raise ValueError(f"need an integer q >= 2, got q = {q}")
    if not hasattr(ell, "__index__"):
        raise ValueError(f"need an integer ell, got ell = {ell}")
    if not (hasattr(delta, "__index__") and least <= delta <= ell):
        raise ValueError(f"need {least} <= delta <= ell = {ell}, got delta = {delta}")


def gaussian_coefficient(ell: int, delta: int, q: int) -> int:
    """Number of delta-dimensional F_q-subspaces of an ell-dimensional space."""
    _check_delta(q, ell, delta, least=0)
    num = 1
    den = 1
    for i in range(delta):
        num *= q**ell - q**i
        den *= q**delta - q**i
    if num % den:
        raise InvariantError(f"Gaussian coefficient {num}/{den} is not an integer")
    return num // den


# Most member entries (rows times q^delta) in one block of _subspace_blocks,
# so a block of GF(2^8) 3-subspaces has 512 rows.  Blocks 16 times larger
# ran no faster there and let a long-running process's resident memory creep.
_BLOCK_ENTRIES = 1 << 12


def _subspace_blocks(ctx: FieldCtx, delta: int, *, through_one: bool = False):
    """Every delta-dimensional F_q-subspace, q = ctx.q, as (bases, members) int arrays.

    Pivot-column combinations ascend; within one, the free entries of the
    reduced row echelon basis run through itertools.product of the
    subfield elements, sliced lazily into blocks of at most
    _BLOCK_ENTRIES // q^delta rows (and at least one).  Row r of bases is
    the canonical basis of one subspace: basis vector i is z^pivots[i]
    plus its free entries c * z^j, looked up in a (q, ell) product table.
    Row r of members lists all q^delta F_q-combinations of that basis,
    column 0 being 0.

    through_one keeps only the subspaces that contain 1 = z^0, in the same
    order: those whose pivots start at column 0 and whose basis vector 0
    is exactly 1, with no free entries (writing 1 in the reduced basis
    reads its coefficients off the pivot columns).  There are
    [ell - 1 choose delta - 1]_q of them.  The callers check delta (_check_delta).
    """
    q, ell = ctx.q, ctx.ell
    scalar_logs = np.array([ctx.log(c) for c in ctx.subfield_elements(ctx.s)[1:]])
    # products[c, j] = (c-th scalar) * z^j, z^j being the power basis
    products = np.zeros((q, ell), np.intp)
    products[1:] = ctx.exp_array(scalar_logs[:, None] + np.arange(ell))
    rows = max(1, _BLOCK_ENTRIES // q**delta)
    pivot_lists = itertools.combinations(range(ell), delta)
    if through_one:  # the combinations starting at 0 come first
        pivot_lists = itertools.takewhile(lambda pivots: pivots[:1] == (0,), pivot_lists)
    for pivots in pivot_lists:
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(int(through_one), delta)
            for j in range(ell)
            if j > pivots[i] and j not in pivot_set
        ]
        values = itertools.product(range(q), repeat=len(free))
        while chunk := list(itertools.islice(values, rows)):
            picks = np.fromiter(
                itertools.chain.from_iterable(chunk), np.intp, len(chunk) * len(free)
            ).reshape(len(chunk), len(free))
            bases = np.empty((len(chunk), delta), np.intp)
            bases[:] = ctx.exp_array(np.array(pivots, np.intp))
            for f, (i, j) in enumerate(free):
                bases[:, i] = ctx.add_array(bases[:, i], products[picks[:, f], j])
            members = np.zeros((len(chunk), 1), np.intp)
            for i in range(delta):
                scaled = np.zeros((len(chunk), q), np.intp)  # scalar 0 gives 0
                scaled[:, 1:] = ctx.exp_array(
                    ctx.log_array(bases[:, i])[:, None] + scalar_logs
                )
                members = ctx.add_array(members[:, :, None], scaled[:, None, :])
                members = members.reshape(len(chunk), -1)
            yield bases, members


def enumerate_subspaces(ctx: FieldCtx, q: int, delta: int):
    """Yield every delta-dimensional F_q-subspace exactly once.

    Subspaces stream lazily in deterministic order: pivot-column
    combinations ascending, then free entries in subfield-element order.
    Each is built from one block of _subspace_blocks, so a block's worth
    of array work precedes the first yield.  The total equals
    gaussian_coefficient(ell, delta, q).  q must be ctx.q and 0 <= delta <=
    ell; both are checked at the call, before anything is drawn.
    """
    _check_q(ctx, q)
    _check_delta(q, ctx.ell, delta, least=0)

    def subspaces():
        for bases, members in _subspace_blocks(ctx, delta):
            for basis, row in zip(bases.tolist(), members.tolist()):
                yield Subspace(ctx, tuple(basis), frozenset(row))

    return subspaces()


def subspace_polynomial(S: Subspace) -> tuple[int, ...]:
    """q-linearized coefficients (a_0, ..., a_dim) of prod_{a in S} (x - a).

    The subspace polynomial of an F_q-subspace is L_S(x) = sum_j a_j
    x^(q^j), monic (a_dim = 1), and a_0 is its linear coefficient, the
    product of -a over the nonzero members.  Built one basis vector v at a
    time: with W' = W + F_q v, L_W'(x) = prod_{c in F_q} (L_W(x) + c L_W(v))
    = L_W(x)^q - L_W(v)^(q-1) L_W(x), and the q-th power maps a_j x^(q^j)
    to a_j^q x^(q^(j+1)).  That is O(dim^2) field operations.
    """
    ctx, q = S.ctx, S.q
    coeffs = [1]  # L(x) = x for the trivial subspace
    for v in S.basis:
        value = 0
        for j, a in enumerate(coeffs):
            value = ctx.add(value, ctx.mul(a, ctx.pow(v, q**j)))
        beta = ctx.pow(value, q - 1)
        shifted = [0] + [ctx.pow(a, q) for a in coeffs]
        coeffs = [
            ctx.sub(hi, ctx.mul(beta, lo)) for hi, lo in zip(shifted, coeffs + [0])
        ]
    return tuple(coeffs)
