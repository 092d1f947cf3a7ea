"""F_q-subspaces of GF(q^ell): spans, enumeration, bases, subspace polynomials.

A Subspace is canonicalized by the reduced row echelon form of its basis
over the scalar subfield, taken in the generator power-basis coordinates of
its FieldCtx, so equal subspaces always carry identical basis tuples.  The
member set is materialized up front (the 2^20 field cap keeps that cheap)
for O(1) hit tests in the hitting-set and repair machinery.

base_of(S) finds the largest m such that S is closed under scalars from
the order-q^m subfield; its multiplicative group is exactly the stabilizer
of S under coset scaling, which drives all orbit counting downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import InvariantError
from .gf import FieldCtx


@dataclass(frozen=True, eq=False)
class Subspace:
    """A delta-dimensional subspace of the field over the subfield of order q."""

    ctx: FieldCtx
    q: int
    dim: int
    basis: tuple[int, ...]
    members: frozenset[int]

    @property
    def subfield_m(self) -> int:
        return self.ctx.subfield_degree(self.q)

    @property
    def ell(self) -> int:
        """Extension degree of the whole field over the scalar subfield."""
        return self.ctx.n // self.subfield_m

    def star(self) -> tuple[int, ...]:
        """Nonzero members, sorted; the punctured set the cosets scale."""
        return tuple(sorted(self.members - {0}))

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ctx is other.ctx and self.q == other.q and self.basis == other.basis
        )

    def __hash__(self):
        return hash((id(self.ctx), self.q, self.basis))

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


def span(ctx: FieldCtx, q: int, generators) -> Subspace:
    """Smallest F_q-subspace containing the generators, in canonical form."""
    m = ctx.subfield_degree(q)
    generators = list(generators)
    if not all(0 <= g < ctx.order for g in generators):
        raise ValueError(
            f"span generators must be field elements in [0, {ctx.order})"
        )
    rows = [list(ctx.coords(g, m)) for g in generators]
    rref, pivots = ctx.rref_over(m, rows)
    basis = tuple(ctx.from_coords(r, m) for r in rref)
    return Subspace(ctx, q, len(pivots), basis, _closure(ctx, m, basis))


def gaussian_coefficient(ell: int, delta: int, q: int) -> int:
    """Number of delta-dimensional F_q-subspaces of an ell-dimensional space."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if delta < 0 or delta > ell:
        raise ValueError(f"need 0 <= delta <= ell, got delta={delta}, ell={ell}")
    num = 1
    den = 1
    for i in range(delta):
        num *= q**ell - q**i
        den *= q**delta - q**i
    if num % den:
        raise InvariantError(f"Gaussian coefficient {num}/{den} is not an integer")
    return num // den


def enumerate_subspaces(ctx: FieldCtx, q: int, delta: int):
    """Yield every delta-dimensional F_q-subspace exactly once.

    Subspaces stream in deterministic order: pivot-column combinations
    ascending, then free entries in subfield-element order.  The total
    equals gaussian_coefficient(ell, delta, q).
    """
    m = ctx.subfield_degree(q)
    ell = ctx.n // m
    if delta < 0 or delta > ell:
        raise ValueError(f"need 0 <= delta <= ell = {ell}, got {delta}")
    scalars = ctx.subfield_elements(m)
    for pivots in itertools.combinations(range(ell), delta):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(delta)
            for j in range(ell)
            if j > pivots[i] and j not in pivot_set
        ]
        for values in itertools.product(scalars, repeat=len(free)):
            rows = [[0] * ell for _ in range(delta)]
            for i, pcol in enumerate(pivots):
                rows[i][pcol] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            basis = tuple(ctx.from_coords(r, m) for r in rows)
            yield Subspace(ctx, q, delta, basis, _closure(ctx, m, basis))


def base_of(S: Subspace) -> int:
    """Largest m such that S is a subspace over the order-q^m subfield.

    Tested in decreasing divisor order of gcd(ell, dim): S is q^m-closed iff
    scaling by a multiplicative generator of that subfield maps the basis
    into S.
    """
    if S.dim == 0:
        raise ValueError("the trivial subspace has no base field")
    ctx = S.ctx
    mq = S.subfield_m
    g = gcd(S.ell, S.dim)
    group = ctx.order - 1
    for m in range(g, 0, -1):
        if g % m:
            continue
        sub_order = S.q**m
        w = ctx.exp(group // (sub_order - 1))
        if all(ctx.mul(w, b) in S.members for b in S.basis):
            return m
    raise AssertionError("unreachable: every subspace is q-closed")


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
