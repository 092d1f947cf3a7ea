"""Multiplicative coset families of subspace seeds and their orbit structure.

A seed S (a subspace containing 0) generates the repair groups
{a* + b(S\\{0}) : b nonzero}; distinct groups form the hitting-set instance
whose minimum size fixes the design's failure tolerance.  The number of
distinct groups per seed is (q^ell - 1)/(q^m - 1), where q^m is the order
of the seed's base subfield, because the stabilizer of S\\{0} under scaling
is exactly the multiplicative group of that base.

Orbit counting under scaling uses Burnside's lemma: the count of
delta-dimensional subspaces with base exactly q^m comes out of a Mobius
inversion over Gaussian coefficients, and the closed-form orbit count is
cross-checked in tests against brute-force orbit decomposition.  One seed
per orbit is enough to regenerate every delta-dimensional subspace as a
coset, which is what the multi-seed designs exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    BudgetExceededError, InvalidDivisorError, InvariantError, NonIntegerResultError,
    SeedWithoutZeroError,
)
from .gf import FieldCtx, prime_factors
from .subspaces import Subspace, base_of, enumerate_subspaces, gaussian_coefficient

# Most delta-subspaces orbit_decomposition will enumerate; the largest
# instance in the tests and the benchmark is [8 choose 2]_2 = 10795.
ENUMERATION_BUDGET = 10**5


@dataclass(frozen=True)
class CosetFamily:
    """The distinct sets {center + b*S_t} over all nonzero b and seeds t.

    sets[i] was first produced by seeds[seed_index[i]] with multiplier
    b_value[i]; that witness pair lets callers rebuild the matching dilated
    repair scheme for any group.  universe is where failure patterns live:
    everything except the repaired point (or except 0 when center is None).
    """

    ctx: FieldCtx
    q: int
    center: int | None
    sets: tuple[frozenset[int], ...]
    seed_index: tuple[int, ...]
    b_value: tuple[int, ...]
    universe: frozenset[int]

    def __len__(self):
        return len(self.sets)


def coset_family(seeds, center: int | None = None) -> CosetFamily:
    """Build the deduplicated coset family of one or more subspace seeds.

    z^j * S* depends only on j modulo (q^ell - 1) / stabilizer_order(S), so
    each seed scales by z^j for j below that period and no further: every
    group appears once, at its first multiplier.  Groups already produced
    by an earlier seed keep that seed's witness.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    ctx = seeds[0].ctx
    q = seeds[0].q
    for S in seeds:
        if S.ctx is not ctx or S.q != q:
            raise ValueError("all seeds must share one field context and q")
        if 0 not in S.members:
            raise SeedWithoutZeroError(f"seed {sorted(S.members)} does not contain 0")
    add, mul = ctx.add, ctx.mul
    first_seen: dict[frozenset[int], tuple[int, int]] = {}
    for t, S in enumerate(seeds):
        star = S.star()
        for j in range((ctx.order - 1) // stabilizer_order(S)):
            b = ctx.exp(j)
            if center is None:
                grp = frozenset(mul(b, x) for x in star)
            else:
                grp = frozenset(add(center, mul(b, x)) for x in star)
            if grp not in first_seen:
                first_seen[grp] = (t, b)
    universe = frozenset(ctx.elements()) - {0 if center is None else center}
    sets = tuple(first_seen)
    witnesses = tuple(first_seen[g] for g in sets)
    return CosetFamily(
        ctx,
        q,
        center,
        sets,
        tuple(w[0] for w in witnesses),
        tuple(w[1] for w in witnesses),
        universe,
    )


def stabilizer_order(S: Subspace) -> int:
    """|{b : b*(S\\{0}) = S\\{0}}| = q^m - 1 for m the base degree of S."""
    return S.q ** base_of(S) - 1


@dataclass(frozen=True)
class OrbitReport:
    """Orbit decomposition of all delta-dimensional subspaces under scaling."""

    q: int
    ell: int
    delta: int
    counts_by_base: dict[int, int]
    orbit_count: int
    representatives: tuple[Subspace, ...]
    orbit_sizes: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "ell": self.ell,
            "delta": self.delta,
            "counts_by_base": {str(m): n for m, n in sorted(self.counts_by_base.items())},
            "orbit_count": self.orbit_count,
            "representatives": [rep.to_json() for rep in self.representatives],
        }


def orbit_decomposition(ctx: FieldCtx, q: int, delta: int) -> OrbitReport:
    """Partition all delta-dimensional subspaces into scaling orbits.

    The enumeration gives every subspace with its canonical basis.  Orbits
    are popped from it in enumeration order: the first pending subspace S
    is walked through S, zS, z^2 S, ... until the walk returns to S, and
    every subspace on the walk leaves the pending map.  Each orbit's
    representative is its lexicographically least canonical basis, so
    reports are reproducible.  The walk length is checked against the
    orbit-stabilizer relation for base_of(S), and the per-base counts
    against the Gaussian coefficient.  Raises BudgetExceededError when
    there are more than ENUMERATION_BUDGET subspaces to enumerate.
    """
    m = ctx.subfield_degree(q)
    ell = ctx.n // m
    if delta < 1 or delta > ell:
        raise ValueError(f"need 1 <= delta <= ell = {ell}, got {delta}")
    total = gaussian_coefficient(ell, delta, q)
    if total > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{total} {delta}-subspaces exceed the enumeration budget of "
            f"{ENUMERATION_BUDGET}"
        )
    mul, z = ctx.mul, ctx.generator
    pending = {S.members: S.basis for S in enumerate_subspaces(ctx, q, delta)}
    reps: list[Subspace] = []
    sizes: list[int] = []
    counts: dict[int, int] = {mm: 0 for mm in range(1, gcd(ell, delta) + 1) if gcd(ell, delta) % mm == 0}
    while pending:
        start = members = next(iter(pending))
        orbit = []
        while not orbit or members != start:
            orbit.append((pending.pop(members), members))
            members = frozenset(mul(z, x) for x in members)
        base_m = base_of(Subspace(ctx, q, delta, *orbit[0]))
        if len(orbit) * (q**base_m - 1) != q**ell - 1:
            raise InvariantError(
                f"orbit of size {len(orbit)} breaks orbit-stabilizer for "
                f"base field order q^{base_m}"
            )
        counts[base_m] += len(orbit)
        reps.append(Subspace(ctx, q, delta, *min(orbit)))
        sizes.append(len(orbit))
    if sum(counts.values()) != total:
        raise InvariantError(
            f"orbits cover {sum(counts.values())} subspaces, expected {total}"
        )
    return OrbitReport(q, ell, delta, counts, len(reps), tuple(reps), tuple(sizes))


def mobius(v: int) -> int:
    """Mobius function: 0 unless v is squarefree, else (-1)^(#prime factors)."""
    if v < 1:
        raise ValueError("mobius is defined on positive integers")
    factors = prime_factors(v)
    if any(v % (f * f) == 0 for f in factors):
        return 0
    return (-1) ** len(factors)


def _divisors(v: int) -> list[int]:
    return [d for d in range(1, v + 1) if v % d == 0]


def count_with_base(q: int, ell: int, delta: int, m: int) -> int:
    """Number of delta-dimensional F_q-subspaces whose base is exactly q^m.

    Mobius inversion of the tower identity: the q^m-subspaces of dimension
    delta/m are counted by a Gaussian coefficient that lumps together all
    bases q^p with m | p.
    """
    g = gcd(ell, delta)
    if m < 1 or g % m:
        raise InvalidDivisorError(f"m = {m} must divide gcd(ell, delta) = {g}")
    total = 0
    for v in _divisors(g // m):
        total += mobius(v) * gaussian_coefficient(ell // (m * v), delta // (m * v), q ** (m * v))
    return total


def base_counts(q: int, ell: int, delta: int) -> dict[int, int]:
    """count_with_base for every base degree m dividing gcd(ell, delta)."""
    return {m: count_with_base(q, ell, delta, m) for m in _divisors(gcd(ell, delta))}


def orbit_count_formula(q: int, ell: int, delta: int) -> int:
    """Closed-form orbit count via Burnside: weighted base counts over q^ell - 1."""
    if delta < 1 or delta > ell:
        raise ValueError(f"need 1 <= delta <= ell, got delta={delta}, ell={ell}")
    num = sum((q**m - 1) * n for m, n in base_counts(q, ell, delta).items())
    den = q**ell - 1
    if num % den:
        raise NonIntegerResultError(
            f"Burnside sum {num} not divisible by {den}; this is a bug"
        )
    return num // den
