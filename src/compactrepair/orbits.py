"""Multiplicative coset families of subspace seeds and their orbit structure.

A seed S (a subspace containing 0) generates the repair groups
{a* + b(S\\{0}) : b nonzero}; distinct groups form the hitting-set instance
whose minimum size fixes the design's failure tolerance.  The number of
distinct groups per seed is S.coset_count = (q^ell - 1)/(q^m - 1), where
q^m is the order of the seed's base subfield S.base, because the
stabilizer of S\\{0} under scaling is exactly the multiplicative group of
that base.  Every count here reads those two Subspace values.

A scaling translates logs, so the least translate of a seed's logs
(_least_translate) names its scaling orbit, in every module.

Orbit counting under scaling uses Burnside's lemma: the count of
delta-dimensional subspaces with base exactly q^m comes out of a Mobius
inversion over Gaussian coefficients.  orbit_decomposition finds the
orbits from the subspaces through 1, one of which every orbit has, and
checks both closed forms against them.  An OrbitReport stores only its
representatives; its counts, and the q, ell and delta of its JSON, are
read from them and from their base and coset_count.  One seed per orbit
is enough to regenerate every delta-dimensional subspace as a coset,
which is what the multi-seed designs exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .gf import FieldCtx, is_integer, prime_factors
from .subspaces import Subspace, _check_delta, _subspace_blocks, gaussian_coefficient

# Most delta-subspaces through 1, and nonzero members of them,
# orbit_decomposition will enumerate; the largest instance in the tests is
# GF(2^10), delta 3: [9 choose 2]_2 = 43435 (304045 members), and in the
# benchmark GF(2^6), delta 3: [5 choose 2]_2 = 155 (1085).
ENUMERATION_BUDGET = 10**5
MEMBER_ENTRY_BUDGET = 10**6


@dataclass(frozen=True)
class CosetFamily:
    """The distinct groups {b*S_t*} over all nonzero b and seeds t, around 0.

    In discrete logs a scaling is a translation, so one seed holds all of
    its groups: group j of seed t is z^j * S_t*, the elements whose logs
    are logs[i] + j, for j below periods[i] = S_t.coset_count, where
    kept[i] = t.  Two seeds share all of their groups (one lies in the
    other's scaling orbit) or none, so a seed whose groups an earlier seed
    already gave is dropped and kept lists the others.  Family order is
    seeds in order, then j ascending; blocks() builds the groups as arrays,
    and sets, seed_index and len() are views in that order.  The groups
    around any other point a* are these translated by a*, x -> a* + x, in
    the same order.
    """

    ctx: FieldCtx
    kept: tuple[int, ...]
    logs: tuple[tuple[int, ...], ...]  # sorted logs of S_t*
    periods: tuple[int, ...]

    def __len__(self):
        return sum(self.periods)

    def blocks(self) -> list[np.ndarray]:
        """One (period, |S_t*|) array per kept seed; row j is group j."""
        out = []
        for logs, period in zip(self.logs, self.periods):
            steps = np.arange(period, dtype=np.int32)[:, None]  # logs stay below 2^21
            out.append(self.ctx.exp_array(steps + np.array(logs, np.int32)))
        return out

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        """Every group as a frozenset, in family order."""
        return tuple(frozenset(row) for block in self.blocks() for row in block.tolist())

    @property
    def seed_index(self) -> tuple[int, ...]:
        """The seed each group comes from, in family order."""
        return tuple(t for t, period in zip(self.kept, self.periods) for _ in range(period))

    def first_miss(self, witness) -> int | None:
        """The first kept seed with a group that misses witness, else None.

        Group j of seed t meets w iff j = log w - log s for some s in S_t*.
        Those differences are periodic in j with the seed's period, so
        taken mod the period they must cover every j below it:
        |witness| * |S_t*| work and no group is built.  The witness is
        range-checked and its logs taken as one array; anything but an
        int in [0, order) raises ctx._check's ValueError for the first
        such element.
        """
        ctx = self.ctx
        values = list(witness)
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.dtype.kind not in "iu" or ((arr < 0) | (arr >= ctx.order)).any():
            for w in values:  # the log table would wrap a negative int
                ctx._check(w, "witness element")
            arr = np.asarray(values, np.int64)  # valid, but empty or bools
        wlogs = ctx.log_array(arr[arr != 0])
        for t, logs, period in zip(self.kept, self.logs, self.periods):
            covered = np.zeros(period, bool)
            covered[(wlogs[:, None] - np.array(logs)) % period] = True
            if not covered.all():
                return t
        return None


def coset_family(seeds) -> CosetFamily:
    """Build the deduplicated coset family of one or more subspace seeds.

    Each seed is stored as its sorted logs and its period; no group is
    built.  A seed is dropped when its least translate (the orbit form of
    its logs, see _least_translate) equals an earlier seed's.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    ctx = seeds[0].ctx
    group = ctx.order - 1
    forms: dict[tuple[int, ...], tuple] = {}  # least translate -> (t, logs, period)
    for t, S in enumerate(seeds):
        if S.ctx is not ctx:
            raise ValueError("all seeds must share one field context")
        if 0 not in S.members:
            raise ValueError(f"seed {sorted(S.members)} does not contain 0")
        period = S.coset_count  # rejects the trivial seed
        star_logs = tuple(sorted(ctx.log(x) for x in S.star()))
        forms.setdefault(_least_translate(star_logs, group), (t, star_logs, period))
    kept, logs, periods = zip(*forms.values())
    return CosetFamily(ctx, kept, logs, periods)


def _least_rotation(seq: list[int]) -> int:
    """Start of the lexicographically least rotation of seq (two pointers, linear time).

    Candidates i < j are compared k entries deep; at the first difference
    the larger one and the k starts after it are ruled out.
    """
    n, doubled = len(seq), seq + seq
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a < b:
            j += k + 1
        else:
            i, j = j, max(j, i + k) + 1
        k = 0
    return i


def _least_translate(logs, group: int) -> tuple[int, ...]:
    """The lexicographically least translate of a log-set mod group.

    A translate that puts member s_r at 0 lists the partial sums of the
    cyclic gap sequence read from r, so the least translate starts at the
    least rotation of the gaps.  It is the same for every scaling of the
    set, so it names the set's scaling orbit.
    """
    s = sorted(logs)
    gaps = [b - a for a, b in zip(s, s[1:])] + [s[0] + group - s[-1]]
    start = s[_least_rotation(gaps)]
    return tuple(sorted((x - start) % group for x in s))


@dataclass(frozen=True)
class OrbitReport:
    """Scaling orbits of all delta-dimensional subspaces, read from one representative each."""

    representatives: tuple[Subspace, ...]

    @property
    def orbit_count(self) -> int:
        return len(self.representatives)

    @property
    def orbit_sizes(self) -> tuple[int, ...]:
        """Each representative's coset_count, the size of its orbit."""
        return tuple(S.coset_count for S in self.representatives)

    @property
    def counts_by_base(self) -> dict[int, int]:
        S = self.representatives[0]
        counts = dict.fromkeys(_divisors(gcd(S.ell, S.dim)), 0)
        for rep in self.representatives:
            counts[rep.base] += rep.coset_count
        return counts

    def to_json_dict(self) -> dict:
        S = self.representatives[0]
        return {
            "q": S.q,
            "ell": S.ell,
            "delta": S.dim,
            "counts_by_base": {str(m): n for m, n in sorted(self.counts_by_base.items())},
            "orbit_count": self.orbit_count,
            "representatives": [rep.to_json() for rep in self.representatives],
        }


def orbit_decomposition(ctx: FieldCtx, delta: int) -> OrbitReport:
    """Partition all delta-dimensional subspaces into scaling orbits.

    Every orbit has members through 1 (s^-1 * S contains 1 for s in S*),
    so only those [ell - 1 choose delta - 1]_q subspaces are enumerated,
    on the arrays of _subspace_blocks, and each is keyed by the least
    translate of its logs (_least_translate), the orbit key coset_family
    uses.  Orbits are listed in the order of their first enumerated
    member.  An orbit's representative is its lexicographically least
    canonical basis, so reports are reproducible; that basis starts with
    the least nonzero element 1, so it is one of the members enumerated.
    The report reads its counts from the representatives, and they are
    checked as invariants: each orbit has (q^delta - 1)/(q^m - 1) members
    through 1 (orbit-stabilizer), the sizes add up to the Gaussian
    coefficient, the per-base counts equal base_counts (Mobius) and the
    orbit count equals orbit_count_formula (Burnside).  Raises
    BudgetExceededError, before any block is built, past
    ENUMERATION_BUDGET subspaces or MEMBER_ENTRY_BUDGET members through 1.
    """
    q, ell = ctx.q, ctx.ell
    _check_delta(q, ell, delta)
    through_one = gaussian_coefficient(ell - 1, delta - 1, q)
    entries = through_one * (q**delta - 1)
    if through_one > ENUMERATION_BUDGET or entries > MEMBER_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{through_one} {delta}-subspaces through 1 with {entries} nonzero members exceed the "
            f"enumeration budget of {ENUMERATION_BUDGET} subspaces or {MEMBER_ENTRY_BUDGET} members"
        )
    group = ctx.order - 1
    orbits: dict[tuple[int, ...], list] = {}  # least translate -> [basis, members, count]
    for bases, members in _subspace_blocks(ctx, delta, through_one=True):
        logs = np.sort(ctx.log_array(members[:, 1:]), axis=1)
        for basis, row, elems in zip(bases.tolist(), logs.tolist(), members.tolist()):
            orbit = orbits.setdefault(_least_translate(row, group), [basis, elems, 0])
            if basis < orbit[0]:
                orbit[:2] = basis, elems
            orbit[2] += 1
    report = OrbitReport(tuple(Subspace(ctx, tuple(b), frozenset(m)) for b, m, _ in orbits.values()))
    for (_, _, found), rep in zip(orbits.values(), report.representatives):
        if found * (q**rep.base - 1) != q**delta - 1:
            raise InvariantError(
                f"orbit with {found} members through 1 breaks orbit-stabilizer "
                f"for base q^{rep.base}"
            )
    total = gaussian_coefficient(ell, delta, q)
    if sum(report.orbit_sizes) != total:
        raise InvariantError(f"orbits cover {sum(report.orbit_sizes)} subspaces, expected {total}")
    if report.counts_by_base != base_counts(q, ell, delta):
        raise InvariantError(f"per-base counts {report.counts_by_base} differ from Mobius inversion")
    if report.orbit_count != orbit_count_formula(q, ell, delta):
        raise InvariantError(f"{report.orbit_count} orbits differ from the Burnside count")
    return report


def mobius(v: int) -> int:
    """Mobius function: 0 unless v is squarefree, else (-1)^(#prime factors)."""
    if not (is_integer(v) and v >= 1):
        raise ValueError(f"mobius needs an integer v >= 1, got v = {v}")
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
    _check_delta(q, ell, delta)
    if not is_integer(m):
        raise ValueError(f"need an integer m, got m = {m}")
    g = gcd(ell, delta)
    if m < 1 or g % m:
        raise ValueError(f"m = {m} must divide gcd(ell, delta) = {g}")
    total = 0
    for v in _divisors(g // m):
        total += mobius(v) * gaussian_coefficient(ell // (m * v), delta // (m * v), q ** (m * v))
    return total


def base_counts(q: int, ell: int, delta: int) -> dict[int, int]:
    """count_with_base for every base degree m dividing gcd(ell, delta)."""
    _check_delta(q, ell, delta)
    return {m: count_with_base(q, ell, delta, m) for m in _divisors(gcd(ell, delta))}


def orbit_count_formula(q: int, ell: int, delta: int) -> int:
    """Closed-form orbit count via Burnside: weighted base counts over q^ell - 1."""
    _check_delta(q, ell, delta)
    num = sum((q**m - 1) * n for m, n in base_counts(q, ell, delta).items())
    den = q**ell - 1
    if num % den:
        raise InvariantError(f"Burnside sum {num} not divisible by {den}")
    return num // den
