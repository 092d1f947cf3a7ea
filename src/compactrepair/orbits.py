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
from functools import cached_property
from math import gcd

import numpy as np

from .errors import (
    BudgetExceededError, InvalidDivisorError, InvariantError, NonIntegerResultError,
    SeedWithoutZeroError,
)
from .gf import FieldCtx, prime_factors
from .subspaces import Subspace, _subspace_blocks, base_of, gaussian_coefficient

# Most delta-subspaces, and nonzero members of them, orbit_decomposition
# will enumerate; the largest instance in the tests is [8 choose 3]_2 =
# 97155 (680085 members), and in the benchmark [8 choose 2]_2 = 10795 (32385).
ENUMERATION_BUDGET = 10**5
MEMBER_ENTRY_BUDGET = 10**6


@dataclass(frozen=True)
class CosetFamily:
    """The distinct groups {center + b*S_t*} over all nonzero b and seeds t.

    In discrete logs a scaling is a translation, so one seed holds all of
    its groups: group j of seed t is z^j * S_t*, the elements whose logs
    are logs[i] + j, for j below periods[i] = (q^ell - 1) /
    stabilizer_order(S_t), where kept[i] = t.  Two seeds share all of their
    groups (one lies in the other's scaling orbit) or none, so a seed whose
    groups an earlier seed already gave is dropped and kept lists the
    others.  Family order is seeds in order, then j ascending; blocks()
    builds the groups as arrays, and sets, seed_index and len() are views
    in that order.
    """

    ctx: FieldCtx
    q: int
    center: int | None
    kept: tuple[int, ...]
    logs: tuple[tuple[int, ...], ...]  # sorted logs of S_t*
    periods: tuple[int, ...]

    def __len__(self):
        return sum(self.periods)

    def blocks(self) -> list[np.ndarray]:
        """One (period, |S_t*|) array per kept seed; row j is group j, shifted by center."""
        out = []
        for logs, period in zip(self.logs, self.periods):
            steps = np.arange(period, dtype=np.int32)[:, None]  # logs stay below 2^21
            block = self.ctx.exp_array(steps + np.array(logs, np.int32))
            out.append(block if self.center is None else self.ctx.add_array(block, self.center))
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

        Group j of seed t meets w iff j = log(w - center) - log s for some
        s in S_t*.  Those differences are periodic in j with the seed's
        period, so taken mod the period they must cover every j below it:
        |witness| * |S_t*| work and no group is built.
        """
        ctx, shift = self.ctx, self.center or 0
        wlogs = np.array([ctx.log(ctx.sub(w, shift)) for w in witness if w != shift], np.int64)
        for t, logs, period in zip(self.kept, self.logs, self.periods):
            covered = np.zeros(period, bool)
            covered[(wlogs[:, None] - np.array(logs)) % period] = True
            if not covered.all():
                return t
        return None


def coset_family(seeds, center: int | None = None) -> CosetFamily:
    """Build the deduplicated coset family of one or more subspace seeds.

    Each seed is stored as its sorted logs and its period; no group is
    built.  A seed is dropped when its least translate (the orbit form of
    its logs, see _least_translate) equals an earlier seed's.  center must
    be a field element.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    ctx = seeds[0].ctx
    q = seeds[0].q
    if center is not None and not 0 <= center < ctx.order:
        raise ValueError(f"need 0 <= center < n = {ctx.order}, got {center}")
    group = ctx.order - 1
    forms: dict[tuple[int, ...], tuple] = {}  # least translate -> (t, logs, period)
    for t, S in enumerate(seeds):
        if S.ctx is not ctx or S.q != q:
            raise ValueError("all seeds must share one field context and q")
        if 0 not in S.members:
            raise SeedWithoutZeroError(f"seed {sorted(S.members)} does not contain 0")
        period = group // stabilizer_order(S)  # rejects the trivial seed
        star_logs = tuple(sorted(ctx.log(x) for x in S.star()))
        forms.setdefault(_least_translate(star_logs, group), (t, star_logs, period))
    kept, logs, periods = zip(*forms.values())
    return CosetFamily(ctx, q, center, kept, logs, periods)


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
    least rotation of the gaps.  It is the same for every scaling of the
    set, so it names the set's scaling orbit.
    """
    s = sorted(logs)
    gaps = [b - a for a, b in zip(s, s[1:])] + [s[0] + group - s[-1]]
    start = s[_least_rotation(gaps)]
    return tuple(sorted((x - start) % group for x in s))


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

    Works on the arrays of the subspace enumeration, with no Subspace
    built but the representatives.  Subspace k is keyed by the sorted
    logs of its nonzero members; scaling by z adds 1 to every log, so one
    row sort of keys and images together pairs each image with the
    subspace it equals, giving the permutation nxt (S_k scaled by z is
    S_nxt[k]).  Its cycles are the orbits: each is labelled by its first
    enumerated subspace (pointer doubling takes the least index around
    every cycle), orbits are listed in that order, and an orbit's size is
    its cycle length.  Each orbit's representative is its
    lexicographically least canonical basis, so reports are reproducible.
    The cycle length is checked against the orbit-stabilizer relation for
    base_of of the representative, and the per-base counts against the
    Gaussian coefficient.  Raises BudgetExceededError, before any block is
    built, past ENUMERATION_BUDGET subspaces or MEMBER_ENTRY_BUDGET members.
    """
    m = ctx.subfield_degree(q)
    ell = ctx.n // m
    if delta < 1 or delta > ell:
        raise ValueError(f"need 1 <= delta <= ell = {ell}, got {delta}")
    total = gaussian_coefficient(ell, delta, q)
    entries = total * (q**delta - 1)
    if total > ENUMERATION_BUDGET or entries > MEMBER_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{total} {delta}-subspaces with {entries} nonzero members exceed the enumeration "
            f"budget of {ENUMERATION_BUDGET} subspaces or {MEMBER_ENTRY_BUDGET} members"
        )
    group = ctx.order - 1
    blocks = [
        (bases, np.sort(ctx.log_array(members[:, 1:]), axis=1))
        for bases, members in _subspace_blocks(ctx, q, delta)
    ]
    bases = np.concatenate([b for b, _ in blocks])
    keys = np.concatenate([k for _, k in blocks])
    found = len(keys)
    # Sort keys (tag 0) and z-images (tag 1) together: equal rows pair up,
    # the key first, so each image sits right after the subspace it equals.
    rows = _pack(np.concatenate([keys, np.sort((keys + 1) % group, axis=1)]), group)
    tags = np.repeat([0, 1], found)
    order = np.lexsort((tags, *rows.T[::-1]))
    subspace, image = order[0::2], order[1::2]
    if not (
        (subspace < found).all()
        and (image >= found).all()
        and (rows[subspace] == rows[image]).all()
    ):
        raise InvariantError("scaling by z does not permute the enumerated subspaces")
    nxt = np.empty(found, np.intp)
    nxt[image - found] = subspace
    first, jump = np.arange(found), nxt
    for _ in range((group - 1).bit_length()):  # 2^steps >= group >= any cycle
        first = np.minimum(first, first[jump])
        jump = jump[jump]
    _, orbit_of, sizes = np.unique(first, return_inverse=True, return_counts=True)
    by_basis = np.lexsort((*bases.T[::-1], orbit_of))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    reps: list[Subspace] = []
    counts: dict[int, int] = {mm: 0 for mm in range(1, gcd(ell, delta) + 1) if gcd(ell, delta) % mm == 0}
    for r, size in zip(by_basis[starts].tolist(), sizes.tolist()):
        members = frozenset([0, *ctx.exp_array(keys[r]).tolist()])
        rep = Subspace(ctx, q, delta, tuple(bases[r].tolist()), members)
        base_m = base_of(rep)
        if size * (q**base_m - 1) != q**ell - 1:
            raise InvariantError(
                f"orbit of size {size} breaks orbit-stabilizer for "
                f"base field order q^{base_m}"
            )
        counts[base_m] += size
        reps.append(rep)
    if sum(counts.values()) != total:
        raise InvariantError(
            f"orbits cover {sum(counts.values())} subspaces, expected {total}"
        )
    return OrbitReport(q, ell, delta, counts, len(reps), tuple(reps), tuple(sizes.tolist()))


def _pack(rows: np.ndarray, group: int) -> np.ndarray:
    """Rows of logs below group, several logs to an int64 word; equal iff equal."""
    bits = max(1, (group - 1).bit_length())  # GF(2) has group 1
    per = 63 // bits
    words = np.zeros((len(rows), -(-rows.shape[1] // per)), np.int64)
    for c, col in enumerate(rows.T):
        words[:, c // per] = words[:, c // per] << bits | col
    return words


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
