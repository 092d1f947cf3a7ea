"""Brute-force oracles the tests check the library against.

None is part of the library: no design path needs them, and each is the
exhaustive or dense form of something the library computes from structure.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from compactrepair.errors import BudgetExceededError, EmptyFamilyError
from compactrepair.orbits import CosetFamily, coset_family
from compactrepair.repair import SeedScheme
from compactrepair.subspaces import Subspace, _closure


def enumerate_subspaces_scan(ctx, q: int, delta: int):
    """Every delta-dimensional F_q-subspace, built one field element at a time.

    Same order as enumerate_subspaces: pivot-column combinations
    ascending, then the free entries of the reduced row echelon basis in
    subfield-element order.  Each basis vector comes from from_coords and
    the members from span's closure.
    """
    m = ctx.subfield_degree(q)
    ell = ctx.n // m
    scalars = ctx.subfield_elements(m)
    for pivots in combinations(range(ell), delta):
        free = [
            (i, j)
            for i in range(delta)
            for j in range(ell)
            if j > pivots[i] and j not in pivots
        ]
        for values in product(scalars, repeat=len(free)):
            rows = [[0] * ell for _ in range(delta)]
            for i, pcol in enumerate(pivots):
                rows[i][pcol] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            basis = tuple(ctx.from_coords(r, m) for r in rows)
            yield Subspace(ctx, q, delta, basis, _closure(ctx, m, basis))


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

    family is a CosetFamily, whose universe is every element but its
    center (0 when it has none), or a list of sets, whose universe is their
    union.  Raises BudgetExceededError when C(|universe|, e) exceeds the
    budget.
    """
    sets = [frozenset(s) for s in getattr(family, "sets", family)]
    if not sets:
        raise EmptyFamilyError("cannot verify an empty family")
    if isinstance(family, CosetFamily):
        universe = family_universe(family)
    else:
        universe = sorted(frozenset().union(*sets))
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


def family_universe(family) -> list[int]:
    """Where a CosetFamily's failure patterns live: every element but its center (or 0)."""
    skip = family.center or 0
    return [x for x in family.ctx.elements() if x != skip]


@dataclass(frozen=True)
class ScannedFamily:
    """Groups found by coset_family_scan, each with the first (seed, b) that gave it."""

    sets: tuple[frozenset[int], ...]
    seed_index: tuple[int, ...]
    multipliers: tuple[int, ...]


def coset_family_scan(seeds, center=None) -> ScannedFamily:
    """The groups of coset_family by scanning every multiplier z^j, j < q^ell - 1.

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
    sets = tuple(first_seen)
    return ScannedFamily(
        sets,
        tuple(first_seen[g][0] for g in sets),
        tuple(first_seen[g][1] for g in sets),
    )


def group_witnesses(family) -> list[tuple[int, int]]:
    """(seed index, multiplier b) of each group of a CosetFamily, in family order.

    Group j of a kept seed t is center + z^j * S_t*, so its b is z^j.
    """
    ctx = family.ctx
    return [(t, ctx.exp(j)) for t, period in zip(family.kept, family.periods) for j in range(period)]


def digit_add(p: int, x: int, y: int) -> int:
    """x + y digit by digit mod p, on the base-p encoding of the elements."""
    res = 0
    mult = 1
    while x or y:
        res += ((x + y) % p) * mult
        x //= p
        y //= p
        mult *= p
    return res


def digit_neg(p: int, x: int) -> int:
    """-x digit by digit mod p, on the base-p encoding of the element."""
    res = 0
    mult = 1
    while x:
        d = x % p
        if d:
            res += (p - d) * mult
        x //= p
        mult *= p
    return res


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


def simulate_first_intact(bundle, alpha_star: int, e: int) -> dict:
    """Exhaustive simulate_failures report, one frozenset scan per pattern.

    Every e-subset of the nodes other than alpha_star survives with the
    first group in coset_family order that it misses, and that group's seed
    bandwidth is the repair's cost.
    """
    family = coset_family(list(bundle.seeds), center=alpha_star)
    bws = [bundle.schemes[t].bandwidth for t in family.seed_index]
    universe = family_universe(family)
    survived = bw_sum = 0
    for pattern in combinations(universe, e):
        failed = frozenset(pattern)
        bw = next((b for g, b in zip(family.sets, bws) if g.isdisjoint(failed)), None)
        if bw is not None:
            survived += 1
            bw_sum += bw
    total = comb(len(universe), e)
    frac = survived / total
    per_repair = bw_sum / survived if survived else None
    k, ell = bundle.k, bundle.ctx.ell
    return {
        "e": e,
        "mode": "exhaustive",
        "patterns": total,
        "survived": frac,
        "survived_interval": None,
        "failure_probability": 1.0 - frac,
        "bandwidth": {
            "centralized_total": (k + max(e - 1, 0)) * ell,
            "naive_decentralized_total": e * k * ell,
            "decentralized_per_repair_mean": per_repair,
            "decentralized_total": e * per_repair if per_repair is not None else None,
        },
        "group_selection": "first-intact",
        "rng_seed": None,
    }


def naive_seed_scheme(ctx, S, k: int) -> SeedScheme:
    """Baseline scheme: u_i are constants forming an F_q-basis.

    Every helper then sees a full-rank evaluation set, so the bandwidth is
    (|S| - 1) * ell symbols, the full-download worst case.
    """
    ell = ctx.n // ctx.subfield_degree(S.q)
    u = tuple((ctx.exp(i),) for i in range(ell))
    return SeedScheme(ctx, S, k, u)


def bandwidth(scheme) -> int:
    """Total F_q-symbols downloaded: sum of evaluation ranks over helpers.

    Recomputed from the evaluations; a SeedScheme's ``bandwidth`` is the
    same sum over its stored echelon bases.
    """
    ctx = scheme.ctx
    return sum(ctx.rank_over(scheme.mq, scheme.evals_at(beta)) for beta in scheme.helpers)


def partition_dead_patterns(blocks: int, size: int, points: int, e: int) -> int:
    """e-subsets of `points` nodes that meet each of `blocks` disjoint size-sets.

    Inclusion-exclusion over the j blocks a pattern misses:
    sum_j (-1)^j C(blocks, j) C(points - j*size, e).
    """
    return sum(
        (-1) ** j * comb(blocks, j) * comb(points - j * size, e) for j in range(blocks + 1)
    )


def binomial_upper_tail(trials: int, x: int, p: float) -> float:
    """P(X >= x) for X ~ Binomial(trials, p), summed term by term."""
    return sum(comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(x, trials + 1))
