"""Brute-force oracles the tests check the library against.

None is part of the library: no design path needs them, and each is the
exhaustive or dense form of something the library computes from structure.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from compactrepair import hitting
from compactrepair.errors import BudgetExceededError
from compactrepair.gf import prime_factors
from compactrepair.orbits import CosetFamily
from compactrepair.repair import HelperPayload, SeedScheme
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
            basis = tuple(from_coords(ctx, r, m) for r in rows)
            yield Subspace(ctx, basis, _closure(ctx, m, basis))


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

    family is a CosetFamily, whose universe is every nonzero element, or a
    list of sets, whose universe is their union.  Raises ValueError on an
    empty list, and BudgetExceededError when C(|universe|, e) exceeds the
    budget.
    """
    sets = [frozenset(s) for s in getattr(family, "sets", family)]
    if not sets:
        raise ValueError("cannot verify an empty family")
    if isinstance(family, CosetFamily):
        universe = range(1, family.ctx.order)
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


@dataclass(frozen=True)
class ScannedFamily:
    """Groups found by coset_family_scan, each with the first (seed, b) that gave it."""

    sets: tuple[frozenset[int], ...]
    seed_index: tuple[int, ...]
    multipliers: tuple[int, ...]


def coset_family_scan(seeds, center: int = 0) -> ScannedFamily:
    """The groups center + b*S* by scanning every multiplier b = z^j, j < q^ell - 1.

    Each distinct group keeps the first (seed index, b) that produced it,
    seeds in order and multipliers in increasing j.  With center 0 these
    are the groups of coset_family.
    """
    seeds = list(seeds)
    ctx = seeds[0].ctx
    first_seen = {}
    for t, S in enumerate(seeds):
        star = S.star()
        for j in range(ctx.order - 1):
            b = ctx.exp(j)
            grp = frozenset(ctx.add(center, ctx.mul(b, x)) for x in star)
            first_seen.setdefault(grp, (t, b))
    sets = tuple(first_seen)
    return ScannedFamily(
        sets,
        tuple(first_seen[g][0] for g in sets),
        tuple(first_seen[g][1] for g in sets),
    )


def solve_sets(sets) -> hitting.HittingResult:
    """hitting._solve, the MILP core, over any list of nonempty sets.

    Duplicate sets are dropped, keeping first-seen order; each set is one
    row, its elements ascending.  min_hitting_set takes coset families
    only, so the tests of the solver on arbitrary families come here.
    """
    rows = [sorted(s) for s in dict.fromkeys(frozenset(s) for s in sets)]
    values = np.array([e for row in rows for e in row], np.int64)
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
    return hitting._solve(values, indptr)


def translated_sets(family, a: int) -> tuple[frozenset[int], ...]:
    """The groups around a: each group of a CosetFamily plus a, in family order."""
    blocks = [family.ctx.add_array(block, a) for block in family.blocks()]
    return tuple(frozenset(row) for block in blocks for row in block.tolist())


def group_witnesses(family) -> list[tuple[int, int]]:
    """(seed index, multiplier b) of each group of a CosetFamily, in family order.

    Group j of a kept seed t is z^j * S_t*, so its b is z^j.
    """
    ctx = family.ctx
    return [(t, ctx.exp(j)) for t, period in zip(family.kept, family.periods) for j in range(period)]


def trace_scan(ctx, x: int, m: int) -> int:
    """Tr(x) down to the order-p^m subfield by its definition.

    The sum of x^(p^(m*i)) for i < n/m, one pow per term.
    """
    acc = 0
    for i in range(ctx.n // m):
        acc = ctx.add(acc, ctx.pow(x, ctx.p ** (m * i)))
    return acc


def rref_over(ctx, m: int, rows):
    """Reduced row echelon form over F_{p^m} of coordinate rows; returns (rows, pivot cols).

    Entries are field elements of the order-p^m subfield, so plain field
    arithmetic does the scalar work.  The list form of FieldCtx.echelon.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        scale = ctx.inv(work[r][col])
        work[r] = [ctx.mul(v, scale) for v in work[r]]
        for i in range(len(work)):
            f = work[i][col]
            if i != r and f:
                work[i] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def from_coords(ctx, cs, m: int) -> int:
    """The element sum of cs[i] * z^i, inverse to FieldCtx.coords."""
    acc = 0
    for i, c in enumerate(cs):
        acc = ctx.add(acc, ctx.mul(c, ctx.exp(i)))
    return acc


def echelon_scan(ctx, elems, m: int):
    """FieldCtx.echelon through coordinate rows: coords, rref_over, from_coords."""
    rref, pivots = rref_over(ctx, m, [ctx.coords(x, m) for x in elems])
    return tuple(from_coords(ctx, r, m) for r in rref), pivots


def dual_basis_gram(ctx, ws, m: int):
    """Trace-dual basis of ws over F_{p^m} by inverting the Gram matrix.

    Row-reduces [gram | I] to [I | gram^-1], gram[i][j] = Tr(ws[i] * ws[j]);
    gram is singular exactly when ws is not an F_{p^m}-basis, which raises
    ValueError.
    """
    big_l = ctx.n // m
    ws = list(ws)
    if len(ws) != big_l:
        raise ValueError(f"need {big_l} basis elements, got {len(ws)}")
    gram = [[ctx.trace_to_subfield(ctx.mul(wi, wj), m) for wj in ws] for wi in ws]
    rows = [
        row + [1 if i == j else 0 for j in range(big_l)]
        for i, row in enumerate(gram)
    ]
    rref, pivots = rref_over(ctx, m, rows)
    if pivots != list(range(big_l)):
        raise ValueError("singular matrix over subfield")
    dual = []
    for j in range(big_l):
        acc = 0
        for a in range(big_l):
            acc = ctx.add(acc, ctx.mul(rref[a][big_l + j], ws[a]))
        dual.append(acc)
    return tuple(dual)


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


# Polynomial arithmetic over F_p on plain coefficient lists (low first), for
# the field-bootstrap references below.

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_mod(a, b, mod, p):
    n = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        prod[i] = 0
        for j in range(n):
            prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_pow_mod(a, e, mod, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        e >>= 1
    return result


def _poly_mod(a, b, p):
    r = _poly_trim(list(a))
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    while r and len(r) - 1 >= db:
        c = (r[-1] * lead_inv) % p
        shift = len(r) - 1 - db
        for j, bj in enumerate(b):
            r[shift + j] = (r[shift + j] - c * bj) % p
        _poly_trim(r)
    return r


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _digits(v: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        v, r = divmod(v, p)
        out.append(r)
    return out


def is_irreducible_rabin(coeffs, p: int) -> bool:
    """Rabin test of a monic f (low first) over F_p, on coefficient lists.

    x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for each prime r | n.
    """
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    mod = list(coeffs)
    frob = {0: [0, 1]}
    t = [0, 1]
    for k in range(1, n + 1):
        t = _poly_pow_mod(t, p, mod, p)
        frob[k] = list(t)
    if _poly_trim(list(frob[n])) != [0, 1]:
        return False
    for r in prime_factors(n):
        u = list(frob[n // r]) + [0, 0]
        u[1] = (u[1] - 1) % p  # u - x
        if len(_poly_gcd(mod, u, p)) != 1:
            return False
    return True


def first_primitive_scan(p: int, modulus) -> int:
    """The first g >= 2 in encoding order of order p^n - 1 modulo f, one at a time.

    g^((p^n - 1)/r) != 1 for each prime r | p^n - 1, by square-and-multiply
    on coefficient lists.
    """
    n = len(modulus) - 1
    group = p**n - 1
    if group == 1:
        return 1
    checks = [group // r for r in prime_factors(group)]
    for g in range(2, p**n):
        g_poly = _poly_trim(_digits(g, p, n))
        if all(_poly_pow_mod(g_poly, e, list(modulus), p) != [1] for e in checks):
            return g
    raise AssertionError("no primitive element")


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
    first group in coset_family order, found by coset_family_scan, that it
    misses, and that group's seed bandwidth is the repair's cost.
    """
    family = coset_family_scan(bundle.seeds, center=alpha_star)
    bws = [bundle.schemes[t].bandwidth for t in family.seed_index]
    universe = [x for x in bundle.ctx.elements() if x != alpha_star]
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


def naive_seed_scheme(S, k: int) -> SeedScheme:
    """Baseline scheme: u_i are constants forming an F_q-basis.

    Every helper then sees a full-rank evaluation set, so the bandwidth is
    (|S| - 1) * ell symbols, the full-download worst case.
    """
    ctx = S.ctx
    u = tuple((ctx.exp(i),) for i in range(S.ell))
    return SeedScheme(S, k, u)


def bandwidth(scheme) -> int:
    """Total F_q-symbols downloaded: sum of evaluation ranks over helpers.

    Recomputed from the evaluations; a SeedScheme's ``bandwidth`` is the
    same sum over its stored echelon bases.
    """
    ctx = scheme.ctx
    return sum(ctx.rank_over(ctx.s, scheme.evals_at(beta)) for beta in scheme.helpers)


def basis_coordinates(scheme, beta, basis):
    """Oracle: each evaluation of scheme at beta in coordinates of basis.

    rref_over checks that basis is an F_q-basis of span{scheme.evals_at(beta)}:
    its rows are independent and reduce to the evaluations' reduced rows.
    Row i of the result holds the c_ij with g_i(beta) = sum_j c_ij basis_j,
    read off the reduced system whose columns are basis and then g_i(beta).
    """
    ctx, m = scheme.ctx, scheme.ctx.s
    evals = scheme.evals_at(beta)
    reduced, _ = rref_over(ctx, m, [ctx.coords(v, m) for v in basis])
    assert len(reduced) == len(basis), f"the basis at {beta} is not independent"
    assert reduced == rref_over(ctx, m, [ctx.coords(v, m) for v in evals])[0], (
        f"the basis at {beta} spans another space than the evaluations"
    )
    width = len(basis)
    combination = []
    for v in evals:
        columns = [ctx.coords(b, m) for b in basis] + [ctx.coords(v, m)]
        solved, pivots = rref_over(ctx, m, [list(row) for row in zip(*columns)])
        assert pivots == list(range(width))
        combination.append([row[width] for row in solved])
    return combination


def payload_from_scratch(scheme, beta, f_beta, basis):
    """Oracle: traces of f_beta against basis, a checked basis of the span at beta."""
    ctx = scheme.ctx
    basis_coordinates(scheme, beta, basis)
    return HelperPayload(
        beta, tuple(ctx.trace_to_subfield(ctx.mul(xi, f_beta), ctx.s) for xi in basis)
    )


def weights_from_scratch(scheme, beta, basis):
    """Oracle: w_j = -sum_i c_ij dual_i for a dilated scheme and any basis at beta.

    c_ij are the coordinates of scheme.evals_at(beta) in basis
    (basis_coordinates) and dual is the trace-dual basis of the
    evaluations at the repaired point (dual_basis_gram).
    """
    ctx = scheme.ctx
    duals = dual_basis_gram(ctx, scheme.evals_at(scheme.alpha_star), ctx.s)
    combination = basis_coordinates(scheme, beta, basis)
    weights = []
    for j in range(len(basis)):
        acc = 0
        for row, dual in zip(combination, duals, strict=True):
            acc = ctx.add(acc, ctx.mul(row[j], dual))
        weights.append(ctx.neg(acc))
    return tuple(weights)


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
