"""Trace repair schemes for one symbol of a full-length RS(q^ell, k) code.

A seed scheme repairs f(0) with helpers S\\{0} for a subspace S containing
0 with |S| = q^delta > k.  It stores ell polynomials u_1..u_ell of degree
below q^delta - k; the actual check polynomials are g_i = u_i * M_S where
M_S(x) = (x^(q^ell) - x) / L_S(x) and L_S is the subspace polynomial of S.
That factorization is never expanded: M_S vanishes off S by construction,
and on S it is the constant -1/c, c the linear coefficient of L_S (the
product of all nonzero differences inside the field is -1, and L_S is
linearized so its derivative is the constant c).  Each g_i has degree at
most q^ell - k - 1, i.e. is a check polynomial of the code, so
sum_{a in field} g_i(a) f(a) = 0 for every message polynomial f of degree
below k; the multiplier vector of the dual code is a nonzero constant for
full-length codes and is absorbed into the u_i.

A scheme is valid when the evaluations {g_i(0)} have full rank over F_q,
and SeedScheme accepts no other; repairing then works by trace accounting:
each helper sends the F_q-traces of its symbol against an echelon basis of
span{g_i(helper)}, which costs rank-many F_q-symbols, and the replacement
node resolves f(0) through the trace-dual basis of {g_i(0)}.  Substituting
x -> (x - a*)/b turns the seed into a scheme for f(a*) with helpers
a* + b(S\\{0}) and identical bandwidth, which is what makes coset families
of a single seed cheap to deploy.

The substitution also means a dilated scheme evaluates at helper beta
exactly as its seed does at the seed point y = (beta - a*)/b, and at a*
as the seed does at 0.  So each seed computes, once at construction, every
helper's echelon basis and one recovery weight per basis element, which
folds the trace-dual basis at the repaired point into the helper's pivot
coordinates, and every dilation shares them.  A helper payload is then
just its rank-many trace symbols, and recovery is one bandwidth-long sum
of symbol times weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionTooSmallError,
    MissingPayloadError,
    NotAHelperError,
    RankDeficientError,
    ZeroDilationError,
)
from .gf import FieldCtx
from .subspaces import Subspace, span, subspace_polynomial


class SeedScheme:
    """Check-polynomial family repairing f(0) over the helpers S\\{0}.

    Immutable after construction, and full-rank by construction: u whose
    evaluations at 0 do not span F_q^ell raise RankDeficientError.
    ``helper_data`` maps each helper x to its (basis, weights), see
    _helper_data; ``scalars`` is the set of F_q elements, the values a
    payload symbol may take.  ``bandwidth``, the total F_q-symbol download,
    is the sum of the helpers' ranks.
    """

    def __init__(self, ctx: FieldCtx, subspace: Subspace, k: int, u):
        if 0 not in subspace.members:
            raise ValueError("seed subspace must contain 0")
        size = len(subspace.members)
        if size <= k:
            raise DimensionTooSmallError(
                f"|S| = {size} must exceed k = {k} for a repair scheme"
            )
        self.ctx = ctx
        self.subspace = subspace
        self.k = k
        self.mq = subspace.subfield_m
        self.ell = subspace.ell
        max_len = size - k  # u_i degree < q^delta - k
        u = tuple(tuple(c) for c in u)
        if len(u) != self.ell:
            raise ValueError(f"need {self.ell} polynomials, got {len(u)}")
        for ui in u:
            if not all(0 <= c < ctx.order for c in ui):
                raise ValueError(
                    f"u coefficients must be field elements in [0, {ctx.order})"
                )
            trimmed = len(ui)
            while trimmed and ui[trimmed - 1] == 0:
                trimmed -= 1
            if trimmed > max_len:
                raise ValueError(
                    f"u polynomial degree must stay below {max_len}"
                )
        self.u = u
        # u_i's nonzero (degree, coefficient) terms: a closed form has few
        self._terms = tuple(tuple((t, c) for t, c in enumerate(ui) if c) for ui in u)
        # Value of M_S on S: -1/c with c the linear coefficient of L_S.
        c = subspace_polynomial(subspace)[0]
        self._on_support = ctx.neg(ctx.inv(c))
        self.helpers = subspace.star()
        self.scalars = frozenset(ctx.subfield_elements(self.mq))
        self.repaired_point = 0
        try:  # the trace-dual basis exists exactly when the evaluations are full-rank
            duals = ctx.dual_basis(self.evals_at(0), self.mq)
        except RankDeficientError:
            raise RankDeficientError("the check evaluations at 0 are not full-rank") from None
        self.helper_data = {
            x: _helper_data(ctx, self.mq, self.evals_at(x), duals)
            for x in self.helpers
        }
        self.bandwidth = sum(len(basis) for basis, _ in self.helper_data.values())

    @property
    def seed(self) -> SeedScheme:
        """A seed is its own identity dilation."""
        return self

    def seed_point(self, x: int) -> int:
        """The point of the seed that x maps to: x itself."""
        return x

    def evals_at(self, x: int) -> list[int]:
        """[g_1(x), ..., g_ell(x)]; zero off the support S."""
        ctx = self.ctx
        if x not in self.subspace.members:
            return [0] * self.ell
        values = []
        for terms in self._terms:
            acc = 0
            for t, c in terms:
                acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, t)))
            values.append(ctx.mul(acc, self._on_support))
        return values

    def __repr__(self):
        return (
            f"SeedScheme(q={self.subspace.q}, dim={self.subspace.dim}, "
            f"k={self.k}, bandwidth={self.bandwidth})"
        )


class RepairScheme:
    """Seed scheme dilated by b and translated to repair f(alpha_star).

    Stored as (seed, alpha_star, b); evaluations substitute lazily, so
    h_i(x) = g_i(seed_point(x)) with seed_point(x) = (x - alpha_star)/b.
    """

    def __init__(self, seed: SeedScheme, alpha_star: int, b: int):
        n = seed.ctx.order
        if not (0 <= alpha_star < n and 0 <= b < n):
            raise ValueError(f"alpha_star {alpha_star} and b {b} must be field elements < {n}")
        if b == 0:
            raise ZeroDilationError("dilation factor b must be nonzero")
        self.seed = seed
        self.ctx = seed.ctx
        self.alpha_star = alpha_star
        self.b = b
        self._b_inv = seed.ctx.inv(b)
        self.mq = seed.mq
        self.ell = seed.ell
        ctx = seed.ctx
        self.helpers = tuple(
            sorted(ctx.add(alpha_star, ctx.mul(b, x)) for x in seed.helpers)
        )
        self.repaired_point = alpha_star

    def seed_point(self, x: int) -> int:
        """The point of the seed that x maps to: (x - alpha_star)/b."""
        ctx = self.ctx
        return ctx.mul(ctx.sub(x, self.alpha_star), self._b_inv)

    def evals_at(self, x: int) -> list[int]:
        return self.seed.evals_at(self.seed_point(x))

    def __repr__(self):
        return f"RepairScheme(alpha_star={self.alpha_star}, b={self.b})"


@dataclass(frozen=True)
class HelperPayload:
    """What one helper uploads: traces against an echelon basis of its span.

    symbols[j] = Tr(basis_j * f(beta)) for the echelon basis of
    span{h_i(beta)} over F_q, so len(symbols) is the helper's rank, its
    share of the repair bandwidth.
    """

    beta: int
    symbols: tuple[int, ...]


def _helper_data(ctx: FieldCtx, mq: int, evals, duals) -> tuple[tuple, tuple]:
    """(basis, weights) of one helper's evaluations g_1(x), ..., g_ell(x).

    basis is the reduced echelon basis of the evaluations over F_q, so
    g_i(x) = sum_j c_ij basis_j with c_ij the coordinate of g_i(x) at
    basis_j's pivot column.  The check identities give Tr(g_i(0) f(0)) =
    -sum_x sum_j c_ij Tr(basis_j f(x)), and expanding f(0) in the
    trace-dual basis of {g_i(0)} gives f(0) = sum_x sum_j Tr(basis_j f(x))
    * w_j with w_j = -sum_i c_ij dual_i.
    """
    basis, pivots = ctx.echelon(evals, mq)
    coords = [ctx.coords(v, mq) for v in evals]
    weights = []
    for p in pivots:
        acc = 0
        for c, dual in zip(coords, duals):
            acc = ctx.add(acc, ctx.mul(c[p], dual))
        weights.append(ctx.neg(acc))
    return basis, tuple(weights)


def verify_full_rank(scheme) -> bool:
    """Full-Rank Condition: the evaluations at the repaired point span F_q^ell."""
    evals = scheme.evals_at(scheme.repaired_point)
    return scheme.ctx.rank_over(scheme.mq, evals) == scheme.ell


def dilate_translate(seed: SeedScheme, alpha_star: int, b: int) -> RepairScheme:
    """Scheme for f(alpha_star) with helpers alpha_star + b*(S\\{0})."""
    return RepairScheme(seed, alpha_star, b)


def helper_payload(scheme: RepairScheme, beta: int, f_beta: int) -> HelperPayload:
    """Payload the helper at beta sends, given its stored symbol f_beta.

    The echelon data come from the seed at beta's seed point.
    """
    ctx = scheme.ctx
    if not (0 <= beta < ctx.order and 0 <= f_beta < ctx.order):
        raise ValueError(f"beta {beta} and f_beta {f_beta} must be field elements < {ctx.order}")
    data = scheme.seed.helper_data.get(scheme.seed_point(beta))
    if data is None:
        raise NotAHelperError(f"{beta} is not a helper of this scheme")
    mq = scheme.mq
    symbols = tuple(ctx.trace_to_subfield(ctx.mul(xi, f_beta), mq) for xi in data[0])
    return HelperPayload(beta, symbols)


def recover_symbol(scheme: RepairScheme, payloads) -> int:
    """Resolve f(alpha_star) from one payload per helper.

    f(alpha_star) is the sum of every payload symbol times the weight the
    seed stores for it at the helper's seed point (see _helper_data): a
    dilated scheme's evaluations at a* are the seed's at 0.  A symbol
    outside F_q raises ValueError naming its helper.
    """
    ctx = scheme.ctx
    seed = scheme.seed
    by_beta = {}  # beta -> (payload, its helper data, None off the helpers)
    for p in payloads:
        if p.beta in by_beta:
            raise ValueError(f"duplicate payload for helper {p.beta}")
        point = scheme.seed_point(p.beta) if 0 <= p.beta < ctx.order else None
        by_beta[p.beta] = p, seed.helper_data.get(point)
    extra = [b for b, (_, data) in by_beta.items() if data is None]
    if extra or len(by_beta) != len(scheme.helpers):
        missing = [b for b in scheme.helpers if b not in by_beta]
        raise MissingPayloadError(
            f"payloads must cover helpers exactly (missing {missing}, extra {extra})"
        )
    result = 0
    for beta, (p, (_, weights)) in by_beta.items():
        if len(p.symbols) != len(weights):
            raise ValueError(
                f"payload for helper {beta} has {len(p.symbols)} symbols, "
                f"its rank is {len(weights)}"
            )
        if not seed.scalars.issuperset(p.symbols):
            raise ValueError(
                f"payload for helper {beta} has a symbol outside F_{seed.subspace.q}: "
                f"{sorted(set(p.symbols) - seed.scalars)}"
            )
        for t, w in zip(p.symbols, weights):
            result = ctx.add(result, ctx.mul(t, w))
    return result


def search_seed_scheme(ctx: FieldCtx, S: Subspace, k: int) -> SeedScheme:
    """Closed-form subspace-polynomial scheme (Dau & Milenkovic, ISIT 2017).

    Let r be the largest integer with q^r <= |S| - k (so r < delta), W =
    span_q(z^0, ..., z^(r-1)) for the field generator z, and L_W the
    subspace polynomial of W.  Then u_i(x) = L_W(z^i x)/x for i < ell.  L_W
    is q-linearized with nonzero linear coefficient c, so u_i has degree
    q^r - 1 < |S| - k and u_i(0) = c z^i: the scheme is full-rank.  At a
    helper x the u_i(x) span L_W(x * field)/x, the image of L_W scaled, of
    dimension ell - r; every helper sends ell - r symbols and the bandwidth
    is exactly (|S| - 1)(ell - r).  r = 0 gives the naive scheme.

    Nothing is searched.  The name stays because perfbench's tracer looks
    the function up by it and the benchmark reports its
    repair.search_seed_scheme.* metrics.
    """
    q = S.q
    r = 0
    while q ** (r + 1) <= len(S.members) - k:
        r += 1
    L = subspace_polynomial(span(ctx, q, [ctx.exp(j) for j in range(r)]))
    # L_W(z^i x)/x: the term a_j x^(q^j) of L_W becomes a_j z^(i q^j) x^(q^j - 1).
    u = []
    for i in range(S.ell):
        ui = [0] * q**r
        for j, a in enumerate(L):
            ui[q**j - 1] = ctx.mul(a, ctx.exp(i * q**j))
        u.append(ui)
    return SeedScheme(ctx, S, k, u)
