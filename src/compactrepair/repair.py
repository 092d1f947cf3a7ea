"""Trace repair schemes for one symbol of a full-length RS(q^ell, k) code.

A seed scheme repairs f(0) with helpers S\\{0} for a subspace S containing
0 with |S| = q^delta > k >= 1 (see _check_k).  It stores ell polynomials
u_1..u_ell of degree below q^delta - k; the actual check polynomials are
g_i = u_i * M_S where
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
each helper sends the F_q-traces of its symbol against a basis of
span{g_i(helper)}, which costs rank-many F_q-symbols, and the replacement
node resolves f(0) through the trace-dual basis of {g_i(0)}.  Substituting
x -> (x - a*)/b turns the seed into a scheme for f(a*) with helpers
a* + b(S\\{0}) and identical bandwidth, which is what makes coset families
of a single seed cheap to deploy.

The substitution also means a dilated scheme evaluates at its helper
a* + b*x exactly as its seed does at x, and at a* as the seed does at 0.
So a seed holds every helper's basis and one recovery weight per basis
element, which folds the trace-dual basis at the repaired point into the
helper's coordinates in that basis, and a dilation keys those same data
by its own helpers, once, when built.  A helper payload is then one
lookup and its rank-many trace symbols, and recovery is one
bandwidth-long sum of symbol times weight.

For search_seed_scheme's closed form those data are a formula: helper x
of a seed with c the linear coefficient of L_S, y = x * c, has basis
beta_j / y and weights y * Lambda_j, where (beta, Lambda) are the helper
data of the point 1 of a seed with c = 1 (see _ClosedForm).  One (beta,
Lambda) per field context and r serves every seed with that u and every
load of it, and a seed derives its helpers' data from them on first use.
Any other u computes its helpers' data itself, one row reduction each.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .gf import FieldCtx, is_integer
from .subspaces import Subspace, span, subspace_polynomial


class SeedScheme:
    """Check-polynomial family repairing f(0) over the helpers S\\{0}.

    Immutable after construction, and full-rank by construction: u whose
    evaluations at 0 do not span F_q^ell raise ValueError, and k
    outside [1, |S|) raises before any closed form is built (_check_k).
    ``ctx`` is the subspace's field.  ``helper_data`` maps each helper x to
    its (basis, weights), see _helper_data.  For search_seed_scheme's
    closed form they are (beta_j / y, y * Lambda_j) with y = x * c (see
    _ClosedForm), derived by the first read and kept, so designs and loads
    derive none; any other u computes them when built.  ``scalars`` is the
    set of F_q elements, the values a payload symbol may take.
    ``bandwidth``, the total F_q-symbol download, is the sum of the
    helpers' ranks, (|S| - 1)(ell - r) for the closed form.
    """

    def __init__(self, subspace: Subspace, k: int, u):
        ctx = subspace.ctx
        if 0 not in subspace.members:
            raise ValueError(f"seed {sorted(subspace.members)} does not contain 0")
        size = len(subspace.members)
        self.k = k = _check_k(ctx, size, k)
        self.ctx = ctx
        self.subspace = subspace
        max_len = size - k  # u_i degree < q^delta - k
        u = tuple(tuple(c) for c in u)
        if len(u) != ctx.ell:
            raise ValueError(f"need {ctx.ell} polynomials, got {len(u)}")
        for ui in u:
            for c in ui:
                ctx._check(c, "u coefficient")
            if any(ui[max_len:]):
                raise ValueError(f"u polynomial degree must stay below {max_len}")
        self.u = u
        self._form = form = _closed_form_of(ctx, u, max_len)
        self._terms = _nonzero_terms(u) if form is None else form.terms
        # Value of M_S on S: -1/c with c the linear coefficient of L_S.
        self._log_c = ctx.log(subspace_polynomial(subspace)[0])
        self._on_support = ctx.neg(ctx.exp(-self._log_c))
        self.helpers = subspace.star()
        self.scalars = frozenset(ctx.subfield_elements(ctx.s))
        if form is not None:  # full-rank: the form checked its duals
            self._data = None  # derived on first read of helper_data
            self.bandwidth = len(self.helpers) * (ctx.ell - form.r)
        else:
            duals = _duals_at_zero(ctx, self.evals_at(0))
            self._data = {x: _helper_data(ctx, self.evals_at(x), duals) for x in self.helpers}
            self.bandwidth = sum(len(basis) for basis, _ in self._data.values())

    @property
    def helper_data(self) -> dict[int, tuple[tuple, tuple]]:
        """Each helper x's (basis, weights); a closed form derives them on first read.

        The closed form's are (beta_j / y, y * Lambda_j) with y = x * c.
        """
        if self._data is None:  # racing reads derive equal data
            log_y = self.ctx.log_array(self.helpers)[:, None] + self._log_c
            bases = self.ctx.exp_array(self._form.basis_logs - log_y).tolist()
            weights = self.ctx.exp_array(log_y + self._form.weight_logs).tolist()
            self._data = {x: (tuple(b), tuple(w)) for x, b, w in zip(self.helpers, bases, weights)}
        return self._data

    @property
    def seed(self) -> SeedScheme:
        """A seed is its own identity dilation."""
        return self

    def evals_at(self, x: int) -> list[int]:
        """[g_1(x), ..., g_ell(x)]; zero off the support S."""
        if x not in self.subspace.members:
            return [0] * self.ctx.ell
        return _evaluate(self.ctx, self._terms, x, self._on_support)

    def __repr__(self):
        return (
            f"SeedScheme(q={self.subspace.q}, dim={self.subspace.dim}, "
            f"k={self.k}, bandwidth={self.bandwidth})"
        )


class _RepairScheme:
    """Seed scheme dilated by b and translated to repair f(alpha_star); see dilate_translate.

    Stored as (seed, alpha_star, b); evaluations substitute lazily, so
    h_i(x) = g_i((x - alpha_star)/b).  ``helper_data`` maps each helper
    alpha_star + b*x to the seed's data at x, keyed once, when built.
    """

    def __init__(self, seed: SeedScheme, alpha_star: int, b: int):
        ctx = seed.ctx
        ctx._check(alpha_star, "alpha_star")
        ctx._check(b, "b")
        if b == 0:
            raise ValueError("dilation factor b must be nonzero")
        self.seed = seed
        self.ctx = ctx
        self.alpha_star = alpha_star
        self.b = b
        self.helper_data = {
            ctx.add(alpha_star, ctx.mul(b, x)): data for x, data in seed.helper_data.items()
        }
        self.helpers = tuple(sorted(self.helper_data))

    def evals_at(self, x: int) -> list[int]:
        return self.seed.evals_at(self.ctx.div(self.ctx.sub(x, self.alpha_star), self.b))

    def __repr__(self):
        return f"RepairScheme(alpha_star={self.alpha_star}, b={self.b})"


@dataclass(frozen=True)
class HelperPayload:
    """What one helper uploads: traces against the seed's basis of its span.

    symbols[j] = Tr(basis_j * f(beta)) for the basis of span{h_i(beta)}
    over F_q that the scheme's helper_data holds at beta, the seed's at
    the x with beta = a* + b*x: beta_j / (x * c) for search_seed_scheme's
    closed form (see _ClosedForm), the echelon basis for any other u.  So
    len(symbols) is the helper's rank, its share of the repair bandwidth.
    """

    beta: int
    symbols: tuple[int, ...]


def _helper_data(ctx: FieldCtx, evals, duals) -> tuple[tuple, tuple]:
    """(basis, weights) of one helper's evaluations g_1(x), ..., g_ell(x).

    basis is the reduced echelon basis of the evaluations over F_q, so
    g_i(x) = sum_j c_ij basis_j with c_ij the coordinate of g_i(x) at
    basis_j's pivot column.  The check identities give Tr(g_i(0) f(0)) =
    -sum_x sum_j c_ij Tr(basis_j f(x)), and expanding f(0) in the
    trace-dual basis of {g_i(0)} gives f(0) = sum_x sum_j Tr(basis_j f(x))
    * w_j with w_j = -sum_i c_ij dual_i.
    """
    basis, pivots = ctx.echelon(evals, ctx.s)
    coords = [ctx.coords(v, ctx.s) for v in evals]
    weights = []
    for p in pivots:
        acc = 0
        for c, dual in zip(coords, duals):
            acc = ctx.add(acc, ctx.mul(c[p], dual))
        weights.append(ctx.neg(acc))
    return basis, tuple(weights)


def _nonzero_terms(u) -> tuple:
    """Per u_i, its nonzero (degree, coefficient) terms: a closed form has few."""
    return tuple(tuple((t, c) for t, c in enumerate(ui) if c) for ui in u)


def _evaluate(ctx: FieldCtx, terms, x: int, scale: int) -> list[int]:
    """[scale * u_1(x), ..., scale * u_ell(x)], each u_i given by its terms."""
    values = []
    for ts in terms:
        acc = 0
        for t, c in ts:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, t)))
        values.append(ctx.mul(acc, scale))
    return values


def _duals_at_zero(ctx: FieldCtx, evals) -> tuple[int, ...]:
    """Trace-dual basis of the evaluations at 0, which exists iff they are full-rank."""
    try:
        return ctx.dual_basis(evals, ctx.s)
    except ValueError:  # evals are ell field elements, so the basis is singular
        raise ValueError("the check evaluations at 0 are not full-rank") from None


class _ClosedForm:
    """search_seed_scheme's u for one field and r, and the helper data they share.

    u_i(x) = L_W(z^i x)/x, so u_i(0) = c_L z^i with c_L the linear
    coefficient of L_W.  A seed S multiplies u by M_S = -1/c on S, c the
    linear coefficient of L_S, so at a helper x, with y = x c, its
    evaluations are -L_W(z^i x)/y: they span L_W(F)/y over F_q, of
    dimension ell - r.  Let (beta, Lambda) be the helper data of the point
    1 of the seed with c = 1 (_helper_data): beta is a basis of L_W(F), and
    -L_W(t) = sum_j Tr(rho_j t) beta_j for some rho_j, since t -> -L_W(t)
    is F_q-linear.  The duals at 0 of that seed are -1/c_L times the duals
    d_i of z^i, and sum_i Tr(rho_j z^i) d_i = rho_j, so Lambda_j =
    rho_j / c_L.  At helper x of S the evaluations have coordinates
    Tr(rho_j x z^i) in the basis beta_j / y, the duals at 0 are -c/c_L
    times the d_i, and so the weights are c x rho_j / c_L = y Lambda_j.

    Finding the one dual basis is the full-rank check of every seed with
    this u, whose evaluations at 0 are the ones here times the nonzero 1/c.
    beta and Lambda are kept as discrete logs, so a seed's helper data are
    two exp_array gathers.  Nothing here refers to the context.
    """

    def __init__(self, ctx: FieldCtx, r: int):
        q = ctx.q
        L = subspace_polynomial(span(ctx, q, [ctx.exp(j) for j in range(r)]))
        # L_W(z^i x)/x: the term a_j x^(q^j) of L_W becomes a_j z^(i q^j) x^(q^j - 1).
        u = [[0] * q**r for _ in range(ctx.ell)]
        for i, ui in enumerate(u):
            for j, a in enumerate(L):
                ui[q**j - 1] = ctx.mul(a, ctx.exp(i * q**j))
        self.u = tuple(map(tuple, u))
        self.r = r
        self.terms = _nonzero_terms(self.u)
        minus_one = ctx.neg(1)  # M_S on S when c = 1
        duals = _duals_at_zero(ctx, _evaluate(ctx, self.terms, 0, minus_one))
        beta, weights = _helper_data(ctx, _evaluate(ctx, self.terms, 1, minus_one), duals)
        self.basis_logs, self.weight_logs = ctx.log_array(beta), ctx.log_array(weights)


def _closed_form(ctx: FieldCtx, r: int) -> _ClosedForm:
    """The closed form of ctx and r, built on first use.

    ctx._derived keeps it under ("closed-form", r), so it goes with ctx.
    """
    key = ("closed-form", r)
    return ctx._derived.get(key) or ctx._derived.setdefault(key, _ClosedForm(ctx, r))


def _closed_form_of(ctx: FieldCtx, u: tuple, max_len: int) -> _ClosedForm | None:
    """The closed form whose u equals u, or None for any other u.

    The closed form for r has u_i of length q^r, the last coefficient
    nonzero, so only that r is tried, and only if q^r <= max_len.
    """
    size = len(u[0])
    for r in range(ctx.ell):
        if ctx.q**r == size <= max_len:
            form = _closed_form(ctx, r)
            return form if form.u == u else None
    return None


def _check_k(ctx: FieldCtx, size: int, k: int) -> int:
    """The one rule on k: an integer, 1 <= k < size for a scheme on size points; returns an int."""
    if not is_integer(k):
        raise ValueError(f"need an integer k, got k = {k!r}")
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"need 1 <= k < n = {ctx.order}, got k = {k}")
    if size <= k:
        raise ValueError(f"|S| = {size} must exceed k = {k} for a repair scheme")
    return k


def verify_full_rank(scheme) -> bool:
    """Full-Rank Condition: the evaluations at the repaired point span F_q^ell.

    A dilation evaluates at alpha_star as its seed does at 0.  SeedScheme
    accepts only full-rank seeds, so this restates a construction check;
    it stays in this module, not the package namespace, for perfbench's
    design-session, which checks every designed scheme with it.
    """
    ctx = scheme.ctx
    return ctx.rank_over(ctx.s, scheme.seed.evals_at(0)) == ctx.ell


def dilate_translate(seed: SeedScheme, alpha_star: int, b: int) -> _RepairScheme:
    """Scheme for f(alpha_star) with helpers alpha_star + b*(S\\{0})."""
    return _RepairScheme(seed, alpha_star, b)


def helper_payload(scheme: _RepairScheme, beta: int, f_beta: int) -> HelperPayload:
    """Payload the helper at beta sends, given its stored symbol f_beta.

    The basis is the one the scheme's helper_data holds at beta.
    """
    ctx = scheme.ctx
    ctx._check(beta, "beta")
    ctx._check(f_beta, "f_beta")
    data = scheme.helper_data.get(beta)
    if data is None:
        raise ValueError(f"{beta} is not a helper of this scheme")
    mq = ctx.s
    symbols = tuple(ctx.trace_to_subfield(ctx.mul(xi, f_beta), mq) for xi in data[0])
    return HelperPayload(beta, symbols)


def recover_symbol(scheme: _RepairScheme, payloads) -> int:
    """Resolve f(alpha_star) from one payload per helper.

    f(alpha_star) is the sum of every payload symbol times the weight the
    scheme's helper_data holds for it at its helper (see _helper_data): a
    dilated scheme's evaluations at a* are the seed's at 0.  A symbol
    outside F_q raises ValueError naming its helper.
    """
    ctx = scheme.ctx
    scalars = scheme.seed.scalars
    by_beta = {}  # beta -> (payload, its helper data, None off the helpers)
    for p in payloads:
        if p.beta in by_beta:
            raise ValueError(f"duplicate payload for helper {p.beta}")
        # 3.0 hashes as 3, so only a field element may look its data up.
        by_beta[p.beta] = p, scheme.helper_data.get(p.beta) if ctx.is_element(p.beta) else None
    extra = [b for b, (_, data) in by_beta.items() if data is None]
    if extra or len(by_beta) != len(scheme.helpers):
        # 0.0 == 0, so a helper counts as covered only by a field element.
        covered = {b for b, (_, data) in by_beta.items() if data is not None}
        missing = [b for b in scheme.helpers if b not in covered]
        raise ValueError(f"payloads must cover helpers exactly (missing {missing}, extra {extra})")
    result = 0
    for beta, (p, (_, weights)) in by_beta.items():
        if len(p.symbols) != len(weights):
            raise ValueError(
                f"payload for helper {beta} has {len(p.symbols)} symbols, "
                f"its rank is {len(weights)}"
            )
        if not scalars.issuperset(p.symbols):
            raise ValueError(
                f"payload for helper {beta} has a symbol outside F_{ctx.q}: "
                f"{sorted(set(p.symbols) - scalars)}"
            )
        for t, w in zip(p.symbols, weights):
            result = ctx.add(result, ctx.mul(t, w))
    return result


def search_seed_scheme(S: Subspace, k: int) -> SeedScheme:
    """Closed-form subspace-polynomial scheme (Dau & Milenkovic, ISIT 2017).

    Let r be the largest integer with q^r <= |S| - k (so r < delta), W =
    span_q(z^0, ..., z^(r-1)) for the field generator z, and L_W the
    subspace polynomial of W.  Then u_i(x) = L_W(z^i x)/x for i < ell.  L_W
    is q-linearized with nonzero linear coefficient c, so u_i has degree
    q^r - 1 < |S| - k and u_i(0) = c z^i: the scheme is full-rank.  At a
    helper x the u_i(x) span L_W(x * field)/x, the image of L_W scaled, of
    dimension ell - r; every helper sends ell - r symbols and the bandwidth
    is exactly (|S| - 1)(ell - r).  r = 0 gives the naive scheme.

    Nothing is searched: u and the helper data (beta, Lambda) for r come
    from the field's one _ClosedForm, built once per field and r, and
    helper x then has basis beta_j / y and weights y * Lambda_j, y = x * c
    for c the linear coefficient of L_S.  The name stays because
    perfbench's tracer looks the function up by it and the benchmark
    reports its repair.search_seed_scheme.* metrics.
    """
    _check_k(S.ctx, len(S.members), k)
    q = S.q
    r = 0
    while q ** (r + 1) <= len(S.members) - k:
        r += 1
    return SeedScheme(S, k, _closed_form(S.ctx, r).u)
