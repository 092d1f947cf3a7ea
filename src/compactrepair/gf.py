"""Exact arithmetic in small extension fields GF(p^(s*ell)).

Elements are integers in [0, p^(s*ell)) encoding the coefficient vector of
a residue polynomial over F_p, least significant digit = constant term
(for p = 2 this is the usual bit-vector encoding).  Arithmetic is O(1)
table lookups: log/antilog tables of a verified primitive element, filled by
doubling with numpy, and for p > 2 a Zech-logarithm table for addition.

A FieldCtx fixes one modulus and one primitive generator z at construction;
its arithmetic never changes afterwards and instances are safe to share
across threads.  The designated base subfield is F_q with q = p^s.  For any
subfield order p^m with m | s*ell the context also exposes:

  * the subfield element set (fixed points of x -> x^(p^m)),
  * the trace map down to that subfield,
  * coordinates relative to the power basis 1, z, ..., z^(L-1), L = s*ell/m:
    coordinate i of x is Tr(x * d_i) for the trace-dual basis d,
  * reduced row echelon form and rank of element lists over the subfield.

A subfield's first use builds its one cache entry: the element set, the
trace of every element by F_p-linear doubling (like the exp table) and the
dual of the power basis.  A trace is then one lookup; racing builds agree.

The field order is capped at 2^20 so tables stay desk-sized.

Moduli: GF(16) is pinned to x^4 + x + 1 (the arithmetic every golden value
in this package assumes); other fields take the first monic irreducible in
coefficient-encoding order unless an explicit modulus is supplied.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import (
    FieldTooLargeError,
    InvalidSubfieldError,
    InvariantError,
    NonPrimeError,
    RankDeficientError,
    ReducibleModulusError,
)

# An element of GF(p^(s*ell)): the integer index of its F_p coefficient vector.
FElem = int

MAX_FIELD_ORDER = 1 << 20

# Pinned default moduli, keyed by (p, s*ell), coefficients low degree first.
DEFAULT_MODULI = {
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
}


def prime_factors(v: int) -> list[int]:
    """Distinct prime factors of v, ascending."""
    out = []
    f = 2
    while f * f <= v:
        if v % f == 0:
            out.append(f)
            while v % f == 0:
                v //= f
        f += 1 if f == 2 else 2
    if v > 1:
        out.append(v)
    return out


def _digits(v: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        v, r = divmod(v, p)
        out.append(r)
    return out


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


# ----------------------------------------------------------------------
# Polynomial arithmetic over F_p on plain coefficient lists (low first).
# Used only while bootstrapping a FieldCtx (irreducibility test, generator
# search, the doubling matrices); everything afterwards uses the tables.
# ----------------------------------------------------------------------

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


def _is_irreducible(coeffs, p: int) -> bool:
    """Rabin test: x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    mod = list(coeffs)
    x = [0, 1]
    frob = {0: list(x)}
    t = list(x)
    for k in range(1, n + 1):
        t = _poly_pow_mod(t, p, mod, p)
        frob[k] = list(t)
    if _poly_trim(list(frob[n])) != [0, 1]:
        return False
    for r in prime_factors(n):
        u = list(frob[n // r])
        # u - x
        while len(u) < 2:
            u.append(0)
        u[1] = (u[1] - 1) % p
        g = _poly_gcd(mod, u, p)
        if len(g) != 1:
            return False
    return True


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p in encoding order."""
    if n == 1:
        return (0, 1)
    for enc in range(1, p**n):
        coeffs = _digits(enc, p, n) + [1]
        if coeffs[0] == 0:
            continue
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible of degree {n} over F_{p}")  # unreachable


class FieldCtx:
    """Immutable description of GF(p^(s*ell)) with its subfield chain.

    Build instances with field_new(); all operations are pure functions of
    the context and their integer-encoded arguments.
    """

    def __init__(self, p: int, s: int, ell: int, modulus=None):
        if s < 1 or ell < 1:
            raise ValueError("s and ell must be positive")
        n = s * ell
        # Bound the order before testing p for primality or computing p**n:
        # both take time growing with p and n, and p^n >= 2^n for p >= 2.
        if p >= 2 and (
            p > MAX_FIELD_ORDER
            or n >= MAX_FIELD_ORDER.bit_length()
            or p**n > MAX_FIELD_ORDER
        ):
            raise FieldTooLargeError(
                f"field order {p}^{n} exceeds the cap of 2^20"
            )
        if prime_factors(p) != [p]:
            raise NonPrimeError(f"p = {p} is not prime")
        order = p**n
        self.p = p
        self.s = s
        self.ell = ell
        self.n = n
        self.order = order
        self.q = p**s

        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, n)) or find_irreducible(p, n)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != n + 1:
            raise ValueError(
                f"modulus must have degree {n} ({n + 1} coefficients, low first)"
            )
        if any(c < 0 or c >= p for c in modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible(list(modulus), p):
            raise ReducibleModulusError(
                f"modulus {modulus} is reducible over F_{p}"
            )
        self.modulus = modulus
        self._mod_int = _undigits(list(modulus), p) if p == 2 else None

        if p == 2:
            self.add, self.neg = operator.xor, operator.pos  # -x = x
        else:
            self.add, self.neg = self._add_zech, self._neg_zech
            self._half = (order - 1) // 2

        self.generator = self._find_generator()
        self._build_tables()

        self._subfields: dict[int, tuple] = {}  # m -> (elements, traces, power-basis dual)

    # -- bootstrap multiplication (pre-table) ---------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        if self.p == 2:
            res = 0
            top = 1 << self.n
            mm = self._mod_int
            while b:
                if b & 1:
                    res ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mm
            return res
        p, n = self.p, self.n
        prod = _poly_mul_mod(_digits(a, p, n), _digits(b, p, n), self.modulus, p)
        return _undigits(prod, p)

    def _pow_poly(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_poly(result, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return result

    def _find_generator(self) -> int:
        order = self.order
        if order == 2:
            return 1
        group = order - 1
        checks = [group // f for f in prime_factors(group)]
        for g in range(2, order):
            if all(self._pow_poly(g, e) != 1 for e in checks):
                return g
        raise RuntimeError("no primitive element found")  # unreachable

    def _build_tables(self):
        """exp and log tables by doubling, and for p > 2 the Zech table.

        Row t of powers is z^t: its encoding for p = 2, else its digit vector.
        Rows [2^t, 2^(t+1)) are rows [0, 2^t) times c = z^(2^t), an F_p-linear
        map with rows x^i * c: n masked XORs for p = 2, else a product mod p.
        """
        p, n, order, g = self.p, self.n, self.order, self.generator
        size = order - 1
        dtype = np.uint32 if p == 2 else np.min_scalar_type(p - 1)
        powers = np.zeros(size if p == 2 else (size, n), dtype)
        powers.flat[0] = 1
        c, done = g, 1
        while done < size:
            rows = min(done, size - done)
            cols = [self._mul_poly(p**i, c) for i in range(n)]  # x^i * c
            if p == 2:
                for i, col in enumerate(cols):
                    powers[done : done + rows] ^= (powers[:rows] >> i & 1) * col
            else:
                wide = np.min_scalar_type(n * (p - 1) ** 2)  # holds a row's dot product
                m = np.array([_digits(col, p, n) for col in cols], wide)
                powers[done : done + rows] = powers[:rows] @ m % p
            done, c = done + rows, self._mul_poly(c, c)
        exp = powers
        if p != 2:
            exp = np.zeros(size, np.uint32)
            for digit in powers.T[::-1]:
                exp = exp * p + digit
        del powers
        log = np.full(order, -1, np.int32)
        log[exp] = np.arange(size, dtype=np.int32)
        if self._mul_poly(int(exp[-1]), g) != 1 or (log[1:] < 0).any():
            raise InvariantError("generator failed the order check")
        # pool[v + 1] is the int v: the tables share one set of int objects.
        pool = np.arange(-1, order, dtype=object)
        self._log = pool[log + 1].tolist()
        if p != 2:  # zech[t] = log(1 + z^t): the lowest digit of z^t plus one, mod p
            self._zech = pool[log[exp + np.where(exp % p == p - 1, 1 - p, 1)] + 1].tolist()
        self._exp = pool[exp + 1].tolist() * 2
        self._exp_table = exp
        self._log_table = log

    # -- core arithmetic -------------------------------------------------

    def _add_zech(self, x: int, y: int) -> int:
        """z^a + z^b = z^(a + zech[b - a]); a negative b - a indexes from the end."""
        if not (x and y):
            return x or y
        a = self._log[x]
        d = self._zech[self._log[y] - a]
        return self._exp[a + d] if d >= 0 else 0

    def _neg_zech(self, x: int) -> int:
        """-1 = z^((order - 1)/2), so -x shifts the log by half the group."""
        return self._exp[self._log[x] + self._half] if x else 0

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("zero to a negative power")
        return self._exp[(self._log[x] * e) % (self.order - 1)]

    def exp(self, j: int) -> int:
        """The power z^j of the generator."""
        return self._exp[j % (self.order - 1)]

    def log(self, x: int) -> int:
        if x == 0:
            raise ValueError("discrete log of zero is undefined")
        return self._log[x]

    def exp_array(self, logs) -> np.ndarray:
        """z^j for every j of an integer array, as an array of the same shape."""
        return self._exp_table[np.asarray(logs) % (self.order - 1)]

    def log_array(self, xs) -> np.ndarray:
        """Discrete logs of an integer array of nonzero elements, same shape."""
        logs = self._log_table[np.asarray(xs)]
        if (logs < 0).any():
            raise ValueError("discrete log of zero is undefined")
        return logs

    def add_array(self, xs, c) -> np.ndarray:
        """x + c elementwise, for an integer array xs and an int or array c.

        xs and c broadcast together.  Addition is digit-wise mod p on the
        coefficient encoding: an XOR for p = 2, one array pass per digit
        otherwise.
        """
        x = np.asarray(xs, np.intp)
        if self.p == 2:
            return x ^ c
        out, weight = np.zeros(np.broadcast_shapes(x.shape, np.shape(c)), np.intp), 1
        while weight < self.order:
            out += (x // weight + c // weight) % self.p * weight
            weight *= self.p
        return out

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    # -- polynomials over the field ---------------------------------------

    def poly_eval(self, coeffs, x: int) -> int:
        """Sum of c * x^t over the nonzero coefficients; coeffs low degree first.

        Zero coefficients cost nothing, so a sparse polynomial such as a
        closed-form scheme's u_i (nonzero only at x^(q^j - 1)) evaluates in
        its number of terms, not its degree.  pow(0, 0) = 1 covers x = 0.
        """
        acc = 0
        for t, c in enumerate(coeffs):
            if c:
                acc = self.add(acc, self.mul(c, self.pow(x, t)))
        return acc

    # -- subfields ---------------------------------------------------------

    def subfield_degree(self, q_order: int) -> int:
        """m such that q_order = p^m and F_{p^m} lives inside, else error."""
        for m in range(1, self.n + 1):
            if self.n % m == 0 and self.p**m == q_order:
                return m
        raise InvalidSubfieldError(
            f"{q_order} is not the order of a subfield of GF({self.p}^{self.n})"
        )

    def _build_subfield(self, m: int) -> tuple:
        """Build and keep the order-p^m subfield's entry of _subfields.

        Tr is F_p-linear, so rows [d*p^k, (d+1)*p^k) of the trace list are
        rows [0, p^k) plus d*Tr(x^k), x^k being the digit basis element p^k.
        """
        if self.n % m:
            raise InvalidSubfieldError(f"m = {m} does not divide {self.n}")
        p, n, order = self.p, self.n, self.order
        step = (order - 1) // (p**m - 1)
        elements = (0, *np.sort(self._exp_table[::step]).tolist())
        trace = np.zeros(order, np.intp)
        for k in range(n):
            size, t = p**k, 0
            for i in range(n // m):
                t = self.add(t, self.pow(size, p ** (m * i)))
            for d in range(1, p):
                trace[d * size : (d + 1) * size] = self.add_array(trace[:size], self.mul(d, t))
        trace = trace.tolist()
        basis = [self._exp[i] for i in range(n // m)]
        return self._subfields.setdefault(m, (elements, trace, self._dual_basis(basis, m, trace)))

    def subfield_elements(self, m: int) -> tuple[int, ...]:
        """All elements of the order-p^m subfield, sorted ascending."""
        return (self._subfields.get(m) or self._build_subfield(m))[0]

    def trace_to_subfield(self, x: int, m: int) -> int:
        """Sum of x^(p^(m*i)) for i < n/m; lands in the order-p^m subfield."""
        return (self._subfields.get(m) or self._build_subfield(m))[1][x]

    # -- linear algebra over a subfield -------------------------------------
    # Entries of all row vectors below are field elements constrained to the
    # order-p^m subfield, so plain field arithmetic performs the scalar work.

    def dual_basis(self, ws, m: int):
        """Trace-dual basis of ws over F_{p^m}: Tr(ws[i]*dual[j]) = delta_ij."""
        return self._dual_basis(ws, m, (self._subfields.get(m) or self._build_subfield(m))[1])

    def _dual_basis(self, ws, m: int, trace: list[int]):
        big_l = self.n // m
        ws = list(ws)
        if len(ws) != big_l:
            raise ValueError(f"need {big_l} basis elements, got {len(ws)}")
        gram = [[trace[self.mul(wi, wj)] for wj in ws] for wi in ws]
        # Row-reduce [gram | I] to [I | gram^-1]; gram is singular exactly
        # when ws is not an F_{p^m}-basis.
        rows = [
            row + [1 if i == j else 0 for j in range(big_l)]
            for i, row in enumerate(gram)
        ]
        rref, pivots = self.rref_over(m, rows)
        if pivots != list(range(big_l)):
            raise RankDeficientError("singular matrix over subfield")
        dual = []
        for j in range(big_l):
            acc = 0
            for a in range(big_l):
                acc = self.add(acc, self.mul(rref[a][big_l + j], ws[a]))
            dual.append(acc)
        return tuple(dual)

    def coords(self, x: int, m: int) -> tuple[int, ...]:
        """Coordinates of x over F_{p^m} in the power basis of the generator."""
        _, trace, dual = self._subfields.get(m) or self._build_subfield(m)
        if x == 0:
            return (0,) * len(dual)
        exp, log, lx = self._exp, self._log, self._log[x]
        return tuple([trace[exp[lx + log[d]]] for d in dual])

    def from_coords(self, cs, m: int) -> int:
        """The element sum of cs[i] * z^i, inverse to coords."""
        acc = 0
        for i, c in enumerate(cs):
            acc = self.add(acc, self.mul(c, self._exp[i]))
        return acc

    def rref_over(self, m: int, rows):
        """Reduced row echelon form over F_{p^m}; returns (rows, pivot cols)."""
        work = [list(r) for r in rows]
        ncols = len(work[0]) if work else 0
        pivots = []
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            scale = self.inv(work[r][col])
            work[r] = [self.mul(v, scale) for v in work[r]]
            for i in range(len(work)):
                f = work[i][col]
                if i != r and f:
                    work[i] = [self.sub(v, self.mul(f, w)) for v, w in zip(work[i], work[r])]
            pivots.append(col)
            r += 1
        return work[:r], pivots

    def rank_over(self, m: int, elems) -> int:
        """F_{p^m}-rank of a list of field elements."""
        rows = [list(self.coords(x, m)) for x in elems]
        _, pivots = self.rref_over(m, rows)
        return len(pivots)

    def __repr__(self):
        return (
            f"FieldCtx(p={self.p}, s={self.s}, ell={self.ell}, "
            f"order={self.order}, modulus={self.modulus})"
        )


def field_new(p: int, s: int, ell: int, modulus=None) -> FieldCtx:
    """Construct GF(p^(s*ell)) with verified generator and filled tables."""
    return FieldCtx(p, s, ell, modulus)
