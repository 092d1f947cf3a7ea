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
  * one row reduction over the subfield whose rows stay field elements
    (_echelon): the canonical basis, pivots and rank of a span, and the
    trace-dual basis of a basis.

A subfield's first use builds its one cache entry: the element set, the
trace of every element by F_p-linear doubling (like the exp table) and the
dual of the power basis (by _echelon).  A trace is then one lookup; racing
builds agree.

The field order is capped at 2^20 so tables stay desk-sized.

field_new keeps one shared context per field per process: a repeated call
with the same arguments, or one naming the modulus that a default build
chose, returns the context already built, with the subfield tables filled
so far.  The cache holds contexts of at most MAX_FIELD_ORDER elements in
total and drops the oldest first; FieldCtx(...) called directly is never
cached.

Moduli: GF(16) is pinned to x^4 + x + 1 (the arithmetic every golden value
in this package assumes); other fields take the first monic irreducible in
coefficient-encoding order unless an explicit modulus is supplied.

Bootstrap, done once per context with no per-coefficient Python loop:

  * irreducibility: Ben-Or's test, gcd(x^(p^k) - x, f) = 1 for k <= n/2.
    For p = 2 it runs on int bit vectors and stops at the first k that
    fails; for odd p it tests a batch of candidate moduli at once in numpy
    (one unit test of the product of the x^(p^k) - x).  An explicit
    modulus is tested; a searched or pinned one is not tested again.
  * generator: the first element in encoding order whose order is
    p^n - 1, by square-and-multiply to (p^n - 1)/r for each prime r.  For
    p = 2 candidates go one at a time on ints; for odd p in numpy batches
    of digit rows, multiplied through a tensor T with row i*n + j the
    digits of x^(i+j) mod f.
  * tables: z^0 .. z^(p^n - 1) by doubling (see _build_tables), then one
    Python int object per value shared by the exp, log and Zech lists.
"""

from __future__ import annotations

import functools
import operator
import threading

import numpy as np

from .errors import (
    FieldTooLargeError,
    InvalidSubfieldError,
    InvariantError,
    NonPrimeError,
    RankDeficientError,
    ReducibleModulusError,
)

MAX_FIELD_ORDER = 1 << 20

# Most candidates (moduli or generators) one numpy batch tests, for odd p.
_BATCH = 1024

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


def _digit_array(values, p: int, width: int) -> np.ndarray:
    """Base-p digits of each int in values, lowest first, in a trailing axis."""
    return np.asarray(values, np.int64)[..., None] // p ** np.arange(width) % p


def _power(mul, a, e: int, one):
    """a^e by square-and-multiply under the product mul, with identity one."""
    out = one
    while e:
        if e & 1:
            out = mul(out, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return out


# ----------------------------------------------------------------------
# Residue arithmetic modulo a monic f of degree n over F_p, used only while
# bootstrapping a FieldCtx (irreducibility test, generator search, doubling
# matrices); everything afterwards uses the tables.  For p = 2 a residue is
# an int bit vector; otherwise it is a row of n digits, and rows multiply in
# numpy batches through a tensor built from f (or one tensor per f).
# ----------------------------------------------------------------------

def _gf2_mulmod(a: int, b: int, f: int, n: int) -> int:
    """Carry-less a * b modulo f, for a, b < 2^n and f of degree n."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= f
    return out


def _gf2_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two polynomials over F_2 as bit vectors."""
    while b:
        while (shift := a.bit_length() - b.bit_length()) >= 0:
            a ^= b << shift
        a, b = b, a
    return a


def _gf2_irreducible(f: int, n: int) -> bool:
    """Ben-Or test of f of degree n over F_2 (see _irreducible_rows)."""
    u = 2  # x
    for _ in range(n // 2):
        u = _gf2_mulmod(u, u, f, n)
        if _gf2_gcd(f, u ^ 2) != 1:
            return False
    return True


def _mul_tensors(moduli: np.ndarray, p: int) -> np.ndarray:
    """Per modulus f, T with row i*n + j the digits of x^(i+j) mod f.

    moduli is a (count, n + 1) array of monic f, low first; the product of
    digit rows a and b modulo f is outer(a, b).ravel() @ T mod p.
    """
    count, n = moduli.shape[0], moduli.shape[1] - 1
    rows = np.zeros((count, 2 * n - 1, n), np.int64)
    rows[:, :n] = np.eye(n, dtype=np.int64)
    for k in range(n, 2 * n - 1):  # x^k = x * x^(k-1), and x^n = -(f - x^n)
        rows[:, k, 1:] = rows[:, k - 1, :-1]
        rows[:, k] = (rows[:, k] - rows[:, k - 1, -1:] * moduli[:, :n]) % p
    i = np.arange(n)
    return rows[:, (i[:, None] + i).ravel()]


def _mul_rows(a: np.ndarray, b: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """Row-wise products of two (count, n) digit arrays under tensors t.

    t holds one tensor per row, or one for all.  int64 holds each sum of
    n^2 terms below (p-1)^3 for every field under the order cap: n = 1
    leaves (2^20)^3, and n >= 2 needs p < 2^10.
    """
    count, n = a.shape
    return (np.reshape(a[:, :, None] * b[:, None, :], (count, 1, n * n)) @ t)[:, 0] % p


def _pow_rows(a: np.ndarray, e: int, t: np.ndarray, p: int) -> np.ndarray:
    """Row-wise a^e for a (count, n) digit array."""
    one = np.zeros_like(a)
    one[:, 0] = 1
    return _power(lambda u, v: _mul_rows(u, v, t, p), a, e, one)


def _mul_matrices(c: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """Per row c, the n x n matrix with row j the digits of x^j * c.

    A digit row times that matrix is the row times c.
    """
    count, n = c.shape
    return (c[:, None, :] @ t.reshape(-1, n, n * n)).reshape(count, n, n) % p


def _invertible(m: np.ndarray, p: int) -> np.ndarray:
    """Whether each of a stack of square digit matrices is invertible over F_p.

    Per column, a row with a nonzero entry there is the pivot: every row is
    scaled by the pivot entry and has its own entry times the pivot row
    subtracted, and the pivot row is then dropped (zeroed).  That keeps the
    rank of the rest, so the matrix is invertible iff every column finds one.
    """
    count, n = m.shape[:2]
    ok, every = np.ones(count, bool), np.arange(count)
    for j in range(n):
        nonzero = m[:, :, j] != 0
        ok &= nonzero.any(axis=1)
        r = nonzero.argmax(axis=1)
        pivot = m[every, r]
        m[every, r] = 0
        m = (m * pivot[:, j, None, None] - m[:, :, j, None] * pivot[:, None]) % p
    return ok


def _irreducible_rows(moduli: np.ndarray, p: int) -> np.ndarray:
    """Ben-Or test of each row of moduli (monic, low first) over an odd p.

    f is irreducible iff gcd(x^(p^k) - x, f) = 1 for every k <= n/2: a
    reducible f has an irreducible factor of some degree k <= n/2, which
    divides x^(p^k) - x.  A batch costs the same numpy calls at every k
    whatever it holds, so the k are tested at once: the product of the
    x^(p^k) - x is a unit mod f iff every gcd is 1.
    """
    count, n = moduli.shape[0], moduli.shape[1] - 1
    t = _mul_tensors(moduli, p)
    x = np.eye(1, n, 1, np.int64)
    u, prod = np.repeat(x, count, axis=0), np.zeros((count, n), np.int64)
    prod[:, 0] = 1
    for _ in range(n // 2):
        u = _pow_rows(u, p, t, p)
        prod = _mul_rows(prod, u - x, t, p)
    return _invertible(_mul_matrices(prod, t, p), p)


def _is_irreducible(coeffs, p: int) -> bool:
    """Whether the monic polynomial with coeffs (low first) is irreducible."""
    if p == 2:
        return _gf2_irreducible(sum(c << i for i, c in enumerate(coeffs)), len(coeffs) - 1)
    return bool(_irreducible_rows(np.array([coeffs], np.int64), p)[0])


def _batches(start: int, stop: int):
    """[start, stop) in consecutive arrays of 64 ints, doubling up to _BATCH.

    A batch costs about the same numpy calls whatever its length, so the
    first is long enough to hold the usual first hit (a generator below
    40, an irreducible among the first few dozen moduli); later batches
    grow so that a late hit takes few, and one batch's arrays stay bounded.
    """
    size = 64
    while start < stop:
        yield np.arange(start, min(start + size, stop))
        start, size = start + size, min(2 * size, _BATCH)


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n over F_p in encoding order."""
    if n == 1:
        return (0, 1)
    if p == 2:  # encodings with the x^n and constant bits set
        f = next(f for f in range(2**n + 1, 2 ** (n + 1), 2) if _gf2_irreducible(f, n))
        return tuple(_digit_array(f, 2, n + 1).tolist())
    for encs in _batches(p**n, 2 * p**n):  # the x^n digit is 1
        moduli = _digit_array(encs[encs % p != 0], p, n + 1)  # x does not divide f
        ok = _irreducible_rows(moduli, p)
        if ok.any():
            return tuple(moduli[ok.argmax()].tolist())
    raise RuntimeError(f"no irreducible of degree {n} over F_{p}")  # unreachable


class FieldCtx:
    """Immutable description of GF(p^(s*ell)) with its subfield chain.

    Build instances with field_new(), which shares one per field; all
    operations are pure functions of the context and their integer-encoded
    arguments.
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
        # Every attribute is set here: one added to a built context slowed its add/mul lookups.
        self.p = p
        self.s = s
        self.ell = ell
        self.n = n
        self.order = order
        self.q = p**s

        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, n)) or find_irreducible(p, n)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != n + 1:
                raise ValueError(
                    f"modulus must have degree {n} ({n + 1} coefficients, low first)"
                )
            if any(c < 0 or c >= p for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulusError(
                    f"modulus {modulus} is reducible over F_{p}"
                )
        self.modulus = modulus
        # The modulus in the form the bootstrap multiplies with.
        if p == 2:
            self._mod_int = sum(c << i for i, c in enumerate(modulus))
            self.add, self.neg = operator.xor, operator.pos  # -x = x
        else:
            self._tensor = _mul_tensors(np.array([modulus], np.int64), p)
            self.add, self.neg = self._add_zech, self._neg_zech
            self._half = (order - 1) // 2

        self.generator = self._find_generator()
        self._build_tables()

        self._subfields: dict[int, tuple] = {}  # m -> (elements, traces, power-basis dual)

    # -- bootstrap (pre-table) -------------------------------------------

    def _find_generator(self) -> int:
        """The first element in encoding order of multiplicative order p^n - 1.

        g is primitive iff g^((p^n - 1)/r) != 1 for each prime r | p^n - 1.
        For odd p the candidates go in numpy batches (_batches).
        """
        p, n, order = self.p, self.n, self.order
        if order == 2:
            return 1
        group = order - 1
        checks = [group // f for f in prime_factors(group)]
        if p == 2:
            mul = functools.partial(_gf2_mulmod, f=self._mod_int, n=n)
            for g in range(2, order):
                if all(_power(mul, g, e, 1) != 1 for e in checks):
                    return g
        else:
            one = np.eye(1, n, 0, np.int64)
            for cands in _batches(2, order):
                rows = _digit_array(cands, p, n)
                for e in checks:
                    keep = (_pow_rows(rows, e, self._tensor, p) != one).any(axis=1)
                    cands, rows = cands[keep], rows[keep]
                if cands.size:
                    return int(cands[0])
        raise RuntimeError("no primitive element found")  # unreachable

    def _build_tables(self):
        """exp and log tables by doubling, and for p > 2 the Zech table.

        Row t of powers is z^t for t <= p^n - 1: its encoding for p = 2, else
        its digit vector.  Rows [2^t, 2^(t+1)) are rows [0, 2^t) times
        c = z^(2^t), an F_p-linear map: for p = 2 a lookup per byte of the
        encoding in tables of x * c, else a product mod p with the matrix
        of rows x^i * c.  The last row, z^(p^n - 1), must be 1.
        """
        p, n, order, g = self.p, self.n, self.order, self.generator
        size = order - 1
        if p == 2:
            f = self._mod_int
            powers = np.zeros(order, np.uint32)
            powers[0], c, done = 1, g, 1
            while done < order:
                rows = min(done, order - done)
                src, out, col = powers[:rows], np.zeros(rows, np.uint32), c
                for low in range(0, n, 8):
                    table = np.zeros(1, np.uint32)  # table[b] = (b << low) * c
                    for _ in range(min(8, n - low)):
                        table = np.concatenate([table, table ^ col])
                        col <<= 1  # x^(i+1) * c from x^i * c
                        if col >> n:
                            col ^= f
                    out ^= table[src >> low & 0xFF]
                powers[done : done + rows] = out
                done, c = done + rows, _gf2_mulmod(c, c, f, n)
            exp = powers
        else:
            t = self._tensor
            wide = np.min_scalar_type(n * (p - 1) ** 2)  # holds a row's dot product
            powers = np.zeros((order, n), np.min_scalar_type(p - 1))
            powers[0, 0], c, done = 1, _digit_array([g], p, n), 1
            while done < order:
                rows = min(done, order - done)
                m = _mul_matrices(c, t, p)[0].astype(wide)
                powers[done : done + rows] = powers[:rows] @ m % p
                done, c = done + rows, _mul_rows(c, c, t, p)
            exp = powers @ p ** np.arange(n, dtype=np.uint32)
            del powers
        log = np.full(order, -1, np.int32)
        log[exp[:size]] = np.arange(size, dtype=np.int32)
        if exp[size] != 1 or (log[1:] < 0).any():
            raise InvariantError("generator failed the order check")
        exp = exp[:size]
        # The tables share one int object per value: ints[t] is z^t for
        # t < size, then come 0 and -1, so a value v >= 1 sits at log[v].
        ints = np.append(exp, (0, -1)).astype(object)
        self._exp = ints[:size].tolist() * 2

        def shared(values):
            return ints[np.where(values > 0, log[values], size - np.minimum(values, 0))].tolist()

        self._log = shared(log)
        if p != 2:  # zech[t] = log(1 + z^t): the lowest digit of z^t plus one, mod p
            self._zech = shared(log[exp + np.where(exp % p == p - 1, 1 - p, 1)])
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

    def is_element(self, x) -> bool:
        """The one rule on field elements, for every layer: an int in [0, order).

        An int is anything whose type implements __index__, as Python
        looks special methods up on the type; float does not.
        """
        return hasattr(type(x), "__index__") and 0 <= x < self.order

    def _check(self, x: int, name: str) -> None:
        """Raise ValueError, naming x as given, unless x is a field element."""
        if not self.is_element(x):
            raise ValueError(
                f"{name} {x!r} is not a field element: field elements are ints in [0, {self.order})"
            )

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    # -- polynomials over the field ---------------------------------------

    def poly_eval(self, coeffs, x: int) -> int:
        """Sum of c * x^t over the nonzero coefficients; coeffs low degree first.

        Every coefficient is read, so the cost grows with the degree even
        when few terms are nonzero; a caller that evaluates one sparse
        polynomial many times keeps its nonzero terms instead, as
        SeedScheme does.  pow(0, 0) = 1 covers x = 0.
        """
        self._check(x, "point")
        acc = 0
        for t, c in enumerate(coeffs):
            if c:
                self._check(c, "coefficient")
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
        if m < 1:
            raise InvalidSubfieldError(f"need m >= 1, got m = {m}")
        if self.n % m:
            raise InvalidSubfieldError(f"m = {m} does not divide {self.n}")
        p, n, order = self.p, self.n, self.order
        step = (order - 1) // (p**m - 1)
        # The subfield's own int objects from _exp: z^(j*step) at j, then 0,
        # which the log -1 of 0 indexes.
        ints = np.array([*self._exp[: order - 1 : step], 0], object)
        elements = (0, *ints[np.argsort(self._exp_table[::step])].tolist())
        trace = np.zeros(order, np.intp)
        for k in range(n):
            size, t = p**k, 0
            for i in range(n // m):
                t = self.add(t, self.pow(size, p ** (m * i)))
            for d in range(1, p):
                trace[d * size : (d + 1) * size] = self.add_array(trace[:size], self.mul(d, t))
        trace = ints[self._log_table[trace] // step].tolist()
        basis = self._exp[: n // m]
        dual = self._echelon(basis, basis, trace)[0]
        return self._subfields.setdefault(m, (elements, trace, dual))

    def subfield_elements(self, m: int) -> tuple[int, ...]:
        """All elements of the order-p^m subfield, sorted ascending."""
        return (self._subfields.get(m) or self._build_subfield(m))[0]

    def trace_to_subfield(self, x: int, m: int) -> int:
        """Sum of x^(p^(m*i)) for i < n/m; lands in the order-p^m subfield."""
        return (self._subfields.get(m) or self._build_subfield(m))[1][x]

    # -- linear algebra over a subfield -------------------------------------

    def _echelon(self, elems, hs, trace: list[int]) -> tuple[tuple[int, ...], list[int]]:
        """Reduced row echelon form of elems under coordinates y -> Tr(y * hs[j]).

        Each row stays the field element it coordinates; Tr is
        F_{p^m}-linear, so field sub, mul and inv on the elements are the
        row operations.  Returns the reduced rows and their pivot columns.
        With hs the dual of the power basis the rows are the canonical
        basis of span(elems); with hs = elems = ws they are the trace-dual
        basis of ws, which has len(ws) pivots iff ws is a basis.  RREF is
        unique, so the choice of pivot row does not matter.
        """
        mul, sub = self.mul, self.sub
        rows, basis, pivots = [y for y in elems if y], [], []
        for j, h in enumerate(hs):
            hit = next((i for i, y in enumerate(rows) if trace[mul(y, h)]), None)
            if hit is None:
                continue
            top = rows.pop(hit)
            pivot = mul(top, self.inv(trace[mul(top, h)]))
            rows = [r for y in rows if (r := sub(y, mul(trace[mul(y, h)], pivot)))]
            basis = [sub(b, mul(trace[mul(b, h)], pivot)) for b in basis]
            basis.append(pivot)
            pivots.append(j)
        return tuple(basis), pivots

    def echelon(self, elems, m: int) -> tuple[tuple[int, ...], list[int]]:
        """Canonical basis of the F_{p^m}-span of elems, and its pivot columns.

        The basis is the reduced row echelon form of the coordinates in the
        power basis of the generator (see coords), each row as its element.
        """
        elems = list(elems)
        for x in elems:
            self._check(x, "element")
        _, trace, dual = self._subfields.get(m) or self._build_subfield(m)
        return self._echelon(elems, dual, trace)

    def dual_basis(self, ws, m: int):
        """Trace-dual basis of ws over F_{p^m}: Tr(ws[i]*dual[j]) = delta_ij."""
        ws = list(ws)
        for w in ws:
            self._check(w, "basis element")
        trace = (self._subfields.get(m) or self._build_subfield(m))[1]
        if len(ws) != self.n // m:
            raise ValueError(f"need {self.n // m} basis elements, got {len(ws)}")
        dual, pivots = self._echelon(ws, ws, trace)
        if len(pivots) < len(ws):
            raise RankDeficientError("singular matrix over subfield")
        return dual

    def coords(self, x: int, m: int) -> tuple[int, ...]:
        """Coordinates of x over F_{p^m} in the power basis of the generator."""
        self._check(x, "x")
        _, trace, dual = self._subfields.get(m) or self._build_subfield(m)
        if x == 0:
            return (0,) * len(dual)
        exp, log, lx = self._exp, self._log, self._log[x]
        return tuple([trace[exp[lx + log[d]]] for d in dual])

    def rank_over(self, m: int, elems) -> int:
        """F_{p^m}-rank of a list of field elements."""
        return len(self.echelon(elems, m)[1])

    def __repr__(self):
        return (
            f"FieldCtx(p={self.p}, s={self.s}, ell={self.ell}, "
            f"order={self.order}, modulus={self.modulus})"
        )


# field_new's cache: (p, s, ell, modulus tuple or None) -> context.  A
# context is held under (p, s, ell, ctx.modulus), and under (p, s, ell, None)
# when its modulus is the default; contexts age in order of first appearance.
_FIELDS: dict[tuple, FieldCtx] = {}
_FIELDS_LOCK = threading.Lock()  # eviction and insertion happen together


def field_new(p: int, s: int, ell: int, modulus=None) -> FieldCtx:
    """GF(p^(s*ell)) with verified generator and filled tables, shared per process.

    The arguments are looked up as given, before any check: a hit returns
    the context an earlier call built, with the subfield tables filled so
    far.  A miss builds a FieldCtx (which runs every check; a failed build
    is not kept) and keeps it under these arguments and under its own
    modulus, so field_new(2, 1, 4) is field_new(2, 1, 4, (1, 1, 0, 0, 1)).
    Kept contexts hold at most MAX_FIELD_ORDER elements in total; the
    oldest goes first.  Racing misses build alike and all return the
    context kept first.
    """
    p, s, ell = operator.index(p), operator.index(s), operator.index(ell)
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    key = (p, s, ell, modulus)
    ctx = _FIELDS.get(key)
    if ctx is not None:
        return ctx
    ctx = FieldCtx(p, s, ell, modulus)
    own = (p, s, ell, ctx.modulus)
    with _FIELDS_LOCK:
        kept = _FIELDS.get(key) or _FIELDS.get(own)
        if kept is None:
            kept = ctx
            held = list(dict.fromkeys(_FIELDS.values()))  # oldest first
            room = MAX_FIELD_ORDER - sum(c.order for c in held)
            for old in held:
                if room >= ctx.order:
                    break
                room += old.order
                for k in ((old.p, old.s, old.ell, None), (old.p, old.s, old.ell, old.modulus)):
                    if _FIELDS.get(k) is old:
                        del _FIELDS[k]
        _FIELDS[key] = _FIELDS[own] = kept
    return kept
