"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is stored the way FLINT's `fmpq_poly` stores it
(https://flintlib.org/doc/fmpq_poly.html): a tuple of integer numerators
`num` over one common denominator `den > 0`, in lowest terms
(`gcd(*num, den) == 1`) and with no trailing zero, so every rational
polynomial has exactly one representation.  Ring operations, pseudo-division,
the adjoint and evaluation run on Python ints and reduce once per result, with
one variadic `math.gcd`; `coeffs`, `coeff(k)` and `leading` build `Fraction`s
on demand, and `float_coeffs()` divides the integers directly.  Every gcd,
square-free split and sign decision below is exact.  One integer
pseudo-division kernel, `_pseudo_divmod`, runs every Euclidean step: `divmod`,
the gcd's primitive remainder sequence and the Sturm sequence; a gcd modulo
one prime (`shown_coprime`) proves coprimality, square-freeness included,
before any exact gcd runs.
Polynomials are immutable; the zero polynomial has no numerators and its
degree is -inf (avoids special-casing leading-zero trims).

Also provided:

  * the adjoint  p*(s) = p(-s)  used throughout para-Hermitian algebra,
  * exact real-root counting and isolation from the signs of one integer
    Sturm sequence (primitive negated pseudo-remainders), from which "is
    p(t) >= 0 for every real t" is decided with no tolerance; an even p is
    first read through k(u) = p(sqrt u): passed with no Sturm sequence when
    k(0) > 0 and no coefficient of k is negative (Descartes' rule), else
    counted, and isolated only when the count is not zero,
  * two-variable polynomials on a (xi^i eta^j) grid, and the exact
    divided difference  (p(xi) - p(-eta)) / (xi + eta)  that generates
    the bilinear-differential-form boundary terms of energy identities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

NEG_INF = float("-inf")

RatLike = int | Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion, never rounded
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class Poly:
    """Dense univariate polynomial: coefficient k is num[k] / den.

    `coeffs` is the tuple of `Fraction` coefficients, coeffs[k] multiplying
    s^k; the constructor takes ints, `Fraction`s, "num/den" strings and floats
    (read exactly)."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, int) else _frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        # den is the lcm of the nonzero coefficients' denominators, so it
        # shares no factor with every numerator: already in lowest terms
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def x() -> "Poly":
        """The indeterminate s itself."""
        return Poly((0, 1))

    @staticmethod
    def of(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (list, tuple)):
            return Poly(value)
        return Poly.constant(value)

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def float_coeffs(self) -> list[float]:
        """The coefficients as floats, num[k] / den with no `Fraction` built.
        Integer true division is correctly rounded, so each equals
        float(coeffs[k]) bit for bit, and it raises OverflowError where that
        does."""
        den = self.den
        return [c / den for c in self.num]

    @property
    def degree(self):
        """Degree as int, or -inf for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def leading(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            return self.num == (other.numerator,) and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*s" if c != 1 else "s")
            else:
                parts.append(f"{c}*s^{k}" if c != 1 else f"s^{k}")
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        return _sum(self, Poly.of(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "Poly":
        return _sum(self, Poly.of(other), -1)

    def __rsub__(self, other) -> "Poly":
        return _sum(Poly.of(other), self, -1)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):  # Fraction's isinstance is an ABC check
            if isinstance(other, (int, Fraction)):
                if not other:
                    return _ZERO
                n = other.numerator
                return _lowest([c * n for c in self.num],
                               self.den * other.denominator)
            other = Poly.of(other)
        a, b = self.num, other.num
        if not (a and b):
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    out[j] += x * y
        return _lowest(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """`_pseudo_divmod` on the numerators, m num_a = Q num_b + R,
        rescaled once: a = (Q den_b / (m den_a)) b + R / (m den_a)."""
        other = Poly.of(other)
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self.num
        if len(a) < len(b):
            return _ZERO, self
        if len(b) == 1:
            n, d = other.den, self.den * b[0]
            if d < 0:
                n, d = -n, -d
            return _lowest([c * n for c in a], d), _ZERO
        quo, rem, m = _pseudo_divmod(a, b)
        den = m * self.den
        ob = other.den
        return _lowest([x * ob for x in quo], den), _lowest(rem, den)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, Poly.of(other))[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, Poly.of(other))[1]

    # -- calculus and adjoint -------------------------------------------------

    def derivative(self) -> "Poly":
        num = self.num
        return _lowest([k * num[k] for k in range(1, len(num))], self.den)

    def star(self) -> "Poly":
        """p*(s) = p(-s): negate every odd numerator."""
        return _raw(tuple(-c if k & 1 else c for k, c in enumerate(self.num)),
                    self.den)

    def real_on_axis(self) -> "Poly":
        """h(w) = p(jw) for an even p (p(-s) == p(s)): the numerator of
        s^2k takes the sign (-1)^k.  Raises ValueError when p has an odd
        term, since p(jw) is then not real."""
        num = self.num
        if any(num[1::2]):
            raise ValueError("p(jw) is not real: p has an odd term")
        return _raw(tuple(-c if k & 2 else c for k, c in enumerate(num)),
                    self.den)

    def monic(self) -> "Poly":
        num = self.num
        if not num or num[-1] == self.den:
            return self
        lc = num[-1]
        if lc < 0:
            return _lowest([-c for c in num], -lc)
        return _lowest(list(num), lc)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, t: RatLike) -> Fraction:
        """Exact evaluation at a rational point t = tn / td: homogeneous
        Horner on ints, acc = sum_k num[k] tn^k td^(deg - k)."""
        num = self.num
        if not num:
            return Fraction(0)
        t = t if isinstance(t, int) else _frac(t)
        tn, td = t.numerator, t.denominator
        acc = 0
        pw = 1
        for c in reversed(num):
            acc = acc * tn + c * pw
            pw *= td
        return Fraction(acc, self.den * (pw // td))

    def eval_complex(self, z: complex) -> complex:
        # z may also be an ndarray of points, evaluated elementwise.  int true
        # division is correctly rounded, so c / den == float(coeff)
        den = self.den
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c / den
        return acc


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]
                   ) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division  m a = quo b + rem  with m > 0 and
    deg rem < deg b, on numerators (b nonzero); rem has no trailing zero.

    Each step scales by |lc(b)| / gcd(c, lc(b)), the least positive factor
    that lets lc(b) divide the top coefficient c (1 when it already does, as
    for monic divisors), so m divides |lc(b)|^k and stays positive: a signed
    scale would flip the remainder's sign, which a Sturm sequence reads."""
    db = len(b) - 1
    lc = b[-1]
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    m = 1
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        if c % lc:
            f = abs(lc) // gcd(c, lc)
            rem = [x * f for x in rem]
            quo = [x * f for x in quo]
            m *= f
            c *= f
        t = c // lc
        quo[k] = t
        for j, y in enumerate(b, k):
            rem[j] -= t * y
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem, m


def _primitive(c: Sequence[int], sign: int = 1) -> list[int]:
    """sign * c divided by its (positive) content."""
    g = gcd(*c)
    return [sign * x // g for x in c]


def _raw(num: tuple, den: int) -> Poly:
    """A Poly from numerators and a denominator already in lowest terms."""
    p = object.__new__(Poly)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)
    return p


def _lowest(num: list, den: int) -> Poly:
    """num / den (den > 0) with trailing zeros trimmed and gcd(*num, den)
    divided out."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(tuple(num), den)


def _sum(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign * q over the lcm of the two denominators."""
    a, b = p.num, q.num
    if not b:
        return p
    if not a:
        return q if sign == 1 else -q
    da, db = p.den, q.den
    if da == db:
        fa, fb = 1, sign
    else:
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        da *= fa
    out = [c * fa for c in a] + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] += c * fb
    return _lowest(out, da)


_ZERO = _raw((), 1)
_ONE = _raw((1,), 1)


# -- gcd and square-free structure ---------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the primitive integer remainder sequence (Brown, J. ACM
    18, 1971): Euclid on the numerators with `_pseudo_divmod`, each
    remainder divided by its content.  Every remainder is a nonzero rational
    multiple of the one Euclid over Q would take, so the last nonzero one,
    made monic, is the gcd; no Fraction is built on the way."""
    a, b = Poly.of(a).num, Poly.of(b).num
    while b:
        r = _pseudo_divmod(a, b)[1]
        a, b = b, _primitive(r) if r else r
    return _lowest(list(a), 1).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod f_i^i with the f_i monic, square-free,
    pairwise coprime.  Returns [(f_i, i)] for the nonconstant f_i."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.degree == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        ai = poly_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        b = b // ai
        c = d // ai
        d = c - b.derivative()
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p: p over
    gcd(p, p').  When `shown_coprime` proves p and p' coprime, p is
    square-free and the part is p.monic(); otherwise the exact gcd
    decides."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free part")
    dp = p.derivative()
    if shown_coprime(p, dp):
        return p.monic()
    return p.monic() // poly_gcd(p, dp)


_SQUAREFREE_PRIME = (1 << 31) - 1  # a Mersenne prime: residue products fit a word


def _coprime_mod(a: list[int], b: list[int], q: int) -> bool:
    """Whether the gcd of a and b over the integers modulo the prime q is a
    nonzero constant.  Coefficients run high degree first, reduced mod q;
    either list may be empty or start with zeros, and they may come in any
    length order."""
    a, b = _without_leading_zeros(a), _without_leading_zeros(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[0], -1, q)
        top = len(a) - len(b) + 1
        for i in range(top):  # a mod b, in place on the copy
            f = a[i] * inv % q
            if f:
                for j, y in enumerate(b[1:], i + 1):
                    a[j] = (a[j] - f * y) % q
        a, b = b, _without_leading_zeros(a[top:])
    return len(a) == 1


def _without_leading_zeros(c: list[int]) -> list[int]:
    """A copy of the high-first list c from its first nonzero entry on."""
    k = 0
    while k < len(c) and not c[k]:
        k += 1
    return c[k:]


def shown_coprime(a: Poly, b: Poly) -> bool:
    """True when a and b are nonzero and a gcd modulo the prime
    _SQUAREFREE_PRIME proves them coprime over Q; False says nothing.

    The proof needs the prime not to divide the leading numerator of one of
    them, say a (Brown, J. ACM 18, 1971).  A common factor over Q is, by
    Gauss's lemma, a primitive integer f dividing both numerators; lc(f)
    divides lc(a), so f keeps its degree modulo the prime and divides both
    reductions.  A constant gcd of the reductions rules it out."""
    x, y, q = a.num, b.num, _SQUAREFREE_PRIME
    if not (x and y) or not (x[-1] % q or y[-1] % q):
        return False
    return _coprime_mod([c % q for c in reversed(x)],
                        [c % q for c in reversed(y)], q)


# -- exact real-root analysis ----------------------------------------------------
#
# Sturm's theorem (Basu, Pollack and Roy, Algorithms in Real Algebraic
# Geometry, 2006, ch. 2), on a primitive integer remainder sequence (Brown,
# J. ACM 18, 1971).  Only signs are read, so every element is kept as the
# smallest positive integer multiple of the rational Sturm chain's element.


def _sturm_sequence(num: Sequence[int]) -> list[list[int]]:
    """The Sturm sequence of the integer polynomial `num` (degree >= 1):
    f, f', then the negated `_pseudo_divmod` remainders over their content,
    up to the last nonzero one.  When f is not square-free it ends at
    gcd(f, f'), and the variation count still counts the distinct roots
    between two points where f is nonzero."""
    a = _primitive(num)
    b = _primitive([k * c for k, c in enumerate(num)][1:])
    seq = [a, b]
    while len(b) > 1:
        r = _pseudo_divmod(a, b)[1]
        if not r:
            break
        r = _primitive(r, -1)
        seq.append(r)
        a, b = b, r
    return seq


def _sign_changes(values: Iterable[int]) -> int:
    """Sign changes along a sequence, zeros skipped."""
    n = 0
    prev = 0
    for v in values:
        if v:
            if (v > 0) != (prev > 0) and prev:
                n += 1
            prev = v
    return n


def _changes_at(seq: list[list[int]], t: Fraction) -> int:
    """Sign changes of the sequence at t = tn / td, each element read as
    the homogeneous integer Horner sum  sum_k c[k] tn^k td^(deg - k)."""
    tn, td = t.numerator, t.denominator
    pw = [1]
    for _ in range(len(seq[0]) - 1):
        pw.append(pw[-1] * td)
    values = []
    for c in seq:
        d = len(c) - 1
        acc = 0
        for k in range(d, -1, -1):
            acc = acc * tn + c[k] * pw[d - k]
        values.append(acc)
    return _sign_changes(values)


def _changes_at_inf(seq: list[list[int]], side: int) -> int:
    """Sign changes at +inf (side = 1) or -inf (side = -1): each element
    takes the sign of its leading term."""
    if side > 0:
        return _sign_changes(c[-1] for c in seq)
    return _sign_changes(-c[-1] if len(c) % 2 == 0 else c[-1] for c in seq)


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie strictly inside [-B, B]."""
    if p.degree <= 0:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p.num[:-1]), abs(p.num[-1]))


def _non_root_point(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational point in (lo, hi) that is not a root of p."""
    span = hi - lo
    limit = max(int(p.degree) + 3, 4) if p.degree > 0 else 4
    while True:
        for k in range(2, limit + 1):
            t = lo + span / k
            if p(t) != 0:
                return t
        span = span / 3  # p has finitely many roots, so this terminates


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, each containing exactly one distinct
    real root of p, with endpoints that are never roots.  Sorted left to right."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return []
    B = cauchy_bound(sf)
    seq = _sturm_sequence(sf.num)
    out: list[tuple[Fraction, Fraction]] = []
    # stack of (lo, hi, v_lo, v_hi); invariant: sf(lo) != 0 and sf(hi) != 0.
    # No root lies beyond -B - 1 or B + 1, so the variations there are the
    # ones at -inf and +inf.
    stack = [(-B - 1, B + 1, _changes_at_inf(seq, -1), _changes_at_inf(seq, 1))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m = _non_root_point(sf, a, b)
        vm = _changes_at(seq, m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    out.sort()
    return out


def find_negative_point(p: Poly) -> Fraction | None:
    """A rational t with p(t) < 0, or None when p(t) >= 0 for every real t.
    Exact: candidate points are taken one per sign region of p.

    Counts before it isolates: an even p with p(0) != 0 is k(t^2), and it
    has a real root iff k has one in (0, inf).  When p(0) > 0 and k has no
    negative coefficient, k has no sign change, so by Descartes' rule no
    positive root, and p >= p(0) > 0 with no Sturm sequence built
    (Collins and Akritas, SYMSAC 1976).  Otherwise the variations of k's
    Sturm sequence at 0 and +inf count its positive roots.  With none, p
    keeps the sign of p(0) and no isolation runs."""
    if p.is_zero:
        return None
    if p.degree == 0:
        return Fraction(0) if p.num[0] < 0 else None
    num = p.num
    if num[0] and not any(num[1::2]):
        if num[0] > 0 and min(num[0::2]) >= 0:
            return None
        seq = _sturm_sequence(num[0::2])
        if _sign_changes(c[0] for c in seq) == _changes_at_inf(seq, 1):
            return Fraction(0) if num[0] < 0 else None
    intervals = isolate_real_roots(p)
    if not intervals:
        return Fraction(0) if num[0] < 0 else None
    candidates = [intervals[0][0]]
    for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
        # b1 <= a2 and neither is a root, so either sits inside the gap region
        candidates.append(b1)
        if a2 != b1:
            candidates.append(a2)
    candidates.append(intervals[-1][1])
    for t in candidates:
        if p(t) < 0:
            return t
    return None


# -- two-variable polynomials -----------------------------------------------------


class TwoVarPoly:
    """Polynomial in (xi, eta): grid[i][j] multiplies xi^i eta^j."""

    __slots__ = ("grid",)

    def __init__(self, grid: Iterable[Iterable] = ()):
        rows = [[_frac(c) for c in row] for row in grid]
        width = max((len(r) for r in rows), default=0)
        rows = [r + [Fraction(0)] * (width - len(r)) for r in rows]
        # trim trailing all-zero rows and columns
        while rows and all(c == 0 for c in rows[-1]):
            rows.pop()
        while rows and all(r[-1] == 0 for r in rows):
            for r in rows:
                r.pop()
        object.__setattr__(self, "grid", tuple(tuple(r) for r in rows))

    def __setattr__(self, *a):
        raise AttributeError("TwoVarPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.grid

    def coeff(self, i: int, j: int) -> Fraction:
        if 0 <= i < len(self.grid) and 0 <= j < len(self.grid[i]):
            return self.grid[i][j]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoVarPoly) and self.grid == other.grid

    def __hash__(self):
        return hash(self.grid)

    def __add__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        n = max(len(self.grid), len(other.grid))
        m = max(max((len(r) for r in self.grid), default=0),
                max((len(r) for r in other.grid), default=0))
        return TwoVarPoly(
            [[self.coeff(i, j) + other.coeff(i, j) for j in range(m)] for i in range(n)]
        )

    def __neg__(self) -> "TwoVarPoly":
        return TwoVarPoly([[-c for c in row] for row in self.grid])

    def __sub__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        return self + (-other)

    def mul_xi_plus_eta(self) -> "TwoVarPoly":
        """Multiply by (xi + eta)."""
        n = len(self.grid) + 1
        m = max((len(r) for r in self.grid), default=0) + 1
        return TwoVarPoly(
            [[self.coeff(i - 1, j) + self.coeff(i, j - 1) for j in range(m)]
             for i in range(n)]
        )

    def eval(self, x, y) -> Fraction:
        x, y = _frac(x), _frac(y)
        acc = Fraction(0)
        for i, row in enumerate(self.grid):
            xp = x ** i
            for j, c in enumerate(row):
                if c != 0:
                    acc += c * xp * y ** j
        return acc

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, row in enumerate(self.grid):
            for j, c in enumerate(row):
                if c != 0:
                    parts.append(f"{c}*xi^{i}*eta^{j}")
        return " + ".join(parts)


def bdf_phi(p: Poly) -> TwoVarPoly:
    """The exact quotient (p(xi) - p(-eta)) / (xi + eta).

    Because xi = -eta annihilates the numerator, the division is exact:
    (xi^k - (-eta)^k)/(xi+eta) = sum_{j<k} (-1)^j xi^(k-1-j) eta^j.
    """
    if p.is_zero or p.degree == 0:
        return TwoVarPoly()
    n = p.degree
    grid = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = p.coeff(k)
        if c == 0:
            continue
        for j in range(k):
            grid[k - 1 - j][j] += c * (-1) ** j
    return TwoVarPoly(grid)
