"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`, so every ring operation, gcd,
square-free split and sign decision below is exact.  Polynomials are
immutable; the zero polynomial is the empty coefficient tuple and its
degree is -inf (avoids special-casing leading-zero trims).

Also provided:

  * the adjoint  p*(s) = p(-s)  used throughout para-Hermitian algebra,
  * exact real-root isolation (Sturm chains over the rationals), from
    which "is p(t) >= 0 for every real t" is decided with no tolerance,
  * two-variable polynomials on a (xi^i eta^j) grid, and the exact
    divided difference  (p(xi) - p(-eta)) / (xi + eta)  that generates
    the bilinear-differential-form boundary terms of energy identities.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Dense univariate polynomial; coeffs[k] multiplies s^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

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
    def degree(self):
        """Degree as int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly.constant(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

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
        other = Poly.of(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        return self + (-Poly.of(other))

    def __rsub__(self, other) -> "Poly":
        return Poly.of(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        other = Poly.of(other)
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

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
        other = Poly.of(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.leading
        dd = len(other.coeffs) - 1
        while len(rem) - 1 >= dd and rem:
            c = rem[-1] / dlead
            k = len(rem) - 1 - dd
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, Poly.of(other))[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, Poly.of(other))[1]

    # -- calculus and adjoint -------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def star(self) -> "Poly":
        """p*(s) = p(-s): negate every odd coefficient."""
        return Poly(-c if k % 2 else c for k, c in enumerate(self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv = 1 / self.leading
        return Poly(c * inv for c in self.coeffs)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, t: RatLike) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def eval_gauss(self, re: RatLike, im: RatLike) -> tuple[Fraction, Fraction]:
        """Exact evaluation at the Gaussian rational re + im*i."""
        re, im = _frac(re), _frac(im)
        ar, ai = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            ar, ai = ar * re - ai * im + c, ar * im + ai * re
        return ar, ai


# -- gcd and square-free structure ---------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (renormalised each step)."""
    a, b = Poly.of(a), Poly.of(b)
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


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
    """Monic product of the distinct irreducible factors of p."""
    out = Poly.one()
    for f, _ in squarefree_decomposition(p):
        out = out * f
    return out


# -- exact real-root analysis ----------------------------------------------------


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        r = -(chain[-2] % chain[-1])
        if r.is_zero:
            break
        # rescale by a positive constant only: signs carry the information
        chain.append(r * (1 / abs(r.leading)))
    return [q for q in chain if not q.is_zero]


def _variations(values: Sequence[Fraction]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_real_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    sf = squarefree_part(p)
    chain = _sturm_chain(sf)
    va = _variations([q(lo) for q in chain])
    vb = _variations([q(hi) for q in chain])
    return va - vb


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie strictly inside [-B, B]."""
    if p.degree <= 0:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


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
    chain = _sturm_chain(sf)

    def var_at(t: Fraction) -> int:
        return _variations([q(t) for q in chain])

    out: list[tuple[Fraction, Fraction]] = []
    # stack of (lo, hi, v_lo, v_hi); invariant: sf(lo) != 0 and sf(hi) != 0
    lo, hi = -B - 1, B + 1
    stack = [(lo, hi, var_at(lo), var_at(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m = _non_root_point(sf, a, b)
        vm = var_at(m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    out.sort()
    return out


def find_negative_point(p: Poly) -> Fraction | None:
    """A rational t with p(t) < 0, or None when p(t) >= 0 for every real t.
    Exact: candidate points are taken one per sign region of p."""
    if p.is_zero:
        return None
    if p.degree == 0:
        return Fraction(0) if p.coeffs[0] < 0 else None
    intervals = isolate_real_roots(p)
    if not intervals:
        return Fraction(0) if p(Fraction(0)) < 0 else None
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


def nonneg_on_reals(p: Poly) -> bool:
    """Decide p(t) >= 0 for all real t, exactly."""
    return find_negative_point(p) is None


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

    def eval_complex(self, x: complex, y: complex) -> complex:
        acc = 0j
        for i, row in enumerate(self.grid):
            xp = x ** i
            for j, c in enumerate(row):
                if c != 0:
                    acc += complex(c) * xp * y ** j
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


def two_var_of_poly_in_xi(p: Poly) -> TwoVarPoly:
    return TwoVarPoly([[c] for c in p.coeffs])


def two_var_of_poly_in_minus_eta(p: Poly) -> TwoVarPoly:
    return TwoVarPoly([[(-1) ** j * p.coeff(j) for j in range(len(p.coeffs))]])


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
