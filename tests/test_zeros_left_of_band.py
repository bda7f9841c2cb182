"""`numeric.zeros_left_of_band`, the exact band test, against a brute-force
reference: the zeros found to 50 digits by sympy's `nroots`.

The test must never read "shown" where a zero z has
Re z >= -ROBUST_BAND_SCALE axis_band (1 + |z|), and must read "shown" where
every zero is clearly left of that band.
"""

import random
from fractions import Fraction

import pytest
import sympy

from passlab.numeric import (BAND_SHIFT_BITS, ROBUST_BAND_SCALE, Tolerance,
                             _zero_bound_exponent, zeros_left_of_band)
from passlab.poly import Poly

S = Poly.x()


def nroots_50(p: Poly) -> list:
    """The zeros of p to 50 digits (sympy), the brute-force reference.  They
    are found as 2^m times the zeros of p(2^m t), with 2^m near the geometric
    mean of their moduli, since sympy's iteration starts on the unit circle."""
    num = p.num
    if len(num) < 2:
        return []
    low = next(c for c in num if c)
    m = (abs(low).bit_length() - abs(num[-1]).bit_length()) // (len(num) - 1)
    t = sympy.Symbol("t")
    q = sympy.Poly([sympy.Rational(c) * sympy.Rational(2) ** (m * k)
                    for k, c in reversed(list(enumerate(num)))], t)
    return [sympy.Integer(2) ** m * z for z in q.nroots(n=50, maxsteps=200)]


def in_or_right_of_wide_band(p: Poly, tol: Tolerance) -> bool:
    """Some zero z of p has Re z >= -ROBUST_BAND_SCALE axis_band (1 + |z|),
    decided on 50-digit zeros."""
    w = sympy.Rational(ROBUST_BAND_SCALE) * sympy.Rational(tol.axis_band)
    return any(bool(sympy.re(z) >= -w * (1 + abs(z))) for z in nroots_50(p))


def with_zeros(*zeros) -> Poly:
    """The monic polynomial with the given zeros: a rational r, or (a, b)
    for the pair a +- jb."""
    p = Poly.one()
    for z in zeros:
        p = p * (Poly([z[0] ** 2 + z[1] ** 2, -2 * z[0], 1])
                 if isinstance(z, tuple) else S - z)
    return p


BAND = Fraction(1, 10**9)  # the default axis band, near enough


def pair_at(m, b) -> tuple[Fraction, Fraction]:
    """The pair with imaginary part b and real part m bands of 1 + b."""
    return (Fraction(m) * BAND * (1 + b), Fraction(b))


WIDE = Fraction(2**200 + 1, 3)  # (s + WIDE)(s + 1/WIDE) has 400-bit coefficients


class TestZerosLeftOfBand:
    """The exact band test never reads "shown" where a zero sits in the
    tenfold axis band or right of it, by 50-digit zeros, and reads "shown"
    where every zero is clearly left of it."""

    @pytest.mark.parametrize("p, shown", [
        (with_zeros((0, 2), -1), False),                 # on the axis
        (with_zeros(pair_at(-0.5, 3), -1), False),       # in the band
        (with_zeros(pair_at(-5, 3), -1), False),         # in the tenfold band
        (with_zeros(pair_at(-11, 3), -2), None),         # just outside it
        (with_zeros(Fraction(-11, 10**9), -2), None),
        (with_zeros(-1, -2, (-1, 2)), True),             # far left
        (with_zeros(1, -2), False),                      # open RHP
        (with_zeros((Fraction(1, 10), 1), -1), False),
        (Poly([3]), True), (Poly([-3]), True),           # degree 0: no zero
        (S + 1, True), (S - 1, False), (S, False),       # degree 1
        (-with_zeros(-1, -3), True),                     # negative leading
        (Fraction(-2, 7) * with_zeros(-1, (-2, 5)), True),
        (with_zeros(0, -1), False),                      # zero constant term
        (with_zeros(-WIDE, -1 / WIDE), False),           # 400 bits, in the band
        (with_zeros(-WIDE, -2 * WIDE, (-WIDE, WIDE)), True),  # far zeros
        (with_zeros(-WIDE, (0, WIDE)), False),           # far axis zeros
        ((2**400 + 12345) * with_zeros(-1, -2, (-1, 3)), True),
    ])
    def test_cases(self, p, shown):
        tol = Tolerance()
        got = zeros_left_of_band(p, tol)
        assert not (got and in_or_right_of_wide_band(p, tol))
        if shown is not None:
            assert got is shown

    @pytest.mark.parametrize("band", [1e-9, 0.0])
    @pytest.mark.parametrize("p", [
        # (s^7 - 1) / (s - 1): Delta_2 = 0, so a Routh row that went on would
        # later divide by it
        Poly([1] * 7),
        with_zeros((0, 1), -1, -1, -2, -3),  # axis zeros: Delta_(n-1) = 0
        with_zeros((0, 1), (0, 2), -1, -3),
    ])
    def test_zero_pivot_is_not_shown(self, p, band):
        assert zeros_left_of_band(p, Tolerance(axis_band=band)) is False

    def test_zero_bound_exponent_bounds_every_zero(self):
        """2^e is at least every |z| on seeded polynomials of degree 1 to 6
        with zeros near 2^k, k from -60 to 200 (coefficients up to 1,200
        bits), and on s + 2^k + 1, whose zero is more than a quarter of the
        bound."""
        rng = random.Random(1618)
        for k in (1, 5, 64, 300):
            assert 2 ** (_zero_bound_exponent((2**k + 1, 1)) - 2) < 2**k + 1
        polys = [S + 2**k + 1 for k in (1, 5, 64, 300)]
        for _ in range(60):
            scale = Fraction(2) ** rng.randint(-60, 200)
            zeros = []
            for _ in range(rng.randint(1, 3)):
                r = Fraction(rng.randint(1, 99), 7) * scale
                zeros.append(rng.choice([-r, r, (-r, r), (r / 3, r)]))
            polys.append(with_zeros(*zeros))
        for p in polys:
            bound = 2 ** sympy.Integer(_zero_bound_exponent(p.num))
            assert max(abs(z) for z in nroots_50(p)) <= bound, p

    @pytest.mark.parametrize("band", [1e-9, 0.0, 1e-3])
    def test_seeded_polynomials(self, band):
        tol = Tolerance(axis_band=band)
        rng = random.Random(2718)
        ms = [0, 0.5, -0.5, -5, -9.5, -10.5, -11, -20, -1000]
        seen = {True: 0, False: 0}
        for _ in range(120):
            zeros, clear = [], True
            while len(zeros) < rng.randint(1, 4):
                b = rng.choice([0, Fraction(rng.randint(1, 200), 10)])
                kind = rng.random()
                if kind < 0.5:
                    a = -Fraction(rng.randint(1, 50), 10)
                elif kind < 0.85:
                    a = Fraction(rng.choice(ms)) * Fraction(band) * (1 + b)
                    clear = False
                else:
                    a = Fraction(rng.randint(1, 20), 10)
                    clear = False
                zeros.append((a, b) if b else a)
            p = with_zeros(*zeros) * rng.choice([1, -3, Fraction(5, 7)])
            got = zeros_left_of_band(p, tol)
            seen[got] += 1
            assert not (got and in_or_right_of_wide_band(p, tol)), zeros
            if clear and band < 1e-6:
                assert got, zeros
        assert min(seen.values()) >= 20


class TestShiftBound:
    """With degree above 1, a shift 2^j that would add more than
    BAND_SHIFT_BITS bits (|j| deg p) reads "not shown" before any Routh row
    is built."""

    def test_the_bound_is_inclusive(self, monkeypatch):
        # (s + 1)^2: its zeros are bounded by 2^3, and 2^-23 is the least
        # power of two at or above 10 * 1e-9 * (1 + 2^3): 46 bits
        p, tol = with_zeros(-1, -1), Tolerance(axis_band=1e-9)
        monkeypatch.setattr("passlab.numeric.BAND_SHIFT_BITS", 46)
        assert zeros_left_of_band(p, tol) is True
        monkeypatch.setattr("passlab.numeric.BAND_SHIFT_BITS", 45)
        assert zeros_left_of_band(p, tol) is False

    @pytest.mark.parametrize("band", [1e-300, 5e-324, 1e300])
    def test_extreme_bands_are_not_shown(self, band, monkeypatch):
        def refuse(c):
            raise AssertionError("a Routh row was built")

        monkeypatch.setattr("passlab.numeric._hurwitz", refuse)
        p = with_zeros(-1, -2, (-1, 3))
        assert BAND_SHIFT_BITS < 4 * 900
        assert zeros_left_of_band(p, Tolerance(axis_band=band)) is False

    def test_degree_1_has_no_bound(self):
        assert zeros_left_of_band(S + 1, Tolerance(axis_band=1e-300)) is True
        assert zeros_left_of_band(S + 2**3000, Tolerance()) is True
        assert zeros_left_of_band(S + 2**-3000, Tolerance()) is False
