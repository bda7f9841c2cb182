import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import passlab.poly
from passlab.poly import (Poly, TwoVarPoly, _changes_at, _changes_at_inf,
                          _coprime_mod, _frac, _sign_changes, _sturm_sequence,
                          bdf_phi, cauchy_bound, find_negative_point,
                          isolate_real_roots, poly_gcd, shown_coprime,
                          squarefree_decomposition, squarefree_part)

S = Poly.x()


def count_real_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    from the integer Sturm sequence of its square-free part."""
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    seq = _sturm_sequence(sf.num)
    return _changes_at(seq, _frac(lo)) - _changes_at(seq, _frac(hi))


def two_var_of_poly_in_xi(p: Poly) -> TwoVarPoly:
    return TwoVarPoly([[c] for c in p.coeffs])


def two_var_of_poly_in_minus_eta(p: Poly) -> TwoVarPoly:
    return TwoVarPoly([[(-1) ** j * p.coeff(j) for j in range(len(p.coeffs))]])

small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(small_fracs, min_size=0, max_size=9).map(Poly)


class TestRing:
    @given(polys, polys, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_product_evaluates_pointwise(self, p, q, t):
        assert (p * q)(t) == p(t) * q(t)

    @given(polys, polys, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_sum_evaluates_pointwise(self, p, q, t):
        assert (p + q)(t) == p(t) + q(t)

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstructs(self, p, q):
        if q.is_zero:
            return
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.is_zero or rem.degree < q.degree

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_star_is_involution(self, p):
        assert p.star().star() == p

    def test_star_flips_odd_coefficients(self):
        assert (S + 1).star() == Poly([1, -1])
        assert Poly.zero().star() == Poly.zero()
        assert (S**2 + S + 1).star() == Poly([1, -1, 1])

    def test_zero_degree_sentinel(self):
        assert Poly.zero().degree == float("-inf")
        assert Poly.zero().is_zero


class TestGcd:
    def test_gcd_of_shared_factor(self):
        g = poly_gcd((S + 1) * (S + 2), (S + 1) * (S - 3))
        assert g == (S + 1)

    def test_squarefree_decomposition(self):
        p = (S + 1) ** 3 * (S - 2)
        parts = dict((m, f) for f, m in squarefree_decomposition(p))
        assert parts[3] == (S + 1) and parts[1] == (S - 2).monic()
        assert squarefree_part(p) == ((S + 1) * (S - 2)).monic()


def squarefree_by_euclid(p: Poly) -> Poly:
    """The exact reference: p over its Euclidean gcd with p', monic."""
    return p.monic() // poly_gcd(p, p.derivative())


PRIME = passlab.poly._SQUAREFREE_PRIME


def rand_int_poly(rng: random.Random, deg: int, bits: int) -> Poly:
    """Degree deg, integer coefficients of up to `bits` bits."""
    top = 2 ** bits
    return Poly([rng.randint(-top, top) for _ in range(deg)]
                + [rng.choice([-1, 1]) * rng.randint(1, top)])


class TestModularSquarefree:
    """`squarefree_part` tries a gcd modulo one prime first, and runs the
    Euclidean gcd only where that gcd is not constant or the prime divides
    the leading coefficient."""

    @pytest.fixture
    def euclid_calls(self, monkeypatch):
        calls = []

        def recorded(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)
        monkeypatch.setattr(passlab.poly, "poly_gcd", recorded)
        return calls

    def test_repeated_factors_fall_back_to_euclid(self, euclid_calls):
        rng = random.Random(20261020)
        for _ in range(40):
            f = rand_int_poly(rng, rng.randint(1, 3), 8)
            g = rand_int_poly(rng, rng.randint(0, 4), 8)
            p = f ** rng.randint(2, 3) * g * Fraction(rng.randint(1, 9),
                                                      rng.randint(1, 9))
            euclid_calls.clear()
            assert squarefree_part(p) == squarefree_by_euclid(p)
            assert squarefree_part(p).degree < p.degree
            assert euclid_calls

    def test_square_free_skips_euclid(self, euclid_calls):
        rng = random.Random(20261021)
        for _ in range(40):
            p = rand_int_poly(rng, rng.randint(2, 12), 30) * Fraction(
                1, rng.randint(1, 10**6))
            want = squarefree_by_euclid(p)
            euclid_calls.clear()
            assert squarefree_part(p) == want == p.monic()
            assert not euclid_calls

    def test_leading_coefficient_divisible_by_the_prime(self, euclid_calls):
        for p in (PRIME * S**3 + S + 1, (PRIME * S + 1) ** 2 * (S - 2),
                  2 * PRIME * S**2 - 1, Fraction(1, 3) * (PRIME * S + 5)):
            euclid_calls.clear()
            assert squarefree_part(p) == squarefree_by_euclid(p)
            assert euclid_calls

    def test_prime_divides_the_discriminant(self, euclid_calls):
        # square-free over Q, with a repeated root modulo the prime
        for p in (S**2 + PRIME, (S - 1) * (S - 1 - PRIME),
                  (S**2 - 2) * (S - 3) * (S - 3 + 5 * PRIME),
                  (S + Fraction(1, 2)) * (S + Fraction(1, 2) + PRIME)):
            assert poly_gcd(p, p.derivative()) == Poly.one()
            euclid_calls.clear()
            assert squarefree_part(p) == squarefree_by_euclid(p) == p.monic()
            assert euclid_calls

    @pytest.mark.parametrize("p", [Poly([5]), Poly([Fraction(-3, 7)]),
                                   3 * S + 1, Fraction(2, 5) * S - 7,
                                   PRIME * S + 1, Poly([0, 1])])
    def test_degrees_zero_and_one(self, p):
        assert squarefree_part(p) == squarefree_by_euclid(p) == p.monic()

    def test_400_bit_coefficients(self, euclid_calls):
        rng = random.Random(20261022)
        for deg in (10, 20):
            p = rand_int_poly(rng, deg, 400)
            euclid_calls.clear()
            assert squarefree_part(p) == squarefree_by_euclid(p) == p.monic()
            assert not euclid_calls
            f, g = rand_int_poly(rng, deg // 5, 200), rand_int_poly(rng, deg // 2, 400)
            q = f * f * g
            assert squarefree_part(q) == squarefree_by_euclid(q)
            assert squarefree_part(q).degree == f.degree + g.degree

    @given(polys, polys)
    @settings(max_examples=80, deadline=None)
    def test_matches_euclid(self, p, q):
        for r in (p, p * p * q):
            if not r.is_zero:
                assert squarefree_part(r) == squarefree_by_euclid(r)


class TestModularCoprime:
    """`_coprime_mod` takes high-first residue lists of any lengths, with
    leading zeros; `shown_coprime` adds the leading-coefficient rule that
    makes its True a proof over Q."""

    @pytest.mark.parametrize("a,b,want", [
        ([1, 0, PRIME - 1], [1, 0, 1], True),      # s^2 - 1, s^2 + 1
        ([1, 0, PRIME - 1], [1, PRIME - 2, 1], False),  # (s - 1)^2 shares s - 1
        ([3, 1], [6, 2], False),                   # equal lengths, proportional
        ([1, 2, 3], [5], True), ([5], [0, 1, 1], True),  # constant b
        ([1, 2], [0, 0], False), ([1, 2], [], False),  # b = 0 mod the prime
        ([7], [0], True), ([0], [0], False), ([], [], False),
        ([0, 0, 1, 0, PRIME - 1], [0, 1, 0, 1], True),  # leading zeros
        ([0, 1, 1], [1, 1], False)])
    def test_contract(self, a, b, want):
        assert _coprime_mod(a, b, PRIME) is want
        assert _coprime_mod(b, a, PRIME) is want

    def test_leading_coefficient_rule(self):
        h = PRIME * S - PRIME - 1  # a unit modulo the prime
        assert poly_gcd(h * (S + 2), 3 * h).degree == 1
        assert not shown_coprime(h * (S + 2), 3 * h)
        assert shown_coprime(PRIME * S + 1, S + 5)       # one lc is enough
        assert not shown_coprime(PRIME * S + 1, PRIME * S + 2)
        assert not shown_coprime(Poly.zero(), Poly.one())
        assert shown_coprime(Poly([Fraction(2, 3)]), Poly.one())

    @given(polys, polys, polys, st.integers(-3, 3))
    @settings(max_examples=120, deadline=None)
    def test_true_means_constant_gcd(self, p, r, f, c):
        h = PRIME * S + c
        for a, b in ((p, r), (p * f, r * f), (p * h, r * h), (p * h * f, r * f)):
            if shown_coprime(a, b):
                assert poly_gcd(a, b).degree == 0


class TestRealRoots:
    def test_spec_examples(self):
        assert find_negative_point(Poly([0, 0, 2])) is None  # 2 t^2
        assert find_negative_point(Poly([-1, 0, 1])) is not None  # t^2 - 1
        q = 2 * S**2 * (1 - S**2) ** 2
        assert find_negative_point(q) is None

    def test_negative_point_is_exact(self):
        t = find_negative_point(Poly([-1, 0, 1]))
        assert t is not None and Poly([-1, 0, 1])(t) < 0

    def test_no_real_roots_negative_poly(self):
        h = -(S**4 + 5 * S**2 + 4)
        assert find_negative_point(h) is not None

    def test_isolation_counts(self):
        p = (S - 1) * (S + 2) * (S**2 + 1)
        iv = isolate_real_roots(p)
        assert len(iv) == 2
        assert count_real_roots(p, Fraction(-10), Fraction(10)) == 2

    def test_agreement_with_dense_sampling_200(self):
        """Exact decision vs 10^4-point sampling on [-100, 100]."""
        rng = random.Random(2024)
        xs = np.linspace(-100.0, 100.0, 10_000)
        checked = 0
        while checked < 200:
            deg = rng.randint(0, 8)
            p = Poly([Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)])
            if p.is_zero:
                continue
            checked += 1
            vals = np.polyval([float(c) for c in p.coeffs[::-1]], xs)
            if find_negative_point(p) is None:
                assert vals.min() >= -1e-9 * (1.0 + np.abs(vals).max())
            else:
                t = find_negative_point(p)
                assert p(t) < 0  # exact witness


class TestBdf:
    def test_d_dt_gives_one(self):
        assert bdf_phi(S) == TwoVarPoly([[1]])

    def test_constant_gives_zero(self):
        assert bdf_phi(Poly.constant(7)).is_zero

    def test_square_gives_xi_minus_eta(self):
        assert bdf_phi(S**2) == TwoVarPoly([[0, -1], [1, 0]])

    @given(st.lists(small_fracs, min_size=1, max_size=7).map(Poly))
    @settings(max_examples=60, deadline=None)
    def test_divided_difference_identity(self, p):
        """(xi+eta) * Phi_p(xi,eta) == p(xi) - p(-eta), exactly."""
        phi = bdf_phi(p)
        lhs = phi.mul_xi_plus_eta()
        rhs = two_var_of_poly_in_xi(p) - two_var_of_poly_in_minus_eta(p)
        assert lhs == rhs

    def test_two_var_eval(self):
        phi = bdf_phi(S**3)
        x, y = Fraction(2), Fraction(3)
        expected = ((S**3)(x) - (S**3)(-y)) / (x + y)
        assert phi.eval(x, y) == expected


# -- the integer layout against the Fraction-per-coefficient reference ----------


class _RefPoly:
    """The Fraction-per-coefficient ring operations that the integer layout
    replaced, kept as an independent reference: coeffs[k] multiplies s^k."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return _RefPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __neg__(self):
        return _RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _RefPoly(c * other for c in self.coeffs)
        if not (self.coeffs and other.coeffs):
            return _RefPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _RefPoly(out)

    def __divmod__(self, other):
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dd = len(other.coeffs) - 1
        while rem and len(rem) - 1 >= dd:
            c = rem[-1] / other.coeffs[-1]
            k = len(rem) - 1 - dd
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return _RefPoly(q), _RefPoly(rem)

    def derivative(self):
        return _RefPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def star(self):
        return _RefPoly(-c if k % 2 else c for k, c in enumerate(self.coeffs))

    def real_on_axis(self):
        return _RefPoly((-1) ** (k // 2) * c if k % 2 == 0 else 0
                        for k, c in enumerate(self.coeffs))

    def monic(self):
        if not self.coeffs:
            return self
        inv = 1 / self.coeffs[-1]
        return _RefPoly(c * inv for c in self.coeffs)

    def __call__(self, t):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_complex(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc


WIDE = st.integers(min_value=2**200, max_value=2**256)


def _wide_frac(q, d, neg):
    # q*d + 1 is coprime to d: numerator and denominator both keep 200+ bits
    n = q * d + 1
    return Fraction(-n if neg else n, d)


wide_fracs = st.builds(_wide_frac, st.integers(0, 2**64), WIDE, st.booleans())
rats = st.one_of(
    st.just(Fraction(0)),
    small_fracs,
    wide_fracs,
    st.integers(-(2**256), 2**256).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), WIDE),
)
coeff_lists = st.one_of(
    st.lists(rats, max_size=7),
    # one shared wide denominator, so sums and products must reduce
    st.builds(lambda ns, d: [Fraction(n, d) for n in ns],
              st.lists(st.integers(-(2**220), 2**220), max_size=6), WIDE),
)
divisor_lists = coeff_lists.filter(any)

BIG = Fraction(2**211 + 3, 3**140)  # 212-bit numerator, 222-bit denominator
BIG_NEG_LEAD = [Fraction(-(3**150), 2**205 + 3), BIG, -BIG]


def _canonical(p: Poly) -> Poly:
    """Assert the representation contract and hand p back."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) for c in p.num)
    if p.num:
        assert p.num[-1] != 0
        assert math.gcd(*p.num, p.den) == 1
    else:
        assert p.den == 1
    cs = p.coeffs
    assert all(isinstance(c, Fraction) for c in cs)
    assert all(math.gcd(c.numerator, c.denominator) == 1 for c in cs)
    assert not cs or cs[-1] != 0
    assert cs == tuple(Fraction(n, p.den) for n in p.num)
    return p


def _same(new: Poly, ref: _RefPoly):
    assert _canonical(new).coeffs == ref.coeffs


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


class TestAgainstFractionReference:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=150)
    @example([], [])
    @example([BIG], [])
    @example([BIG, -BIG, BIG], [-BIG, BIG, -BIG])
    def test_add_sub_mul(self, a, b):
        for op in (operator.add, operator.sub, operator.mul):
            _same(op(Poly(a), Poly(b)), op(_RefPoly(a), _RefPoly(b)))

    @given(coeff_lists, rats)
    @settings(max_examples=100)
    @example([BIG, 1], Fraction(0))
    @example([BIG, 1], -BIG)
    def test_scalar_mul(self, a, c):
        _same(Poly(a) * c, _RefPoly(a) * c)
        _same(c * Poly(a), _RefPoly(a) * c)
        if c.denominator == 1:
            _same(Poly(a) * int(c), _RefPoly(a) * c)

    @given(coeff_lists, divisor_lists, st.booleans())
    @settings(max_examples=200)
    @example([], [BIG], False)
    @example([BIG, 2, -BIG, 5, BIG], BIG_NEG_LEAD, False)
    @example([1, 2, 3, 4, 5, 6], [Fraction(-7, 3)], False)
    @example([BIG], [1, BIG], True)
    def test_divmod(self, a, b, negate):
        if negate:  # flips the sign of the divisor's leading coefficient
            b = [-c for c in b]
        q, r = divmod(Poly(a), Poly(b))
        rq, rr = divmod(_RefPoly(a), _RefPoly(b))
        _same(q, rq)
        _same(r, rr)
        _same(Poly(a) // Poly(b), rq)
        _same(Poly(a) % Poly(b), rr)

    @given(coeff_lists)
    @settings(max_examples=150)
    @example([])
    @example([BIG])
    @example(BIG_NEG_LEAD)
    def test_star_monic_derivative(self, a):
        _same(Poly(a).star(), _RefPoly(a).star())
        _same(Poly(a).monic(), _RefPoly(a).monic())
        _same(Poly(a).derivative(), _RefPoly(a).derivative())
        _same(-Poly(a), -_RefPoly(a))

    @given(coeff_lists)
    @settings(max_examples=150)
    @example([])
    @example([BIG, 0, -BIG, 0, BIG])
    @example([0, 0, 1, 1])
    def test_real_on_axis(self, a):
        even = [0 if k % 2 else c for k, c in enumerate(a)]
        _same(Poly(even).real_on_axis(), _RefPoly(even).real_on_axis())
        if any(a[1::2]):
            with pytest.raises(ValueError):
                Poly(a).real_on_axis()

    @given(coeff_lists, rats)
    @settings(max_examples=150)
    @example([], BIG)
    @example(BIG_NEG_LEAD, BIG)
    @example(BIG_NEG_LEAD, -BIG)
    @example([BIG], 0)
    def test_exact_evaluation(self, a, t):
        p, ref = Poly(a), _RefPoly(a)
        assert p(t) == ref(t) and isinstance(p(t), Fraction)
        if t.denominator == 1:
            assert p(int(t)) == ref(t)

    @given(coeff_lists, st.complex_numbers(max_magnitude=10, allow_nan=False,
                                           allow_infinity=False))
    @settings(max_examples=150)
    @example([], 1j)
    @example([BIG], 0j)
    @example(BIG_NEG_LEAD, complex(-0.0, 3.5))
    @example([Fraction(1, 3), Fraction(-1, 3), Fraction(10**400 + 1, 10**399)],
             complex(0.1, -2.0))
    def test_eval_complex_is_bit_identical(self, a, z):
        assert _bits(Poly(a).eval_complex(z)) == _bits(_RefPoly(a).eval_complex(z))

    def test_eval_complex_overflows_like_fraction(self):
        a = [1, Fraction(10**400, 3)]
        with pytest.raises(OverflowError):
            _RefPoly(a).eval_complex(1j)
        with pytest.raises(OverflowError):
            Poly(a).eval_complex(1j)


class TestRepresentation:
    def test_shared_factors_are_divided_out(self):
        p = Poly([Fraction(1, 6), Fraction(1, 3)])
        assert (p.num, p.den) == ((1, 2), 6)
        assert ((p * 6).num, (p * 6).den) == ((1, 2), 1)
        sq = Poly([Fraction(1, 2), Fraction(1, 2)]) + Poly([Fraction(1, 2), Fraction(-1, 2)])
        assert (sq.num, sq.den) == ((1,), 1)
        assert ((p - p).num, (p - p).den) == ((), 1)
        q, r = divmod(Poly([0, 0, 2]), Poly([0, -4]))
        assert ((q.num, q.den), r.is_zero) == (((0, -1), 2), True)

    @pytest.mark.parametrize("forms", [
        ([2], [Fraction(2)], ["2"], [2.0], ["4/2"]),
        ([Fraction(1, 2), Fraction(-3, 8)], ["1/2", "-3/8"], [0.5, -0.375],
         ["2/4", Fraction(-6, 16)]),
        ([0, Fraction(3, 4), 0], ["0", "3/4", "0/7"], [0.0, 0.75, -0.0],
         [0, "6/8"]),
        ([BIG, -1], [str(BIG), "-1"], [BIG, -1.0, 0]),
        ([], [0], ["0"], [0.0, Fraction(0)]),
    ])
    def test_equal_and_hash_across_constructors(self, forms):
        ps = [_canonical(Poly(f)) for f in forms]
        assert all(p == ps[0] for p in ps)
        assert len({hash(p) for p in ps}) == 1
        assert len({(p.num, p.den) for p in ps}) == 1

    def test_constants_compare_with_scalars(self):
        assert Poly(["3/4"]) == Fraction(3, 4) and Poly([2.0]) == 2
        assert Poly([]) == 0 and Poly([0.0]) == Fraction(0)
        assert Poly([1, 1]) != 1 and Poly(["3/4"]) != Fraction(3, 5)

    @pytest.mark.parametrize("name, value", [
        ("num", (3,)), ("den", 2), ("coeffs", ()), ("other", 1)])
    def test_setting_an_attribute_raises(self, name, value):
        p = Poly([1, Fraction(1, 2)])
        with pytest.raises(AttributeError):
            setattr(p, name, value)
        assert (p.num, p.den) == ((2, 1), 2)


# -- integer Sturm sequences against the rational Sturm chain ---------------------


def sturm_chain_by_fractions(p: Poly) -> list[Poly]:
    """The rational Sturm chain that the integer sign sequence replaced:
    each remainder negated and scaled by 1 / |lc|."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        r = -(chain[-2] % chain[-1])
        if r.is_zero:
            break
        chain.append(r * (1 / abs(r.leading)))
    return [q for q in chain if not q.is_zero]


def _variations_by_fractions(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_by_fractions(p: Poly, lo, hi) -> int:
    chain = sturm_chain_by_fractions(squarefree_part(p))
    return (_variations_by_fractions([q(lo) for q in chain])
            - _variations_by_fractions([q(hi) for q in chain]))


def _non_root_point_by_fractions(p: Poly, lo, hi) -> Fraction:
    span = hi - lo
    limit = max(int(p.degree) + 3, 4) if p.degree > 0 else 4
    while True:
        for k in range(2, limit + 1):
            t = lo + span / k
            if p(t) != 0:
                return t
        span = span / 3


def isolate_by_fractions(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Bisection from -(B + 1) and B + 1 with variations read there."""
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return []
    B = cauchy_bound(sf)
    chain = sturm_chain_by_fractions(sf)

    def var_at(t):
        return _variations_by_fractions([q(t) for q in chain])

    out = []
    stack = [(-B - 1, B + 1, var_at(-B - 1), var_at(B + 1))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 0:
            continue
        if va - vb == 1:
            out.append((a, b))
            continue
        m = _non_root_point_by_fractions(sf, a, b)
        vm = var_at(m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    out.sort()
    return out


def find_negative_by_fractions(p: Poly) -> Fraction | None:
    """Isolate first, then try one point per sign region."""
    if p.is_zero:
        return None
    if p.degree == 0:
        return Fraction(0) if p.coeff(0) < 0 else None
    intervals = isolate_by_fractions(p)
    if not intervals:
        return Fraction(0) if p(Fraction(0)) < 0 else None
    candidates = [intervals[0][0]]
    for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
        candidates.append(b1)
        if a2 != b1:
            candidates.append(a2)
    candidates.append(intervals[-1][1])
    return next((t for t in candidates if p(t) < 0), None)


T2 = S**2
ROOT_KINDS = ("even-no-root", "even-double", "even-simple", "zero-at-origin",
              "negative-lc", "odd", "wide")
pos_fracs = st.fractions(min_value=Fraction(1, 7), max_value=9,
                         max_denominator=7).filter(bool)
# odd numerators over 2^331, in (1/4, 2): wide, but with a root bound small
# enough that bisection stays shallow
wide_pos = st.builds(lambda k: Fraction(2 * k + 1, 2**331),
                     st.integers(2**328, 2**331 - 1))
# odd numerators over 2^2001, in (1, 2)
huge_pos = st.builds(lambda k: 1 + Fraction(2 * k + 1, 2**2001),
                     st.integers(0, 2**2000 - 1))


@st.composite
def root_cases(draw, kind):
    """(p, rational roots of p) of one kind: planted factors t^2 - u (real
    roots at +-sqrt(u), rational when u = q^2), t^2 + u (none) and t - q."""
    base = wide_pos if kind == "wide" else pos_fracs
    qs = draw(st.lists(base, min_size=1, max_size=3))
    squares = draw(st.lists(st.booleans(), min_size=len(qs), max_size=len(qs)))
    us = [q * q if sq else q for q, sq in zip(qs, squares)]
    roots = [q for q, sq in zip(qs, squares) if sq]
    roots += [-q for q in roots]
    v = draw(base)
    simple = Poly.one()
    for u in us:
        simple = simple * (T2 - u)
    if kind == "even-no-root":
        p = draw(st.sampled_from((1, -1))) * (T2 + v)
        for u in us:
            p = p * (T2 + u)
        roots = []
    elif kind == "even-double":
        p = simple * simple * (T2 + v)
    elif kind == "even-simple":
        p = simple * (T2 + v)
    elif kind == "zero-at-origin":
        p = S ** draw(st.integers(1, 3)) * simple
        roots.append(Fraction(0))
    elif kind == "negative-lc":
        p = -(simple ** draw(st.integers(1, 2))) * (T2 + v)
    elif kind == "odd":
        p = (S - v) * simple * draw(st.sampled_from((1, -1)))
        roots.append(v)
    else:
        # siso-sized: above 2,000 bits, with double, simple or no real roots
        shape = draw(st.sampled_from(("double", "simple", "none")))
        p = {"double": simple * simple, "simple": simple,
             "none": T2 + v}[shape]
        p = p * (T2 + draw(huge_pos))
        if shape == "none":
            roots = []
    return p, roots


class TestSturmAgainstFractionReference:
    @given(coeff_lists.filter(lambda c: Poly(c).degree > 0), st.booleans())
    @settings(max_examples=100)
    @example([BIG, -BIG, 0, BIG], False)
    @example(BIG_NEG_LEAD, False)
    @example([1, 0, -3, 0, -1], False)
    def test_sequence_is_a_positive_multiple_of_the_chain(self, c, even):
        """Element by element, the integer sequence has the chain's roots
        and the sign of its leading coefficient, for any p, square-free or
        not; the two then agree in sign at every point.  Even p skip every
        other pseudo-division step, so a signed scale shows there."""
        p = Poly(c)
        if even:
            p = Poly([x if k % 2 == 0 else 0 for k, x in enumerate(c)])
            if p.degree <= 0:
                return
        seq = passlab.poly._sturm_sequence(p.num)
        chain = sturm_chain_by_fractions(p)
        assert len(seq) == len(chain)
        for ints, q in zip(seq, chain):
            assert all(isinstance(x, int) for x in ints)
            assert math.gcd(*ints) == 1
            assert Poly(ints).monic() == q.monic()
            assert (ints[-1] > 0) == (q.leading > 0)

    @pytest.mark.parametrize("kind", ROOT_KINDS)
    def test_old_equals_new(self, kind):
        seen = []

        @given(root_cases(kind), small_fracs, small_fracs)
        @settings(max_examples=30)
        def check(case, lo, hi):
            p, roots = case
            if kind == "wide":
                assert max(c.bit_length() for c in p.num) > 2000
            seen.append(p)
            assert find_negative_point(p) == find_negative_by_fractions(p)
            assert isolate_real_roots(p) == isolate_by_fractions(p)
            # endpoints at roots of p too, where a variation count is
            # read from a sequence with a zero in it
            for a, b in [(lo, hi)] + [(lo, r) for r in roots] + \
                    [(r, hi) for r in roots]:
                assert count_real_roots(p, a, b) == count_by_fractions(p, a, b)

        check()
        assert len(seen) >= 25

    @pytest.mark.parametrize("p", [T2 + 1, -(T2 + 1) * (T2 + Fraction(1, 3)),
                                   (T2 + 2) ** 2 * (T2 + BIG)])
    def test_even_without_real_roots_is_counted_not_isolated(self, p,
                                                             monkeypatch):
        def isolate(_):
            raise AssertionError("isolated a polynomial with no real root")

        monkeypatch.setattr(passlab.poly, "isolate_real_roots", isolate)
        want = Fraction(0) if p.coeff(0) < 0 else None
        assert find_negative_point(p) == want


class TestDescartesSignCheck:
    """An even p(t) = k(t^2) with p(0) > 0 and no negative coefficient in k
    passes with no Sturm sequence: k has no sign change, so by Descartes'
    rule no positive root."""

    @given(st.integers(-5, 40).filter(bool),
           st.lists(st.integers(-3, 40), min_size=1, max_size=7))
    @settings(max_examples=150)
    @example(1, [0, 0, 1])
    @example(2, [-3, 1])
    @example(-1, [2, 1])
    def test_sign_check_agrees_with_the_sturm_path(self, k0, ks):
        p = Poly([c for x in [k0] + ks for c in (x, 0)])
        if p.degree <= 0:
            return
        seq = _sturm_sequence(p.num[0::2])
        no_positive_root = _sign_changes(c[0] for c in seq) == _changes_at_inf(seq, 1)
        if k0 > 0 and min(ks) >= 0:
            assert no_positive_root
        assert find_negative_point(p) == find_negative_by_fractions(p)

    @pytest.mark.parametrize("p", [T2 + 1, (T2 + 2) ** 3 * (T2 + BIG),
                                   T2 ** 4 + 3 * T2 ** 2 + Fraction(1, 7)])
    def test_sign_check_builds_no_sturm_sequence(self, p, monkeypatch):
        def refuse(_):
            raise AssertionError("built a Sturm sequence")

        monkeypatch.setattr(passlab.poly, "_sturm_sequence", refuse)
        assert find_negative_point(p) is None
