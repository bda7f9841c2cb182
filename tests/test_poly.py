import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passlab.poly import (Poly, TwoVarPoly, bdf_phi, count_real_roots,
                          find_negative_point, isolate_real_roots,
                          nonneg_on_reals, poly_gcd,
                          squarefree_decomposition, squarefree_part,
                          two_var_of_poly_in_minus_eta, two_var_of_poly_in_xi)

S = Poly.x()

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

    def test_gauss_rational_evaluation(self):
        p = S**2 + 1
        re, im = p.eval_gauss(0, 1)  # p(i) = 0
        assert re == 0 and im == 0
        re, im = (S + 1).eval_gauss(Fraction(1, 2), Fraction(3, 2))
        assert re == Fraction(3, 2) and im == Fraction(3, 2)


class TestGcd:
    def test_gcd_of_shared_factor(self):
        g = poly_gcd((S + 1) * (S + 2), (S + 1) * (S - 3))
        assert g == (S + 1)

    def test_squarefree_decomposition(self):
        p = (S + 1) ** 3 * (S - 2)
        parts = dict((m, f) for f, m in squarefree_decomposition(p))
        assert parts[3] == (S + 1) and parts[1] == (S - 2).monic()
        assert squarefree_part(p) == ((S + 1) * (S - 2)).monic()


class TestRealRoots:
    def test_spec_examples(self):
        assert nonneg_on_reals(Poly([0, 0, 2]))        # 2 t^2
        assert not nonneg_on_reals(Poly([-1, 0, 1]))   # t^2 - 1
        q = 2 * S**2 * (1 - S**2) ** 2
        assert nonneg_on_reals(q)

    def test_negative_point_is_exact(self):
        t = find_negative_point(Poly([-1, 0, 1]))
        assert t is not None and Poly([-1, 0, 1])(t) < 0

    def test_no_real_roots_negative_poly(self):
        h = -(S**4 + 5 * S**2 + 4)
        assert not nonneg_on_reals(h)

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
            if nonneg_on_reals(p):
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
