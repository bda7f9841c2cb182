import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import siso_sweep_system

from passlab.numeric import (AXIS, OPEN_LHP, OPEN_RHP, LosslessInfeasibleError,
                             LyapunovError, Tolerance, closed_rhp,
                             hermitian_psd, lossless_lyap_solve,
                             lyapunov_solve, region_of, roots,
                             stable_unstable_split, symmetric_basis)
from passlab.poly import Poly, squarefree_decomposition
from passlab.prpair import PASS, check_pair
from passlab.statespace import realize_behavior

S = Poly.x()


class TestRoots:
    def test_pure_imaginary_pair(self):
        rs = roots(S**2 + 1)
        assert [region_of(z) for z in rs] == [AXIS, AXIS]
        assert [round(z.imag, 6) for z in rs] == [-1.0, 1.0]

    def test_double_root_multiplicity(self):
        # (s + 1)^2: the double root is listed once
        assert roots((S + 1) ** 2) == [pytest.approx(-1.0 + 0j)]

    def test_sqrt_two(self):
        rs = roots(S**2 - 2)
        assert abs(rs[0].real + math.sqrt(2)) < 1e-12
        assert abs(rs[1].real - math.sqrt(2)) < 1e-12
        assert [region_of(z) for z in rs] == [OPEN_LHP, OPEN_RHP]

    def test_multiplicities_sum_to_degree_and_residual(self):
        """Each distinct root is a root of one factor of the square-free
        decomposition, whose index is its multiplicity; over the roots,
        those sum to the degree."""
        rng = random.Random(41)
        polys = [(S + 1) ** 3 * (S**2 + 1) ** 2 * (S - 2)]
        for _ in range(40):
            deg = rng.randint(1, 10)
            polys.append(Poly([Fraction(rng.randint(-1000, 1000))
                               for _ in range(deg + 1)]))
        for p in polys:
            if p.is_zero or p.degree < 1:
                continue
            rs = roots(p)
            assert rs == sorted(rs, key=lambda z: (z.real, z.imag))
            factors = squarefree_decomposition(p)
            assert sum(min(factors, key=lambda fm: abs(fm[0].eval_complex(z)))[1]
                       for z in rs) == p.degree
            norm = max(abs(float(c)) for c in p.coeffs)
            for z in rs:
                assert abs(p.eval_complex(z)) <= 1e-6 * norm * max(1.0, abs(z)) ** p.degree

    @pytest.mark.parametrize("seed", [1, 2])
    def test_polish_keeps_roots_of_wide_coefficients(self, seed):
        """SISO d = 40 is passive by construction, and det(P + Q) has
        400-bit coefficients.  On seed 1, Newton steps taken whatever |f|
        does move the eigenvalue at -45.148 to +70.056 (|f| grows from
        1.9e63 to 2.2e84), and condition 1 reads a right half-plane zero."""
        ss = siso_sweep_system(random.Random(seed), 40)
        assert check_pair(*realize_behavior(ss)).overall == PASS

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(Poly.zero())


def closed_rhp_inline(points, tol):
    """Reference for closed_rhp: the rule condition 1 and rank_drops once
    typed inline."""
    bad = [z for z in points if region_of(z, tol) in (AXIS, OPEN_RHP)]
    bad10 = [z for z in points
             if region_of(z, tol, band_scale=10.0) in (AXIS, OPEN_RHP)]
    return bad, (len(bad) == 0) == (len(bad10) == 0)


class TestRegionPolicy:
    def test_axis_band_is_relative(self):
        tol = Tolerance()
        assert region_of(1e-10 + 5j, tol) == AXIS
        assert region_of(0.1 + 5j, tol) == OPEN_RHP
        assert region_of(-0.1, tol) == OPEN_LHP

    def test_closed_rhp_matches_inline_rule(self):
        """Real parts at k * axis_band * (1 + |z|) straddle both edges of the
        band and of its tenfold widening."""
        tol = Tolerance()
        ks = [0, 0.5, 1, 2, 9.5, 10, 10.5, 20]
        ks += [-k for k in ks[1:]]
        rng = random.Random(22)
        sets = [[], [-1.0, -2 + 3j, -1e-3 - 1e3j],
                [-2e-9 * (1 + 4.0) + 4j, -9.5e-9 - 0j]]
        for _ in range(300):
            pts = []
            for _ in range(rng.randint(1, 5)):
                im = rng.choice([0.0, rng.uniform(-100.0, 100.0)])
                k = rng.choice(ks)
                pts.append(complex(k * tol.axis_band * (1.0 + abs(im)), im))
            sets.append(pts)
        robust_seen = set()
        for pts in sets:
            hits, robust = closed_rhp(iter(pts), tol)
            assert (hits, robust) == closed_rhp_inline(pts, tol)
            robust_seen.add((bool(hits), robust))
        assert robust_seen == {(False, True), (False, False), (True, True)}
        assert closed_rhp(sets[0], tol) == ([], True)
        assert closed_rhp(sets[1], tol) == ([], True)
        assert closed_rhp(sets[2], tol) == ([], False)


class TestLyapunov:
    def test_scalar_rc(self):
        l_val = 2 - math.sqrt(2)
        X = lyapunov_solve(np.array([[-1.0]]), np.array([[l_val**2]]))
        assert abs(X[0, 0] - (3 - 2 * math.sqrt(2))) < 1e-12

    def test_zero_rhs(self):
        X = lyapunov_solve(-np.eye(2), np.zeros((2, 2)))
        assert np.allclose(X, 0)

    def test_decoupled_diagonal(self):
        X = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(X, np.diag([0.5, 0.25]))

    def test_resonance_rejected(self):
        with pytest.raises(LyapunovError, match="singular Lyapunov"):
            lyapunov_solve(np.array([[0.0]]), np.array([[1.0]]))

    def test_residual_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.integers(1, 5)
            A = -np.eye(d) * rng.uniform(0.5, 2) + 0.3 * rng.standard_normal((d, d))
            if any(abs(l1 + l2) < 1e-6 for l1 in np.linalg.eigvals(A)
                   for l2 in np.linalg.eigvals(A)):
                continue
            Q = rng.standard_normal((d, d))
            Q = Q + Q.T
            X = lyapunov_solve(A, Q)
            res = np.linalg.norm(-A.T @ X - X @ A - Q)
            assert res <= 1e-8 * (1 + np.linalg.norm(Q))


class TestLossless:
    def test_oscillator_identity(self):
        Au = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Bu = np.array([[0.0], [1.0]])
        Cu = np.array([[0.0, 1.0]])
        Xu = lossless_lyap_solve(Au, Bu, Cu)
        assert np.allclose(Xu, np.eye(2), atol=1e-9)

    def test_integrator(self):
        Xu = lossless_lyap_solve(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        assert abs(Xu[0, 0] - 1.0) < 1e-12

    def test_sign_flip_infeasible(self):
        Au = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Bu = np.array([[0.0], [1.0]])
        Cu = np.array([[0.0, -1.0]])
        with pytest.raises(LosslessInfeasibleError, match="infeasible"):
            lossless_lyap_solve(Au, Bu, Cu)

    def test_symmetric_basis_is_the_double_loop_basis(self):
        """The basis lossless_lyap_solve once built in a double loop, in its
        order, and X from its upper triangle bit for bit."""
        rng = np.random.default_rng(3)
        for d in range(1, 6):
            ref = []
            for i in range(d):
                for j in range(i, d):
                    E = np.zeros((d, d))
                    E[i, j] = E[j, i] = 1.0
                    ref.append(E)
            iu, ju, E = symmetric_basis(d)
            assert np.array_equal(E, np.reshape(ref, (len(ref), d, d)))
            X = rng.standard_normal((d, d))
            X = X + X.T
            assert np.array_equal(sum(c * Ek for c, Ek in zip(X[iu, ju], E)), X)


class TestPsd:
    def test_identity(self):
        ok, w = hermitian_psd(np.eye(3, dtype=complex))
        assert ok and w is None

    def test_off_diagonal_indefinite(self):
        c = 2.0 + 1.0j
        H = np.array([[0, c], [np.conj(c), 0]])
        ok, w = hermitian_psd(H)
        assert not ok
        val = np.real(w.conj() @ H @ w)
        assert val < -abs(c) * 0.99  # eigenvalue -|c|

    def test_zero_matrix_is_psd(self):
        ok, _ = hermitian_psd(np.zeros((2, 2), dtype=complex))
        assert ok

    def test_monotone_under_shift(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            H = M @ M.conj().T
            ok, _ = hermitian_psd(H)
            assert ok
            ok2, _ = hermitian_psd(H + 0.5 * np.eye(3))
            assert ok2

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSplit:
    def test_diagonal(self):
        sp = stable_unstable_split(np.diag([-1.0, 2.0]))
        assert sp.As.shape == (1, 1) and abs(sp.As[0, 0] + 1) < 1e-12
        assert sp.Au.shape == (1, 1) and abs(sp.Au[0, 0] - 2) < 1e-12

    def test_axis_goes_unstable(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sp = stable_unstable_split(A)
        assert sp.As.shape == (0, 0) and sp.Au.shape == (2, 2)

    def test_oscillator_with_integrator(self):
        A = np.array([[0.0, 0, 1], [0, 0, 1], [0, -1, 0]])
        sp = stable_unstable_split(A)
        assert sp.As.shape == (0, 0)
        eigs = sorted(np.linalg.eigvals(sp.Au), key=lambda z: (z.real, z.imag))
        assert np.allclose(sorted(np.round(np.imag(eigs), 9)), [-1, 0, 1])

    def test_similarity_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            A = rng.standard_normal((d, d))
            lams = np.linalg.eigvals(A)
            if any(abs(z.real) < 1e-6 for z in lams):
                continue
            sp = stable_unstable_split(A)
            k = sp.As.shape[0]
            block = np.zeros((d, d))
            block[:k, :k] = sp.As
            block[k:, k:] = sp.Au
            res = np.linalg.norm(sp.T @ A @ sp.Tinv - block)
            assert res <= 1e-8 * (1 + np.linalg.norm(A))
            assert all(z.real < 0 for z in np.linalg.eigvals(sp.As)) or k == 0
            assert all(z.real > -1e-9 * (1 + abs(z))
                       for z in np.linalg.eigvals(sp.Au)) or k == d
