import json
import math
import random
from fractions import Fraction

import fp_grid
import numpy as np
import pipeline_ref
import pytest
from conftest import (corpus, jordan_system, observable, siso_sweep_system,
                      transfer_at)
from test_corpus_reports import GOLDEN, _write_ss

from passlab import certificate
from passlab.certificate import (CertificateVerificationError,
                                 FactorizationError,
                                 UnsupportedFactorizationError, are_solve,
                                 construct_certificate, remark61_solve,
                                 spectral_factor_poly, verify_certificate)
from passlab.cli import main
from passlab.jsonio import rational_matrix_json
from passlab.poly import Poly
from passlab.polymatrix import PolyMat
from passlab.prpair import FAIL, PASS, check_pair
from passlab.signals import Signal
from passlab.statespace import (StateSpace, realize_behavior, simulate,
                                storage_check)

S = Poly.x()
SQ2 = math.sqrt(2)


def rc() -> StateSpace:
    return StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])


def coupled_rc(n: int, feedthrough: int = 1) -> StateSpace:
    """A = -diag(1..n), B = C = I + (J - I)/4, D = feedthrough I."""
    B = [[Fraction(1) if i == j else Fraction(1, 4) for j in range(n)]
         for i in range(n)]
    A = [[-(i + 1) if i == j else 0 for j in range(n)] for i in range(n)]
    D = [[feedthrough * int(i == j) for j in range(n)] for i in range(n)]
    return StateSpace.from_arrays(A, B, B, D)


def assert_reverifies(ss: StateSpace, cert) -> None:
    """The certificate passes verify_certificate again, spectral check
    included."""
    again = verify_certificate(ss, cert.X, cert.L, cert.W)
    assert again.spectral["ok"], again.spectral


def uncontrollable_oscillator() -> StateSpace:
    return StateSpace.from_arrays([[0, 0, 1], [0, 0, 1], [0, -1, 0]],
                                  [[1], [0], [0]], [[1, 1, 0]], [[1]])


class TestVerify:
    def test_capacitor_lossless_triple(self):
        cap = StateSpace.from_arrays([[0]], [[1]], [[1]], [[0]])
        cert = verify_certificate(cap, [[1.0]], np.zeros((0, 1)), np.zeros((0, 1)))
        assert max(cert.residuals.values()) == 0.0
        assert cert.psd_margin >= 1.0 - 1e-12

    def test_rc_hand_triple(self):
        cert = verify_certificate(rc(), [[3 - 2 * SQ2]], [[2 - SQ2]], [[SQ2]])
        assert max(cert.residuals.values()) < 1e-12
        assert cert.spectral is not None and cert.spectral["ok"]
        # Z = (sqrt2 s + 2)/(s + 1)
        z = cert.Z.eval(2.0)[0, 0]
        assert abs(z - (SQ2 * 2 + 2) / 3.0) < 1e-12

    def test_wrong_X_lists_violated_equations(self):
        with pytest.raises(CertificateVerificationError, match="lyapunov"):
            verify_certificate(rc(), [[1.0]], [[2 - SQ2]], [[SQ2]])

    def test_negative_X_rejected(self):
        # all four equations hold but X < 0
        with pytest.raises(CertificateVerificationError, match="PSD"):
            verify_certificate(
                StateSpace.from_arrays([[0.0]], [[0.0]], [[0.0]], [[1.0]]),
                [[-1.0]], [[0.0]], [[SQ2]])


class TestConstruct:
    def test_rc_chain_exact_values(self):
        res = construct_certificate(rc())
        assert res.status == "certified"
        c = res.certificate
        assert abs(c.X[0, 0] - (3 - 2 * SQ2)) < 1e-8
        assert abs(abs(c.L[0, 0]) - (2 - SQ2)) < 1e-8
        assert abs(abs(c.W[0, 0]) - SQ2) < 1e-8

    def test_lossless_oscillator_identity_storage(self):
        ss = StateSpace.from_arrays([[0, 1], [-1, 0]], [[0], [1]], [[0, 1]], [[0]])
        res = construct_certificate(ss)
        assert res.status == "certified"
        c = res.certificate
        assert np.allclose(c.X, np.eye(2), atol=1e-10)
        assert max(c.residuals.values()) <= 1e-10
        assert c.L.shape == (0, 2) and c.W.shape == (0, 1)

    def test_uncontrollable_oscillator_not_passive_with_witness(self):
        res = construct_certificate(uncontrollable_oscillator())
        assert res.status == "not-passive"
        assert res.verdict.cond2.status == FAIL
        lams = [w.lam for w in res.verdict.cond2.witnesses]
        assert any(abs(z - 1j) < 1e-6 for z in lams)

    def test_unobservable_block_gets_zero_storage(self):
        ss = StateSpace.from_arrays([[-1, 0], [0, -3]], [[1], [1]],
                                    [[1, 0]], [[1]])
        res = construct_certificate(ss)
        assert res.status == "certified"

    def test_near_axis_integrator_is_not_refuted(self):
        # G = 1 + 1e-9/s is passive, with X = 1e9, L = 0, W = sqrt(2); the
        # zero of det(P+Q) at -5e-10 sits in the axis band and must not
        # yield a witness from left of the axis
        ss = StateSpace.from_arrays([[0]], [[Fraction(1, 10**9)]], [[1]], [[1]])
        assert verify_certificate(ss, [[1e9]], [[0.0]], [[SQ2]]).spectral["ok"]
        res = construct_certificate(ss)
        assert res.status == "inconclusive"

    def test_hidden_lossless_realization_fails_cond3(self):
        # state-space realization of the pair (s+1, (s+1)s)
        from passlab.statespace import realize_statespace
        ss = realize_statespace(PolyMat([[S + 1]]), PolyMat([[(S + 1) * S]]))
        res = construct_certificate(ss)
        assert res.status == "not-passive"
        assert res.verdict.cond3.status == FAIL


class TestSpectralFactor:
    def test_scalar_example(self):
        sf = spectral_factor_poly(PolyMat([[4 - 2 * S * S]]))
        z = sf.Z.num[:, 0, 0]
        assert abs(z[1] - SQ2) < 1e-9 and abs(z[0] - 2) < 1e-9

    def test_axis_double_root(self):
        sf = spectral_factor_poly(PolyMat([[-S * S]]))
        z = sf.Z.num[:, 0, 0]
        assert abs(z[0]) < 1e-12 and abs(z[1] - 1) < 1e-9

    def test_orthogonal_freedom(self):
        """Any two factors are related by an orthogonal constant: for scalars,
        Z and -Z both verify."""
        H = PolyMat([[4 - 2 * S * S]])
        sf = spectral_factor_poly(H)
        z = sf.Z.num[:, 0, 0]
        for sign in (1.0, -1.0):
            vals = [abs(np.polyval((sign * z)[::-1], 1j * w)) ** 2
                    - complex(H[0, 0].eval_complex(1j * w)).real
                    for w in (0.3, 1.1, 2.7)]
            assert max(abs(v) for v in vals) < 1e-9

    def test_indefinite_density_rejected(self):
        with pytest.raises(FactorizationError, match="PSD-on-axis"):
            spectral_factor_poly(PolyMat([[S * S]]))  # (jw)^2 = -w^2 < 0

    def test_odd_axis_multiplicity_rejected(self):
        # h = -s^2 (s^2+1): h(jw) = w^2 (1 - w^2), negative for w > 1
        with pytest.raises(FactorizationError):
            spectral_factor_poly(PolyMat([[-S * S * (S * S + 1)]]))

    def test_nondiagonal_matrix_unsupported(self):
        H = PolyMat([[Poly.constant(2), Poly.one()],
                     [Poly.one(), Poly.constant(2)]])
        with pytest.raises(UnsupportedFactorizationError, match="unsupported"):
            spectral_factor_poly(H)

    def test_diagonal_case(self):
        H = PolyMat([[4 - 2 * S * S, Poly.zero()],
                     [Poly.zero(), Poly.constant(9)]])
        sf = spectral_factor_poly(H)
        assert sf.r == 2 and sf.diagnostics["ok"]

    def test_zero_density_rank_zero(self):
        sf = spectral_factor_poly(PolyMat([[Poly.zero()]]))
        assert sf.r == 0 and sf.Z.num.shape[1] == 0

    def test_ss_route_matches_polynomial_route(self):
        # a system's factor is its certificate's Z: |Z(jw)|^2 = 2 Re G(jw)
        cert = construct_certificate(rc()).certificate
        for w in (0.3, 1.7):
            z = cert.Z.eval(1j * w)[0, 0]
            G = transfer_at(rc(), 1j * w)[0, 0]
            assert abs(abs(z) ** 2 - 2 * G.real) < 1e-9

    def test_ss_route_rejects_near_axis_density(self):
        # G(s) = 1 + 1/(s - a) with a = 1e-12: G(0) + G(0)* = 2 (1 - 1/a) < 0
        # exactly, but no float witness shows it, so no factor is given and
        # nothing is refuted: the pair gate reads inconclusive
        ss = StateSpace.from_arrays([["1e-12"]], [[1]], [[1]], [[1]])
        res = construct_certificate(ss)
        assert res.status == "inconclusive" and res.certificate is None
        assert "w* = 0" in res.verdict.cond1.detail


class TestRemark61:
    def test_rc_single_equation(self):
        # K = sqrt2 s + 2, M = s + 1, A_s = -1, C_s = 1 -> L = 2 - sqrt2
        K = np.array([2.0, SQ2]).reshape(2, 1, 1)
        M = PolyMat([[S + 1]])
        L = remark61_solve(K, M, np.array([[-1.0]]), np.array([[1.0]]))
        assert abs(L[0, 0] - (2 - SQ2)) < 1e-10

    def test_zero_output_gives_zero_L(self):
        K = np.array([2.0, SQ2]).reshape(2, 1, 1)
        M = PolyMat([[S + 1]])
        L = remark61_solve(K, M, np.array([[-1.0]]), np.array([[0.0]]))
        assert abs(L[0, 0]) < 1e-12

    def test_complex_pair_consistency_via_full_pipeline(self):
        # G = (s+1)/(s^2+2s+2) + 1: stable complex pair -1 +/- j
        ss = StateSpace.from_arrays([[-1, 1], [-1, -1]], [[0], [1]],
                                    [[1, 0]], [[1]])
        res = construct_certificate(ss)
        assert res.status == "certified"
        assert max(res.certificate.residuals.values()) < 1e-8

    def test_defective_blocks_certify_without_a_flag(self):
        # one Jordan block at -1 of size 2 and of size 3 with D = 1: the
        # Riccati solve certifies these with no deflation
        # (test_defective_stable_block_certifies deflates D = 0)
        for C in ([[1, 0]], [[1, 0, 0]]):
            res = construct_certificate(jordan_system(C, [[1]]))
            assert res.status == "certified", (C, res.message)
            assert max(res.certificate.residuals.values()) < 1e-8

    @pytest.mark.parametrize("C", [[[1, 2]], [[1, 3, 3]]])
    def test_defective_stable_block_certifies(self, C):
        # one Jordan block at -1 with D = 0, so D + D^T is deflated on a
        # defective block: G = (2s + 3)/(s + 1)^2 and (3s^2 + 9s + 7)/(s + 1)^3
        ss = jordan_system(C, [[0]])
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert_reverifies(ss, res.certificate)


class TestBuildZx:
    """Z = W + L (sI - A)^-1 B as coefficient stacks over the exact
    characteristic polynomial, against the grid format it replaced."""

    def test_old_equals_new_json(self):
        systems = [(name, ss) for name, ss in corpus()]
        systems += [(f"siso d = {d} seed {seed}",
                     siso_sweep_system(random.Random(seed), d))
                    for d in range(2, 11) for seed in range(1, 6)]
        compared = 0
        for name, ss in systems:
            res = construct_certificate(ss)
            if res.status != "certified":
                continue
            c = res.certificate
            old = fp_grid.rational_matrix_json(fp_grid.build_zx(ss, c.L, c.W))
            assert json.dumps(old) == json.dumps(rational_matrix_json(c.Z)), name
            compared += 1
        assert compared == 20 + 45

    @pytest.mark.parametrize("d", [11, 12, 16, 20])
    def test_den_keeps_every_coefficient(self, d):
        ss = siso_sweep_system(random.Random(1), d)
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        den = res.certificate.Z.den
        assert len(den) == d + 1 and den[-1] == 1.0

    @pytest.mark.parametrize("d", [11, 12, 16, 20])
    def test_z_equals_the_state_space_value(self, d):
        ss = siso_sweep_system(random.Random(1), d)
        c = construct_certificate(ss).certificate
        for w in (0.5, 2.0, 1000.0):
            want = c.W + c.L @ np.linalg.solve(1j * w * np.eye(d) - ss.A, ss.B)
            got = c.Z.eval(1j * w)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), w

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zero_feedthrough_d12_certifies(self, seed):
        # D + D^T = 0 is deflated onto a Riccati solve of 11 states
        ss = siso_sweep_system(random.Random(seed), 12, D=((0,),))
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert_reverifies(ss, res.certificate)


def test_zero_feedthrough_pipeline_verify_exit(tmp_path, capsys):
    """D = 0 is deflated onto one Riccati solve, and the verify pass is the
    last gate.  The polynomial pipeline this replaced read a discrepancy at
    d = 14 (seed 2) and d = 16 (seed 1), where its stable stage's L drifted
    off the cross equation."""
    for d, seed in ((12, 1), (12, 2), (14, 1), (14, 2), (16, 1)):
        ss = siso_sweep_system(random.Random(seed), d, D=((0,),))
        res = construct_certificate(ss)
        assert res.status == "certified", (d, seed, res.message)
        assert_reverifies(ss, res.certificate)
    assert main(["specfact", "--ss", str(_write_ss(tmp_path, "siso16", ss))]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["ok"] is True


def random_passive_systems():
    """60 seeded systems, d = 1..4, D + D^T = 0 and I in turn."""
    rng = random.Random(314159)
    return [siso_sweep_system(rng, 1 + k % 4, [[Fraction(k % 2, 2)]])
            for k in range(60)]


def perturbed_kyp_systems():
    """40 seeded systems, passive (C = B^T, A + A^T < 0, D + D^T >= 0, so
    X = I solves the KYP inequality) and, for k = 1, 2 mod 4, perturbed."""
    rng = random.Random(271828)
    rat = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    systems = []
    for k in range(40):
        d, n = 1 + k % 3, 1 + k % 2
        M = np.array([[rat() for _ in range(d)] for _ in range(d)])
        Sk = np.array([[rat() for _ in range(d)] for _ in range(d)])
        A = -(M @ M.T + np.eye(d, dtype=int)) + Sk - Sk.T
        B = np.array([[rat() for _ in range(n)] for _ in range(d)])
        C = B.T.copy()
        D = np.eye(n, dtype=int) * Fraction(rng.randint(0, 2), 2)
        if k % 4 == 1:
            C[0, 0] += rat()
        elif k % 4 == 2:
            D = D - Fraction(3, 2) * np.eye(n, dtype=int)
        systems.append(StateSpace.from_arrays(A.tolist(), B.tolist(),
                                              C.tolist(), D.tolist()))
    return systems


def lure_system(rng: random.Random, d: int, n: int, r: int, rank_w: int,
                hidden: bool, unobservable: int) -> StateSpace:
    """A passive system built around its certificate.  With X = diag(x) > 0,
    J and N skew, L (r x d) and W (r x n, rank at most rank_w),

        A = X^-1 (J - L^T L / 2),  C = B^T X + W^T L,  D = W^T W / 2 + N

    make (X, L, W) a Lur'e triple, so rank(D + D^T) <= rank_w, and r = 0
    makes A lossless.  `hidden` appends a stable mode that B does not reach
    (with L extended by a column l, and X by 1), and each of the
    `unobservable` modes after it is reached but not seen (X extended by 0);
    the first of those is unstable."""
    rat = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    grid = lambda rows, cols: np.array(
        [[rat() for _ in range(cols)] for _ in range(rows)],
        dtype=object).reshape(rows, cols)
    zeros = lambda rows, cols: np.zeros((rows, cols), dtype=int).astype(object)
    half = Fraction(1, 2)
    x = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(d)]
    J, N, B, L, W = grid(d, d), grid(n, n), grid(d, n), grid(r, d), grid(r, n)
    W[rank_w:] = 0
    Xinv = np.diag([1 / v for v in x]).astype(object).reshape(d, d)
    A = Xinv @ (J - J.T - half * L.T @ L)
    C = B.T @ np.diag(x).astype(object).reshape(d, d) + W.T @ L
    D = half * W.T @ W + N - N.T
    if hidden and r:
        l = grid(r, 1)
        l[0, 0] = Fraction(1)
        A = np.block([[A, -Xinv @ L.T @ l], [zeros(1, d), -half * l.T @ l]])
        B = np.vstack([B, zeros(1, n)])
        C = np.hstack([C, W.T @ l])
    for k in range(unobservable):
        m = len(A)
        a = np.array([[Fraction(rng.randint(1, 3) * (1 if k == 0 else -1))]])
        A = np.block([[A, zeros(m, 1)], [grid(1, m), a]])
        B = np.vstack([B, grid(1, n)])
        C = np.hstack([C, zeros(n, 1)])
    return StateSpace.from_arrays(A.tolist(), B.tolist(), C.tolist(), D.tolist())


def non_passive_twin(ss: StateSpace) -> StateSpace:
    """-G where G(1/2) + G(1/2)^T is not zero: a passive G makes it PSD, so
    -G is not positive real.  Otherwise G with D[0, 0] = -1, so that
    D + D^T, the value of G + G* at infinity, has a negative diagonal."""
    H = transfer_at(ss, 0.5)
    neg = lambda grid: [[-x for x in row] for row in grid]
    if np.linalg.norm(H + H.T) > 1e-6:
        return StateSpace.from_arrays(ss.A_exact, ss.B_exact, neg(ss.C_exact),
                                      neg(ss.D_exact))
    D = [list(row) for row in ss.D_exact]
    D[0][0] = Fraction(-1)
    return StateSpace.from_arrays(ss.A_exact, ss.B_exact, ss.C_exact, D)


def _status_family(family: str) -> list:
    """(system, the status the polynomial pipeline gave or should have) for
    one family of TestOneRoute."""
    if family == "corpus":
        golden = json.loads(GOLDEN.read_text())
        return [(ss, json.loads(golden[f"certify {name}"]["stdout"])["status"])
                for name, ss in corpus()]
    if family == "positive-real-pair":
        status = {PASS: "certified", FAIL: "not-passive"}
        return [(ss, status[check_pair(*realize_behavior(ss)).overall])
                for ss in perturbed_kyp_systems()]
    systems = {
        "random-passive": random_passive_systems,
        "jordan": lambda: [jordan_system(C, [[D]]) for C, D in (
            ([[1, 2]], 0), ([[1, 3, 3]], 0), ([[1, 2]], 1), ([[1, 3, 3]], 1),
            ([[1, 0]], 1), ([[1, 0, 0]], 1))],
        "siso-d0": lambda: [siso_sweep_system(random.Random(seed), d, D=((0,),))
                            for d in range(1, 15) for seed in (1, 2)],
    }[family]()
    return [(ss, "certified") for ss in systems]


class TestOneRoute:
    """One route certifies what the polynomial pipeline did, and what it
    reported unsupported or a discrepancy on."""

    @pytest.mark.parametrize("family", ["corpus", "random-passive", "jordan",
                                        "siso-d0", "positive-real-pair"])
    def test_statuses_match_the_pipeline(self, family):
        """The pipeline's statuses: the golden reports on the corpus,
        certified on the random passive systems, the Jordan blocks and SISO
        D = 0 at d <= 14 (where it read two discrepancies), and the pair
        verdict on the perturbed KYP systems (where it read three
        unsupported).  Every certificate re-verifies."""
        for k, (ss, want) in enumerate(_status_family(family)):
            res = construct_certificate(ss)
            assert res.status == want, (k, res.message)
            if want == "certified":
                assert_reverifies(ss, res.certificate)

    @pytest.mark.parametrize("dv", ["1e-6", "1e-8", "1e-9", "1e-10", "1e-12"])
    def test_tiny_feedthrough_certifies(self, dv):
        """A feedthrough that is tiny against the dynamics: eigenvalues of
        D + D^T at or below tol.psd_tol (1 + |D + D^T|) are deflated, and
        above that cut the Riccati solve takes R^-1 as large as 5e8.  SISO
        systems, a diagonal two-port with D = dv I and one with
        D = diag(1, dv) all certify and re-verify."""
        systems = [
            StateSpace.from_arrays([[-1]], [[1]], [[1]], [[dv]]),
            StateSpace.from_arrays([[-1, 0], [0, -3]], [[1], [1]], [[1, 2]], [[dv]]),
            StateSpace.from_arrays([[0, 1], [-1, "-0.1"]], [[0], [1]], [[0, 1]], [[dv]]),
            StateSpace.from_arrays([[-1, 0], [0, -2]], [[1, 0], [0, 1]],
                                   [[1, 0], [0, 1]], [[dv, 0], [0, dv]]),
            StateSpace.from_arrays([[-1, 0], [0, -2]], [[1, 0], [0, 1]],
                                   [[1, 0], [0, 1]], [[1, 0], [0, dv]]),
        ]
        for k, ss in enumerate(systems):
            res = construct_certificate(ss)
            assert res.status == "certified", (k, res.message)
            assert_reverifies(ss, res.certificate)

    def test_lure_systems_certify_and_twins_do_not(self):
        """Seeded passive systems with rank(D + D^T) from 0 to n, lossless
        A, and hidden and unobservable modes: each certifies and re-verifies,
        and its non-passive twin never certifies."""
        rng = random.Random(2011)
        for k in range(240):
            n = 1 + k % 3
            rank_w = k // 3 % (n + 1)
            ss = lure_system(rng, k % 5, n, rank_w + k // 5 % 2, rank_w,
                             hidden=k % 4 == 3, unobservable=k // 2 % 3)
            res = construct_certificate(ss)
            assert res.status == "certified", (k, res.message)
            assert_reverifies(ss, res.certificate)
            twin = construct_certificate(non_passive_twin(ss))
            assert twin.status != "certified", k

    def test_lossless_siso_certifies(self):
        """Lossless SISO systems at d = 8..16 (D = 0, every mode on the
        axis): their storage comes from the lossless split.  Deflating them
        instead would run d levels deep, a Cauer continued fraction, and
        fail the verify pass."""
        rng = random.Random(16)
        for d in range(8, 17):
            ss = lure_system(rng, d, 1, 0, 0, hidden=False, unobservable=0)
            res = construct_certificate(ss)
            assert res.status == "certified", (d, res.message)
            assert_reverifies(ss, res.certificate)


class TestAre:
    def test_rc_two_roots_selects_stabilizing(self):
        res = are_solve(rc())
        assert abs(res.X[0, 0] - (3 - 2 * SQ2)) < 1e-10
        assert abs(res.closed_loop_spec[0] - (-SQ2)) < 1e-8
        assert res.stabilizing

    def test_decoupled_zero(self):
        ss = StateSpace.from_arrays([[-1]], [[0]], [[0]], [[1]])
        res = are_solve(ss)
        assert abs(res.X[0, 0]) < 1e-12

    def test_pi_residual_bound(self):
        res = are_solve(rc())
        assert res.residual <= 1e-10

    def test_requires_positive_definite_feedthrough(self):
        ss = StateSpace.from_arrays([[0]], [[1]], [[1]], [[0]])
        with pytest.raises(ValueError, match="positive definite"):
            are_solve(ss)

    def test_newton_fallback_on_axis_hamiltonian(self):
        # integrator + unit feedthrough: double Hamiltonian eigenvalue at 0
        ss = StateSpace.from_arrays([[0]], [[1]], [[1]], [[1]])
        res = are_solve(ss)
        assert res.residual <= 1e-10
        assert abs(res.X[0, 0] - 1.0) < 1e-6




class TestRandomPassiveFamily:
    def test_partial_fraction_positive_systems_certify(self):
        """Random G(s) = d + sum c_i / (s + a_i) with a_i, c_i, d > 0 is
        passive; the constructed certificate must verify and satisfy the
        storage inequality on simulated trajectories."""
        rng = random.Random(9001)
        built = 0
        while built < 12:
            order = rng.randint(1, 3)
            avals = sorted({round(rng.uniform(0.3, 4.0), 2)
                            for _ in range(order)})
            if len(avals) < order:
                continue
            cvals = [rng.uniform(0.2, 2.0) for _ in avals]
            d0 = rng.uniform(0.0, 2.0)
            A = np.diag([-a for a in avals])
            B = np.ones((len(avals), 1))
            C = np.array([cvals])
            ss = StateSpace.from_arrays(A, B, C, [[d0]])
            res = construct_certificate(ss)
            assert res.status == "certified", (avals, cvals, d0, res.message)
            cert = res.certificate
            assert max(cert.residuals.values()) <= 1e-8
            u = Signal.sine(freq=rng.uniform(0.5, 2.0)) \
                + Signal.exponential(-0.2, coef=rng.uniform(-1, 1))
            x0 = [rng.uniform(-1, 1) for _ in range(ss.d)]
            traj = simulate(ss, x0, u, 0.0, 5.0, 1e-3)
            chk = storage_check(ss, cert.X, cert.L, cert.W, traj)
            assert chk.identity_residual < 1e-6
            assert chk.dissipation_slack > -1e-6
            built += 1

    def test_negated_residue_refuted(self):
        """Flipping one residue to a large negative value breaks the axis
        PSD condition and must be refuted, not certified."""
        ss = StateSpace.from_arrays(np.diag([-1.0, -2.0]), [[1], [1]],
                                    [[-3.0, 0.5]], [[0.2]])
        res = construct_certificate(ss)
        assert res.status == "not-passive"


class TestUnsupportedReporting:
    def test_coupled_mimo_density_reports_unsupported(self):
        """A passive strictly proper coupled 2-port (D = 0) whose density is
        a full polynomial matrix, which the polynomial pipeline reported as
        unsupported: deflating D + D^T certifies it."""
        ss = coupled_rc(2, feedthrough=0)
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert res.verdict is not None and res.verdict.overall == PASS
        assert_reverifies(ss, res.certificate)

    def test_coupled_mimo_with_pd_feedthrough_certifies(self):
        """The same kind of full density with D + D^T > 0 certifies by the
        Riccati route."""
        ss = StateSpace.from_arrays([[-1.0, 0.0], [0.0, -1.0]],
                                    [[1.0, 0.0], [0.0, 1.0]],
                                    [[1.0, 1.0], [0.0, 1.0]],
                                    [[2.0, 0.0], [0.0, 2.0]])
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert res.verdict.overall == PASS
        assert_reverifies(ss, res.certificate)


class TestRiccatiRoute:
    """Once check_pair passes, a stable observable system with D + D^T > 0
    certifies from one Riccati solve."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [12, 14])
    def test_large_siso_certifies(self, seed, d):
        ss = siso_sweep_system(random.Random(seed), d)
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert_reverifies(ss, res.certificate)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_coupled_rc_certifies(self, n):
        ss = coupled_rc(n)
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert_reverifies(ss, res.certificate)

    def test_notch_certifies_through_newton(self, monkeypatch):
        # G = (s^2 + 1)/(s^2 + s + 1): G + G* vanishes at w = 1, so the
        # Hamiltonian has axis eigenvalues and Newton solves the equation
        calls = []
        newton = certificate._newton_care
        monkeypatch.setattr(certificate, "_newton_care",
                            lambda *a, **k: calls.append(1) or newton(*a, **k))
        ss = StateSpace.from_arrays([[0, 1], [-1, -1]], [[0], [1]],
                                    [[0, -1]], [[1]])
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert calls
        assert_reverifies(ss, res.certificate)

    def test_pipeline_fallback_keeps_golden_statuses(self):
        """The polynomial pipeline that certify fell back on, kept in
        `tests/pipeline_ref.py`, certifies every corpus system the golden
        reports certify, and so does the one route."""
        golden = json.loads(GOLDEN.read_text())
        passive = 0
        for name, ss in corpus():
            want = json.loads(golden[f"certify {name}"]["stdout"])["status"]
            if want != "certified":
                continue
            passive += 1
            res = pipeline_ref.pipeline_certify(ss)
            assert res.status == want, (name, res.message)
            assert_reverifies(ss, res.certificate)
            assert construct_certificate(ss).status == want, name
        assert passive == 20

    def test_certified_implies_positive_real_pair(self):
        """Seeded random systems, passive (C = B^T, A + A^T < 0, D + D^T >=
        0, so X = I solves the KYP inequality) and perturbed: a certificate
        comes only with a passing pair check and re-verifies."""
        statuses = []
        for k, ss in enumerate(perturbed_kyp_systems()):
            res = construct_certificate(ss)
            statuses.append(res.status)
            if res.status == "certified":
                assert check_pair(*realize_behavior(ss)).overall == PASS, k
                assert_reverifies(ss, res.certificate)
        assert statuses.count("certified") >= 20
        assert statuses.count("not-passive") >= 5


class TestCertificatePairEquivalence:
    def test_certificate_exists_iff_pair_is_positive_real(self):
        """30-system corpus: construction succeeds exactly when the
        positive-real pair check passes; every certificate re-verifies and
        satisfies the storage inequality along simulated trajectories."""
        rng = random.Random(161803)
        for name, ss in corpus():
            P, Q = realize_behavior(ss)
            verdict = check_pair(P, Q)
            res = construct_certificate(ss)
            assert res.status != "unsupported", name
            if verdict.overall == PASS:
                assert res.status == "certified", (name, res.status, res.message)
                cert = res.certificate
                # observable realization with a certificate: X > 0 and
                # no eigenvalue of A in the open right half-plane
                if observable(ss) and ss.d:
                    assert cert.psd_margin > 0, name
                    assert all(z.real <= 1e-9 * (1 + abs(z))
                               for z in np.linalg.eigvals(ss.A)), name
                # storage inequality on random smooth inputs
                for _ in range(2):
                    u = [Signal.sine(freq=rng.uniform(0.4, 2.5),
                                     coef=rng.uniform(-1.5, 1.5))
                         + Signal.cosine(freq=rng.uniform(0.3, 2.0),
                                         coef=rng.uniform(-1.0, 1.0))
                         for _ in range(ss.n)]
                    x0 = [rng.uniform(-1, 1) for _ in range(ss.d)]
                    tr = simulate(ss, x0, u, 0.0, 6.0, 1e-3)
                    chk = storage_check(ss, cert.X, cert.L, cert.W, tr)
                    assert chk.identity_residual < 1e-6, name
                    assert chk.dissipation_slack > -1e-6, name
            else:
                assert res.status in ("not-passive", "inconclusive"), \
                    (name, res.status)
                assert res.status == "not-passive", (name, res.status)

    def test_spectral_residual_invariant(self):
        for name, ss in corpus():
            res = construct_certificate(ss)
            if res.status != "certified":
                continue
            assert res.certificate.spectral["factor_residual"] <= 1e-8 * 10, name

    def test_are_consistency_on_pd_feedthrough_members(self):
        """Where D + D^T > 0, the constructed X solves the Riccati equation."""
        for name, ss in corpus():
            R = ss.D + ss.D.T
            if ss.n == 0 or np.linalg.eigvalsh(R)[0] <= 1e-9:
                continue
            res = construct_certificate(ss)
            if res.status != "certified":
                continue
            Rinv = np.linalg.inv(R)
            X = res.certificate.X
            Pi = (-ss.A.T @ X - X @ ss.A
                  - (ss.C.T - X @ ss.B) @ Rinv @ (ss.C - ss.B.T @ X))
            assert np.linalg.norm(Pi) <= 1e-8 * (1 + np.linalg.norm(X)), name
