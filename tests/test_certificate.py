import json
import math
import random
from fractions import Fraction

import fp_grid
import numpy as np
import pytest
from conftest import (corpus, jordan_system, observable, rand_fullrank_pair,
                      siso_sweep_system, transfer_at)
from test_corpus_reports import GOLDEN, _write_ss

from passlab import certificate
from passlab.behavior import decompose
from passlab.certificate import (AREInfeasibleError, CertificateVerificationError,
                                 FactorizationError,
                                 UnsupportedFactorizationError, _image_pair,
                                 are_solve, build_zx, construct_certificate,
                                 remark61_solve, spectral_factor_poly,
                                 verify_certificate)
from passlab.cli import main
from passlab.jsonio import rational_matrix_json
from passlab.numeric import Tolerance
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
        # Riccati route certifies these, so the pipeline's stable stage is
        # not reached (test_defective_stable_block_certifies covers it)
        for C in ([[1, 0]], [[1, 0, 0]]):
            res = construct_certificate(jordan_system(C, [[1]]))
            assert res.status == "certified", (C, res.message)
            assert max(res.certificate.residuals.values()) < 1e-8

    @pytest.mark.parametrize("C", [[[1, 2]], [[1, 3, 3]]])
    def test_defective_stable_block_certifies(self, C):
        # one Jordan block at -1 with D = 0, so the Riccati route declines and
        # the stable stage solves for L on a defective block:
        # G = (2s + 3)/(s + 1)^2 and (3s^2 + 9s + 7)/(s + 1)^3
        ss = jordan_system(C, [[0]])
        assert certificate._riccati_certificate(ss, Tolerance()) is None
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
        # D + D^T = 0 leaves the pipeline, whose scalar spectral factor
        # of degree 12 keeps its leading coefficient
        ss = siso_sweep_system(random.Random(seed), 12, D=((0,),))
        res = construct_certificate(ss)
        assert res.status == "certified", res.message
        assert_reverifies(ss, res.certificate)


def test_zero_feedthrough_pipeline_verify_exit(tmp_path, capsys):
    """D = 0 leaves the pipeline, whose verify pass is the last gate: past
    d = 14 the stable stage's L drifts, and the cross residual reads a
    discrepancy where a certificate exists (ROADMAP item 2).  Nothing is
    ever refuted.  A fix of that drift turns the discrepancies certified."""
    want = {(12, 1): "certified", (12, 2): "certified", (14, 1): "certified",
            (14, 2): "discrepancy", (16, 1): "discrepancy"}
    for (d, seed), status in want.items():
        ss = siso_sweep_system(random.Random(seed), d, D=((0,),))
        res = construct_certificate(ss)
        assert res.status == status, (d, seed, res.message)
        if status == "certified":
            assert_reverifies(ss, res.certificate)
        else:
            assert res.message.startswith(
                "construction completed but verification failed: "
                "certificate equations violated: cross "), (d, seed)
    assert main(["specfact", "--ss", str(_write_ss(tmp_path, "siso16", ss))]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "discrepancy"


class TestImagePair:
    def test_old_equals_new(self):
        """The syzygy pair against decompose's M and N, bit for bit, on the
        corpus pairs and on random full-rank pairs."""
        rng = random.Random(7919)
        pairs = [realize_behavior(ss) for _, ss in corpus()]
        pairs += [rand_fullrank_pair(rng, 1 + k % 3, 2) for k in range(30)]
        for P, Q in pairs:
            dec = decompose(P, Q)
            assert _image_pair(P, Q) == (dec.M, dec.N)


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
        """A passive strictly proper coupled 2-port (D = 0, so no Riccati
        route) whose controllable density is a full polynomial matrix is
        outside the implemented factorization sub-cases: the status must be
        'unsupported', never a silent approximation or a bogus
        certificate."""
        ss = coupled_rc(2, feedthrough=0)
        res = construct_certificate(ss)
        assert res.status == "unsupported"
        assert "unsupported" in res.message
        # the pair verdict itself is still decided
        assert res.verdict is not None and res.verdict.overall == PASS

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
    """Once check_pair passes, D + D^T > 0 certifies from one Riccati solve;
    the pipeline runs only where that route raises or fails its check."""

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

    def test_pipeline_fallback_keeps_golden_statuses(self, monkeypatch):
        def infeasible(ss, tol=None):
            raise AREInfeasibleError("forced")

        monkeypatch.setattr(certificate, "are_solve", infeasible)
        golden = json.loads(GOLDEN.read_text())
        passive = 0
        for name, ss in corpus():
            want = json.loads(golden[f"certify {name}"]["stdout"])["status"]
            if want != "certified":
                continue
            passive += 1
            res = construct_certificate(ss)
            assert res.status == want, (name, res.message)
            assert_reverifies(ss, res.certificate)
        assert passive == 20

    def test_certified_implies_positive_real_pair(self):
        """Seeded random systems, passive (C = B^T, A + A^T < 0, D + D^T >=
        0, so X = I solves the KYP inequality) and perturbed: a certificate
        comes only with a passing pair check and re-verifies."""
        rng = random.Random(271828)
        rat = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        statuses = []
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
            ss = StateSpace.from_arrays(A.tolist(), B.tolist(), C.tolist(),
                                        D.tolist())
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
        unsupported = 0
        for name, ss in corpus():
            P, Q = realize_behavior(ss)
            verdict = check_pair(P, Q)
            res = construct_certificate(ss)
            if res.status == "unsupported":
                unsupported += 1
                continue
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
        assert unsupported == 0  # corpus stays within supported sub-cases

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
