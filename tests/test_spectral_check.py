"""The spectral-factor checks against the sampled diagnostics they replaced.

`verify_certificate` checks Z(s) = W + L (sI - A)^-1 B from the state space,
for a constructed certificate and for the Riccati triple alike;
`spectral_factor_poly` checks its polynomial row selection directly.  The reference below is the former implementation:
Z from exact resolvent coefficients, poles by a first-order cancellation
test, rank drops from the common roots of all full-size numerator minors by
cofactor expansion.  Old and new must agree on `ok`, `full_rank_rhp` and
`rhp_poles`, and on `factor_residual` to 1e-12.
"""

import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from conftest import corpus, siso_sweep_system, transfer_at

from passlab.behavior import decompose
from fp_grid import GridMatrix, build_zx, fp_deg, fp_eval, fp_trim
from passlab.certificate import (_AXIS_SAMPLES, AREInfeasibleError,
                                 CertificateVerificationError,
                                 _poly_spectral_check, _ss_spectral_check,
                                 _stack, are_solve, construct_certificate,
                                 spectral_factor_poly, verify_certificate)
from passlab.numeric import DEFAULT_TOL, OPEN_RHP, region_of
from passlab.poly import Poly
from passlab.polymatrix import PolyMat
from passlab.statespace import StateSpace, realize_behavior

SQ2 = math.sqrt(2)
S = Poly.x()


# -- the reference: the former sampled diagnostics ------------------------------------


def ref_minor_det(grid):
    n = len(grid)
    if n == 0:
        return np.ones(1)
    if n == 1:
        return grid[0][0]
    acc = np.zeros(1)
    for j in range(n):
        minor = [[grid[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = npp.polymul(grid[0][j], ref_minor_det(minor))
        acc = npp.polyadd(acc, term if j % 2 == 0 else -term)
    return fp_trim(acc)


def ref_poles(Z):
    if fp_deg(Z.den) < 1:
        return []
    scale = max((np.max(np.abs(e)) for r in Z.num for e in r if e.size),
                default=0.0) + 1e-300
    out = []
    for z in np.roots(fp_trim(Z.den)[::-1]):
        mx = max(abs(fp_eval(Z.num[i][j], z))
                 for i in range(Z.rows) for j in range(Z.cols)) \
            if Z.rows and Z.cols else 0.0
        if mx > 1e-7 * scale * max(1.0, abs(z)) ** fp_deg(Z.den):
            out.append(complex(z))
    return out


def ref_rank_drop_points(Z):
    r, n = Z.rows, Z.cols
    if r == 0 or r > n:
        return []
    minors = []
    for cols in itertools.combinations(range(n), r):
        d = fp_trim(ref_minor_det([[Z.num[i][j] for j in cols] for i in range(r)]))
        if fp_deg(d) >= 0 and np.any(d != 0):
            minors.append(d)
    if not minors:
        return []
    first = min(minors, key=fp_deg)
    if fp_deg(first) < 1:
        return []
    return [complex(z) for z in np.roots(first[::-1])
            if all(abs(fp_eval(m, z)) <= 1e-6 * (1.0 + np.max(np.abs(m)))
                   * max(1.0, abs(z)) ** fp_deg(m) for m in minors)]


def ref_diagnostics(Z, H_on_axis, tol=DEFAULT_TOL):
    res = scale = 0.0
    for w in _AXIS_SAMPLES:
        Hv = H_on_axis(w)
        Zv = Z.eval(1j * w)
        res = max(res, float(np.linalg.norm(Zv.conj().T @ Zv - Hv)))
        scale = max(scale, float(np.linalg.norm(Hv)))
    factor_ok = res <= 1e-8 * (1.0 + scale)
    rhp_poles = [z for z in ref_poles(Z) if region_of(z, tol) == OPEN_RHP]
    rank_ok = True
    if Z.rows > 0:
        pts = [complex(0.5, 0.9), complex(1.7, -0.4), complex(3.1, 2.2)]
        pts += [z for z in ref_rank_drop_points(Z) if region_of(z, tol) == OPEN_RHP]
        for z in pts:
            sv = np.linalg.svd(Z.eval(z), compute_uv=False)
            if sv.size and sv[-1] <= 1e-9 * (1.0 + sv[0]):
                rank_ok = False
    return {"ok": bool(factor_ok and not rhp_poles and rank_ok),
            "factor_residual": res, "rhp_poles": tuple(map(complex, rhp_poles)),
            "full_rank_rhp": bool(rank_ok)}


def column(coeffs) -> np.ndarray:
    """The coefficient stack of a 1 x 1 polynomial."""
    return np.asarray(coeffs, dtype=float).reshape(-1, 1, 1)


# -- old equals new ----------------------------------------------------------------


def assert_same(old, new, label):
    assert (old["ok"], old["full_rank_rhp"]) == (new["ok"], new["full_rank_rhp"]), label
    assert len(old["rhp_poles"]) == len(new["rhp_poles"]), label
    assert all(abs(a - b) <= 1e-8 * (1 + abs(a)) for a, b in
               zip(sorted(old["rhp_poles"], key=lambda z: (z.real, z.imag)),
                   sorted(new["rhp_poles"], key=lambda z: (z.real, z.imag)))), label
    assert abs(old["factor_residual"] - new["factor_residual"]) <= 1e-12, label


def ss_old(ss, L, W):
    def h_on_axis(w):
        G = transfer_at(ss, 1j * w)
        return G + G.conj().T
    return ref_diagnostics(build_zx(ss, L, W), h_on_axis)


def riccati_certificate(ss):
    """The Riccati triple of the whole system, verified: X from are_solve,
    W the Cholesky factor of D + D^T and L = W^-T (C - B^T X).  None where a
    step raises (D + D^T singular, no PSD solution, a violated equation) or
    the spectral check fails."""
    try:
        X = are_solve(ss).X
        W = np.linalg.cholesky(ss.D + ss.D.T).T
        L = np.linalg.solve(W.T, ss.C - ss.B.T @ X) if ss.d else np.zeros((ss.n, 0))
        cert = verify_certificate(ss, X, L, W)
    except (ValueError, AREInfeasibleError, CertificateVerificationError):
        return None
    return cert if cert.spectral["ok"] else None


def compare_system(ss, label) -> int:
    """Both routes on one system: its constructed certificate, the Riccati
    certificate of the whole system where one verifies, and the polynomial
    factor of its controllable density.  Returns how many comparisons ran."""
    ran = 0
    res = construct_certificate(ss)
    if res.status == "certified":
        c = res.certificate
        assert_same(ss_old(ss, c.L, c.W), c.spectral, f"certify {label}")
        ran += 1
    are = riccati_certificate(ss)
    if are is not None:
        assert_same(ss_old(ss, are.L, are.W), are.spectral, f"ARE {label}")
        ran += 1
    if res.status == "certified":
        dec = decompose(*realize_behavior(ss))
        Phi = dec.M.star() @ dec.N + dec.N.star() @ dec.M
        sf = spectral_factor_poly(Phi)
        old = ref_diagnostics(GridMatrix.of_stack(sf.Z.num, sf.Z.den),
                              lambda w: Phi.eval_complex(1j * w))
        assert_same(old, sf.diagnostics, f"poly {label}")
        ran += 1
    return ran


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_old_equals_new_on_corpus():
    ran = sum(compare_system(ss, name) for name, ss in corpus())
    assert ran >= 40


@pytest.mark.parametrize("seed", [1, 104729])
def test_old_equals_new_on_bench_items(seed, tmp_path):
    """Every certificate the corpus-certify, siso-sweep and nport-pairs items
    construct at this seed."""
    wl = _workloads()
    certified = 0
    for build in (wl.build_corpus, wl.build_siso, wl.build_nport):
        for item in build(seed, tmp_path):
            if item.label.startswith("random pair"):
                continue
            out = item.run(None)
            res = out[0] if build is wl.build_corpus else \
                out[2] if build is wl.build_nport else out
            if res is None or res.status != "certified":
                continue
            c = res.certificate
            assert_same(ss_old(c.system, c.L, c.W), c.spectral, item.label)
            certified += 1
    assert certified >= 40


def two_port(s1: StateSpace, s2: StateSpace) -> StateSpace:
    """The block-diagonal 2-port of two SISO systems, D = diag(1, 2)."""
    d1, d2 = s1.d, s2.d
    A = [list(r) + [0] * d2 for r in s1.A_exact] + [[0] * d1 + list(r) for r in s2.A_exact]
    B = [[r[0], 0] for r in s1.B_exact] + [[0, r[0]] for r in s2.B_exact]
    C = [list(s1.C_exact[0]) + [0] * d2, [0] * d1 + list(s2.C_exact[0])]
    return StateSpace.from_arrays(A, B, C, [[1, 0], [0, 2]])


def test_old_equals_new_on_random_certified_systems():
    rng = random.Random(31337)
    ran = 0
    for k in range(10):
        ran += compare_system(siso_sweep_system(rng, 2 + k % 5), f"kyp #{k}")
    for k in range(8):  # partial fractions d + sum c_i / (s + a_i), some lossless
        a = sorted(rng.sample(range(0, 9), 1 + k % 3))
        A = np.diag([-x / 2 for x in a])
        C = [[rng.randint(1, 6) / 4 for _ in a]]
        ss = StateSpace.from_arrays(A, np.ones((len(a), 1)), C, [[rng.randint(0, 4) / 2]])
        ran += compare_system(ss, f"partial fractions #{k}")
    for k in range(4):  # block-diagonal 2-ports: a diagonal density
        ss = two_port(siso_sweep_system(rng, 1 + k % 2), siso_sweep_system(rng, 2))
        ran += compare_system(ss, f"2-port #{k}")
    assert ran >= 50


# -- rejection of wrong factors --------------------------------------------------------


def rc():
    return StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])


def diagonal_rc(n):
    return StateSpace.from_arrays(np.diag([-float(k) for k in range(1, n + 1)]),
                                  np.eye(n), np.eye(n), np.eye(n))


def test_perturbed_L_rejected():
    X, L, W = [[3 - 2 * SQ2]], [[2 - SQ2 + 1e-3]], [[SQ2]]
    with pytest.raises(CertificateVerificationError):
        verify_certificate(rc(), X, L, W)
    diag = _ss_spectral_check(rc(), np.array(L), np.array(W), DEFAULT_TOL)
    assert not diag["ok"] and diag["factor_residual"] > 1e-4


def test_zero_mirrored_into_rhp_rejected():
    # Z = (sqrt2 s + 2)/(s + 1) has its zero at -sqrt2; sqrt2 + L/(s + 1) with
    # L = -2 - sqrt2 is (sqrt2 s - 2)/(s + 1): the same |Z(jw)|, zero at +sqrt2
    diag = _ss_spectral_check(rc(), np.array([[-2 - SQ2]]), np.array([[SQ2]]),
                              DEFAULT_TOL)
    assert diag["factor_residual"] < 1e-12 and diag["rhp_poles"] == ()
    assert not diag["full_rank_rhp"] and not diag["ok"]
    # the same in one channel of a diagonal RC 2-port, Z = diag(z1, z2) with
    # z_a = (sqrt2 s + c)/(s + a), c = +-sqrt(2 a^2 + 2 a), L_aa = c - sqrt2 a
    ss, W = diagonal_rc(2), SQ2 * np.eye(2)
    c2 = 2 * math.sqrt(3)
    good = _ss_spectral_check(ss, np.diag([2 - SQ2, c2 - 2 * SQ2]), W, DEFAULT_TOL)
    assert good["ok"], good
    bad = _ss_spectral_check(ss, np.diag([2 - SQ2, -c2 - 2 * SQ2]), W, DEFAULT_TOL)
    assert bad["factor_residual"] < 1e-12 and not bad["full_rank_rhp"]
    # a small feedthrough puts the zero far out: D = 5e-15, C = 1/2 - 1e-7
    # and the anti-stabilizing X = 1/2, L = -1, W = 1e-7 satisfy all four
    # equations; Z = (1e-7 s - 0.9999999)/(s + 1) vanishes near s = 1e7
    ss = StateSpace.from_arrays([[-1]], [[1]], [[Fraction(1, 2) - Fraction(1, 10**7)]],
                                [[Fraction(5, 10**15)]])
    L, W = np.array([[-1.0]]), np.array([[1e-7]])
    far = _ss_spectral_check(ss, L, W, DEFAULT_TOL)
    assert far["factor_residual"] < 1e-12 and not far["full_rank_rhp"]
    assert_same(ss_old(ss, L, W), far, "zero near 1e7")
    # and on the polynomial route: 2 - sqrt2 s for the density 4 - 2 s^2
    H = PolyMat([[4 - 2 * S * S]])
    assert _poly_spectral_check(column([2.0, SQ2]), H, DEFAULT_TOL)["ok"]
    mirrored = _poly_spectral_check(column([2.0, -SQ2]), H, DEFAULT_TOL)
    assert mirrored["factor_residual"] < 1e-12 and not mirrored["full_rank_rhp"]


def test_tall_factor_rejected():
    # the RC factor with a zero row appended: Z^H Z is still G + G^H, but a
    # 2 x 1 Z has full row rank nowhere
    X, L, W = [[3 - 2 * SQ2]], [[2 - SQ2], [0]], [[SQ2], [0]]
    diag = verify_certificate(rc(), X, L, W).spectral
    assert diag["factor_residual"] < 1e-12 and diag["rhp_poles"] == ()
    assert not diag["full_rank_rhp"] and not diag["ok"]


def test_wrong_degree_rejected():
    H = PolyMat([[4 - 2 * S * S]])
    for coeffs in ([2.0], [2.0, SQ2, 1.0]):
        diag = _poly_spectral_check(column(coeffs), H, DEFAULT_TOL)
        assert not diag["ok"] and diag["factor_residual"] > 1.0
    # a static W = sqrt2 for the first-order factor of the RC density
    diag = _ss_spectral_check(rc(), np.zeros((1, 1)), np.array([[SQ2]]), DEFAULT_TOL)
    assert not diag["ok"] and diag["factor_residual"] > 0.1


def test_observed_unstable_controllable_mode_is_a_pole():
    ss = StateSpace.from_arrays([[1]], [[1]], [[1]], [[1]])
    diag = _ss_spectral_check(ss, np.array([[1.0]]), np.array([[SQ2]]), DEFAULT_TOL)
    assert not diag["ok"] and len(diag["rhp_poles"]) == 1
    assert abs(diag["rhp_poles"][0] - 1) < 1e-12
    # an unstable mode that L does not see, or that B does not reach, is no
    # pole: Z = 1 + 1/(s + 1) either way
    for B, L in (([[1], [1]], [[1.0, 0.0]]), ([[1], [0]], [[1.0, 1.0]])):
        ss = StateSpace.from_arrays([[-1, 0], [0, 2]], B, [[1, 0]], [[1]])
        diag = _ss_spectral_check(ss, np.array(L), np.array([[1.0]]), DEFAULT_TOL)
        assert diag["rhp_poles"] == () and diag["full_rank_rhp"], (B, L, diag)


def test_repeated_unstable_eigenvalue_pole_found():
    # A = I: each PBH test fails at 1, yet Z = 1 + 1/(s - 1) has a pole there
    ss = StateSpace.from_arrays([[1, 0], [0, 1]], [[1], [0]], [[1, 0]], [[1]])
    diag = _ss_spectral_check(ss, np.array([[1.0, 0.0]]), np.array([[1.0]]),
                              DEFAULT_TOL)
    assert len(diag["rhp_poles"]) >= 1 and not diag["ok"]
    # L sees only the mode that B does not reach: Z = 1, no pole
    diag = _ss_spectral_check(ss, np.array([[0.0, 1.0]]), np.array([[1.0]]),
                              DEFAULT_TOL)
    assert diag["rhp_poles"] == () and diag["full_rank_rhp"]


def test_zero_on_a_decoupled_unstable_mode():
    # A = diag(-1, 2), L = [l, 0]: the mode at 2 is unobservable, so 2 is an
    # invariant zero of the pencil on the spectrum of A.  Z = W + l/(s + 1)
    ss = StateSpace.from_arrays([[-1, 0], [0, 2]], [[1], [1]], [[1, 0]], [[1]])
    L = np.array([[1.5, 0.0]])
    diag = _ss_spectral_check(ss, L, np.array([[1.0]]), DEFAULT_TOL)
    assert diag["full_rank_rhp"] and diag["rhp_poles"] == ()
    # with W = -l/3, Z = l (2 - s) / (3 (s + 1)) also vanishes at 2
    diag = _ss_spectral_check(ss, L, np.array([[-0.5]]), DEFAULT_TOL)
    assert not diag["full_rank_rhp"] and not diag["ok"]


def test_strictly_proper_factor_zeros():
    # W = 0 and relative degree 4: Z = L (sI - A)^-1 B on the chain
    # 1/(s + 1)^4 has no finite zero, and 3 - s has one in the RHP
    A = np.diag([-1] * 4) + np.diag([1] * 3, 1)
    B = [[0], [0], [0], [1]]
    ss = StateSpace.from_arrays(A.tolist(), B, [[1, 0, 0, 0]], [[0]])
    W = np.zeros((1, 1))
    for L, full in (([[1.0, 0, 0, 0]], True), ([[4.0, -1, 0, 0]], False)):
        diag = _ss_spectral_check(ss, np.array(L), W, DEFAULT_TOL)
        assert diag["full_rank_rhp"] is full and diag["rhp_poles"] == ()
        assert_same(ss_old(ss, np.array(L), W), diag, f"chain {L}")
    # a 2-port with the singular W = diag(1, 0), A = diag(-1, -2), B = I and
    # L = [[1/2, c], [1, 1]]: det Z = (s + 3/2 - c) / ((s + 1)(s + 2))
    ss = StateSpace.from_arrays([[-1, 0], [0, -2]], [[1, 0], [0, 1]],
                                [[1, 0], [0, 1]], [[1, 0], [0, 0]])
    W = np.diag([1.0, 0.0])
    for c, full in ((1.0, True), (3.0, False)):
        L = np.array([[0.5, c], [1.0, 1.0]])
        diag = _ss_spectral_check(ss, L, W, DEFAULT_TOL)
        assert diag["full_rank_rhp"] is full and diag["rhp_poles"] == ()
        assert_same(ss_old(ss, L, W), diag, f"2-port c = {c}")


def test_diagonal_rc_8_port_certifies():
    res = construct_certificate(diagonal_rc(8))
    assert res.status == "certified", res.message
    assert res.certificate.spectral["ok"]
    assert max(res.certificate.residuals.values()) <= 1e-8


# -- float conversion of exact coefficients ---------------------------------------


def test_float_coeffs_equal_float_of_fraction():
    rng = random.Random(2718)
    polys = [Poly([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                   for _ in range(rng.randint(1, 8))]) for _ in range(200)]
    big = [Poly([Fraction(rng.getrandbits(2000) + 1, rng.getrandbits(2000) + 1)
                 for _ in range(4)]) for _ in range(50)]
    big += [Poly([Fraction(rng.getrandbits(2000) + 1, rng.getrandbits(1990) + 1)]
                 + [Fraction(rng.getrandbits(1990) + 1, 3 ** 1200)]) for _ in range(50)]
    for p in polys + big:
        want = [float(c) for c in p.coeffs]
        assert p.float_coeffs() == want
        if not p.is_zero:
            assert _stack(PolyMat([[p]]), len(want))[:, 0, 0].tolist() == want


def test_float_coeffs_overflow_like_fraction():
    p = Poly([Fraction(2 ** 2000, 3), 1])
    with pytest.raises(OverflowError):
        float(p.coeffs[0])
    with pytest.raises(OverflowError):
        p.float_coeffs()
    with pytest.raises(OverflowError):
        _stack(PolyMat([[p]]), 2)
