"""The polynomial pipeline that certified a positive-real system before
`construct_certificate` deflated the singular part of D + D^T onto the
Riccati solve, kept as the tests' reference.

After the positive-real gate it ran: the observer staircase; the
stable/unstable split of the observable block; the lossless Lyapunov solve
for the axis block; the controllable image pair (M, N) from the left syzygy
of [P -Q]^T; the spectral factor K of M*N + N*M; L from the remainder
system (`remark61_solve`); the stable Lyapunov solve (`lyapunov_solve`);
W = lim K M^-1; assembly and the mandatory verify pass.  Its statuses are
the ones `construct_certificate` must keep, and its solver calls are the
recorded inputs of `tests/test_stable_stage.py`.
"""

from __future__ import annotations

import numpy as np

from passlab.certificate import (CertificateVerificationError, CertifyResult,
                                 FactorizationError, FactorStepError,
                                 StableStageError, UnsupportedFactorizationError,
                                 _degree, _stack, remark61_solve,
                                 spectral_factor_poly, verify_certificate)
from passlab.numeric import (DEFAULT_TOL, LosslessInfeasibleError,
                             LyapunovError, SpectralSplitError, Tolerance,
                             lossless_lyap_solve, lyapunov_solve,
                             stable_unstable_split)
from passlab.polymatrix import PolyMat, syzygy_basis
from passlab.prpair import INCONCLUSIVE, PASS, check_pair
from passlab.statespace import StateSpace, realize_behavior, staircase


def image_pair(P: PolyMat, Q: PolyMat) -> tuple[PolyMat, PolyMat]:
    """(M, N) with [P -Q] [M; N] = 0 spanning the controllable part: the
    left syzygy of the tall [P -Q]^T, transposed.  A positive-real pair has
    full normalrank, so the basis has n rows; P M == Q N is re-verified."""
    n = P.rows
    K = syzygy_basis(P.hstack(-Q).transpose()).transpose()
    M = K.submatrix(range(n), range(n))
    N = K.submatrix(range(n, 2 * n), range(n))
    if not (P @ M == Q @ N):
        raise AssertionError("image representation inconsistent with the pair")
    return M, N


def limit_KMinv(K: np.ndarray, M: PolyMat) -> np.ndarray:
    """W = lim_{s->inf} K(s) M(s)^-1 for a coefficient stack K: the s^m
    coefficient of K adj(M) over the leading coefficient of det M, m its
    degree.  Raises ValueError where K adj(M) has a nonzero coefficient
    above s^m, so that K M^-1 is improper."""
    det, adj = M.det(), M.adjugate()
    m = det.degree
    A = _stack(adj, _degree(adj) + 1)
    KA = np.zeros((max(len(K) + len(A) - 1, m + 1), K.shape[1], A.shape[2]))
    for a, Ka in enumerate(K):
        KA[a:a + len(A)] += Ka @ A
    if np.any(KA[m + 1:]):
        raise ValueError("rational matrix is improper")
    return KA[m] / float(det.leading)


def pipeline_certify(ss: StateSpace, tol: Tolerance = DEFAULT_TOL
                     ) -> CertifyResult:
    """The pipeline's CertifyResult for (A, B, C, D); `unsupported` where
    the density is neither scalar nor diagonal."""
    P, Q = realize_behavior(ss)
    verdict = check_pair(P, Q, tol)
    if verdict.overall != PASS:
        status = "not-passive" if verdict.overall == "fail" else INCONCLUSIVE
        return CertifyResult(status=status, verdict=verdict)
    st = staircase(ss)
    try:
        split = stable_unstable_split(st.A11, tol)
    except SpectralSplitError as e:
        return CertifyResult(status=INCONCLUSIVE, verdict=verdict, message=str(e))
    ds = split.As.shape[0]
    TB = split.T @ st.B1
    CT = st.C1 @ split.Tinv
    try:
        Xu = lossless_lyap_solve(split.Au, TB[ds:], CT[:, ds:], tol)
        M, N = image_pair(P, Q)
        sf = spectral_factor_poly(M.star() @ N + N.star() @ M, tol)
        L = remark61_solve(sf.Z.num, M, split.As, CT[:, :ds], tol)
        Xs = lyapunov_solve(split.As, L.T @ L, tol) if ds else np.zeros((0, 0))
        W = limit_KMinv(sf.Z.num, M)
    except UnsupportedFactorizationError as e:
        return CertifyResult(status="unsupported", verdict=verdict, message=str(e))
    except (LosslessInfeasibleError, FactorizationError, FactorStepError,
            StableStageError, LyapunovError, ValueError) as e:
        return CertifyResult(status="discrepancy", verdict=verdict, message=str(e))
    d, d1 = ss.d, st.A11.shape[0]
    That = np.zeros((d, d))
    That[:d1, :d1] = split.T
    That[d1:, d1:] = np.eye(d - d1)
    That = That @ st.T
    Xhat = np.zeros((d, d))
    Xhat[:ds, :ds] = Xs
    Xhat[ds:d1, ds:d1] = Xu
    Lhat = np.zeros((sf.r, d))
    Lhat[:, :ds] = L
    try:
        cert = verify_certificate(ss, That.T @ Xhat @ That, Lhat @ That, W, tol)
    except CertificateVerificationError as e:
        return CertifyResult(status="discrepancy", verdict=verdict, message=str(e))
    if not cert.spectral["ok"]:
        return CertifyResult(status="discrepancy", verdict=verdict,
                             message=f"constructed Z is not a spectral factor: "
                                     f"{cert.spectral}")
    return CertifyResult(status="certified", certificate=cert, verdict=verdict)
