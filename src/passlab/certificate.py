"""Lur'e certificates for state-space passivity.

A certificate for (A, B, C, D) is a real triple (X, L, W) with

    X = X^T >= 0,
    -A^T X - X A = L^T L,
    C - B^T X    = W^T L,
    D + D^T      = W^T W.

`verify_certificate` checks a supplied triple: all four residuals, the PSD
margin, and that Z(s) = W + L (sI - A)^-1 B is a spectral factor of
G + G*.  That check works on the state space, in floats:

  * Z* Z = G + G* at seven axis samples, where one solve
    R = (jwI - A)^-1 B gives both Z = W + L R and G = D + C R;
  * no pole of Z in the open RHP: no open-RHP eigenvalue of A that B
    reaches and L sees (PBH tests);
  * Z of full row rank in the open RHP: Z can drop rank there only at a
    finite zero of the Rosenbrock pencil ([[A, B], [L, W]], diag(I, 0)), so
    those zeros and three fixed points are checked by SVD of Z.

`spectral_factor_poly` checks its polynomial factor the same way, except
that a polynomial Z has no poles and drops rank only at its factors' roots.
The exact rational Z is built (`build_zx`) only where a report prints it.

A float polynomial matrix is a coefficient stack S[k, i, j], lowest degree
first, converted from an exact PolyMat (`_stack`) and evaluated by Horner
(`_horner`).  Its depth comes from an exact degree, never from the size of
a coefficient: deg det(sI - A) for Z, the root count for a scalar spectral
factor.

`construct_certificate` builds one from scratch, by one route:

  1. the positive-real gate: `check_pair` on the external behavior pair
     decides every not-passive and inconclusive verdict;
  2. the exact observer staircase, only when the system has unobservable
     modes, which get no storage;
  3. the lossless storage of the modes on or right of the axis, split off
     by an ordered Schur form;
  4. the stable block: the Riccati triple when D + D^T > 0, after the
     singular part of D + D^T is deflated otherwise (`_deflate`);
  5. the mandatory verify pass, which decides between certified and
     discrepancy.

Spectral factorization of a para-Hermitian polynomial density
(`spectral_factor_poly`, behind `specfact --poly`) is implemented for the
scalar and diagonal cases; anything else is reported as unsupported, never
silently approximated.  A state-space system's factor of G + G* is the Z of
its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._numpy import np
from .numeric import (ARE_POLISH_ABS, ARE_RESIDUAL_FLOOR, AXIS, DEFAULT_TOL,
                      DEFLATE_RTOL, EIGVEC_COND_MAX, FACTOR_RANK_RTOL,
                      FACTOR_RESIDUAL_RTOL, MODE_RANK_RTOL, NEWTON_MIN_STEP,
                      NEWTON_STOP_ABS, OPEN_LHP, OPEN_RHP, PENCIL_RANK_RTOL,
                      REAL_COEFF_RTOL, ROBUST_BAND_SCALE,
                      LosslessInfeasibleError, SpectralSplitError, Tolerance,
                      lossless_lyap_solve, rank_cut, region_of,
                      stable_unstable_split, symmetric_basis)
from .numeric import roots as numeric_roots
from .poly import Poly, squarefree_decomposition
from .polymatrix import PolyMat
from .prpair import (PASS, INCONCLUSIVE, PRPairVerdict, _axis_violation,
                     check_pair)
from .statespace import (StateSpace, lure_rows, realize_behavior, resolvent,
                         shifted_solve, staircase)


class FactorizationError(Exception):
    """The density violates the PSD-on-axis premise (no factor exists).
    The witness is exact: the principal minor `subset` of H(jw) has the
    value `value` < 0 at w = `wstar`, re-evaluated from H."""

    def __init__(self, subset: tuple[int, ...], wstar: Fraction, value: Fraction):
        super().__init__("not factorizable: fails PSD-on-axis premise at "
                         f"w = {float(wstar):g}")
        self.subset = subset
        self.wstar = wstar
        self.value = value


class FactorStepError(Exception):
    """A float step of a polynomial factorization failed where the exact
    PSD-on-axis premise holds: no verdict on the density.  `status` is
    inconclusive where the float view contradicts the exact one, and
    discrepancy where a step or the re-verification of its factor failed."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


class UnsupportedFactorizationError(Exception):
    """Outside the implemented sub-cases of matrix spectral factorization."""


class CertificateVerificationError(Exception):
    """A supplied or constructed triple violates one of the four equations."""


class AREInfeasibleError(Exception):
    """No PSD solution of the algebraic Riccati equation was found."""


class StableStageError(Exception):
    """The remainder system for L is inconsistent."""


# -- float polynomial matrices (coefficient stacks, lowest degree first) --------


def _stack(M: PolyMat, depth: int) -> np.ndarray:
    """The coefficient stack S of M, S[k, i, j] the s^k coefficient of
    M[i, j] in floats, for k < depth; every entry's degree is below depth."""
    S = np.zeros((depth, M.rows, M.cols))
    for i in range(M.rows):
        for j in range(M.cols):
            c = M[i, j].float_coeffs()
            S[:len(c), i, j] = c
    return S


def _degree(M: PolyMat) -> int:
    """The largest degree of an entry of a nonzero M."""
    return max(max(e.degree for e in row) for row in M.entries)


def _horner(S: np.ndarray, zs) -> np.ndarray:
    """The stack S at every point of zs, stacked: shape (len(zs), rows, cols)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1, 1, 1)
    out = np.zeros((zs.shape[0],) + S.shape[1:], dtype=complex)
    for Sk in S[::-1]:
        out = out * zs + Sk
    return out


@dataclass(frozen=True)
class RationalMatrix:
    """num(s)/den(s): num a coefficient stack, den a coefficient array."""
    num: np.ndarray
    den: np.ndarray

    def eval(self, z: complex) -> np.ndarray:
        return _horner(self.num, z)[0] / _horner(self.den[:, None, None], z)[0, 0, 0]


def build_zx(ss: StateSpace, L: np.ndarray, W: np.ndarray) -> RationalMatrix:
    """Z(s) = W + L (sI - A)^-1 B over the exact characteristic polynomial."""
    if ss.d == 0 or L.shape[0] == 0:
        return RationalMatrix(W[None].astype(float), np.ones(1))
    charpoly, adj = resolvent(ss.A_exact)
    den = np.array(charpoly.float_coeffs())
    num = L @ _stack(adj, len(den)) @ ss.B + den[:, None, None] * W
    return RationalMatrix(num, den)


# -- spectral factorization -----------------------------------------------------


@dataclass(frozen=True)
class SpectralFactor:
    """Z with Z* Z = H, analytic in the open RHP, full row rank there."""
    Z: RationalMatrix
    r: int
    diagnostics: dict = field(default_factory=dict)


_AXIS_SAMPLES = (0.31, 0.77, 1.23, 1.91, 2.63, 3.47, 5.11)
_RANK_POINTS = (complex(0.5, 0.9), complex(1.7, -0.4), complex(3.1, 2.2))


def _scalar_spectral_factor(h: Poly, tol: Tolerance) -> np.ndarray:
    """Polynomial factor of a para-Hermitian scalar h with h(jw) >= 0,
    decided exactly: keep open-LHP roots with their multiplicity and half of
    each axis root.  An exact axis root has even multiplicity, so a root of
    odd multiplicity in the axis band contradicts the exact premise."""
    zroots: list[complex] = []
    odd: list[complex] = []
    for factor, mult in squarefree_decomposition(h):
        for z in numeric_roots(factor):
            tag = region_of(z, tol)
            if tag == AXIS and mult % 2:
                odd.append(z)
            elif tag == AXIS:
                zroots.extend([z] * (mult // 2))
            elif tag != OPEN_RHP:
                zroots.extend([z] * mult)
    if odd:
        raise FactorStepError(
            INCONCLUSIVE, "inconclusive: the exact PSD-on-axis premise holds, "
            "but the float axis band tags roots of odd multiplicity as axis "
            "roots: " + ", ".join(f"{z:.6g}" for z in odd))
    rdeg = len(zroots)
    if 2 * rdeg != h.degree:
        raise FactorStepError("discrepancy",
                              "axis/half-plane root split is inconsistent")
    mon = np.atleast_1d(np.poly(zroots))[::-1]  # low to high, monic
    scale = max(1.0, np.max(np.abs(mon.real)))
    if np.max(np.abs(mon.imag)) > REAL_COEFF_RTOL * scale:
        raise FactorStepError("discrepancy", "factor coefficients not real")
    gamma = float(h.leading) * (-1) ** rdeg
    if gamma <= 0:
        raise FactorStepError("discrepancy",
                              "leading sign inconsistent with axis PSD")
    return np.sqrt(gamma) * mon.real


def spectral_factor_poly(H: PolyMat, tol: Tolerance = DEFAULT_TOL
                         ) -> SpectralFactor:
    """Spectral factor of a para-Hermitian polynomial matrix.

    Supported sub-cases: scalar, and diagonal (entrywise scalar problems).
    The PSD-on-axis premise is decided exactly first, and only its failure
    raises FactorizationError, whose witness minor is evaluated again from
    H at w*; a failed float step after it raises FactorStepError.  General
    polynomial matrices raise UnsupportedFactorizationError.
    """
    if not (H.star() == H):
        raise ValueError("matrix is not para-Hermitian")
    found = _axis_violation(H)
    if found is not None:
        subset, _, wstar = found
        value = H.submatrix(subset, subset).det().real_on_axis()(wstar)
        if not value < 0:
            raise FactorStepError(
                "discrepancy", f"principal minor {list(subset)} of H(jw) at "
                f"w = {float(wstar):g} failed re-verification")
        raise FactorizationError(subset, wstar, value)
    n = H.rows
    if any(not H[i, j].is_zero for i in range(n) for j in range(n) if i != j):
        raise UnsupportedFactorizationError(
            "unsupported: matrix spectral factorization beyond the scalar "
            "and diagonal cases")
    cols = [j for j in range(n) if not H[j, j].is_zero]
    factors = [_scalar_spectral_factor(H[j, j], tol) for j in cols]
    Z = np.zeros((max(map(len, factors), default=1), len(cols), n))
    for i, (j, c) in enumerate(zip(cols, factors)):
        Z[:len(c), i, j] = c
    diag = _poly_spectral_check(Z, H, tol)
    if not diag["ok"]:
        raise FactorStepError("discrepancy",
                              f"spectral factor failed re-verification: {diag}")
    return SpectralFactor(Z=RationalMatrix(Z, np.ones(1)), r=len(cols),
                          diagnostics=diag)


def _spectral_report(Zs: np.ndarray, Hs: np.ndarray, rhp_poles: list,
                     rank_ok: bool) -> dict:
    """The report of both checks.  Zs and Hs hold Z and H at the axis
    samples; the residual is the largest Frobenius norm of Z^H Z - H there,
    against FACTOR_RESIDUAL_RTOL (1 + the largest norm of H)."""
    E = Zs.conj().transpose(0, 2, 1) @ Zs - Hs
    res = float(np.max(np.linalg.norm(E, axis=(1, 2))))
    scale = 1.0 + float(np.max(np.linalg.norm(Hs, axis=(1, 2))))
    factor_ok = res <= FACTOR_RESIDUAL_RTOL * scale
    return {"ok": bool(factor_ok and not rhp_poles and rank_ok),
            "factor_residual": res, "rhp_poles": tuple(map(complex, rhp_poles)),
            "full_rank_rhp": bool(rank_ok)}


def _full_rank(Zs: np.ndarray) -> bool:
    """No stacked value Z(z) drops rank: sv_min above the rank cut at
    FACTOR_RANK_RTOL at each.  A Z with more rows than columns has full row
    rank nowhere."""
    if Zs.shape[1] > Zs.shape[2]:
        return False
    if Zs.size == 0:
        return True
    sv = np.linalg.svd(Zs, compute_uv=False)
    return bool(np.all(sv[:, -1] > rank_cut(sv, FACTOR_RANK_RTOL)))


def _poly_spectral_check(Z: np.ndarray, H: PolyMat, tol: Tolerance) -> dict:
    """Z is the coefficient stack of a row selection of scalar polynomial
    factors, one nonzero entry a row: it has no poles, and its rank drops are
    exactly its factors' roots.  Those in the open RHP are confirmed by SVD
    with the fixed points."""
    s = 1j * np.array(_AXIS_SAMPLES)
    drops = [z for c in Z.sum(axis=2).T for z in np.roots(c[::-1])
             if region_of(z, tol) == OPEN_RHP]
    pts = np.array(list(_RANK_POINTS) + drops)
    return _spectral_report(_horner(Z, s), H.eval_stack(s), [],
                            _full_rank(_horner(Z, pts)))


def _ss_spectral_check(ss: StateSpace, L: np.ndarray, W: np.ndarray,
                       tol: Tolerance) -> dict:
    """Z(s) = W + L (sI - A)^-1 B against H = G + G*, from the state space.

    At each axis sample one solve R = (jwI - A)^-1 B gives Z = W + L R and
    G = D + C R.  The RHP poles of Z are the open-RHP eigenvalues of A that
    B reaches and L sees (PBH, after removing the modes decoupled there).  Z
    can drop row rank in the open RHP only at a finite zero of the Rosenbrock
    pencil, so those zeros and three fixed points are checked by SVD of Z
    evaluated by solve; a pole among them counts as a rank drop.  A Z with
    more rows than columns drops rank everywhere.
    """
    A, B = ss.A, ss.B
    q, n = W.shape
    s = 1j * np.array(_AXIS_SAMPLES)
    R = shifted_solve(A, B, s)
    Gs = ss.D + ss.C @ R
    Zs = W + L @ R
    eigs = np.linalg.eigvals(A) if ss.d and q else []
    poles = [lam for lam in eigs
             if region_of(lam, tol) == OPEN_RHP and _z_at(A, B, L, W, lam) is None]
    rank_ok = True
    if q:
        pts = list(_RANK_POINTS)
        if ss.d and q <= n:
            zeros = _invariant_zeros(A, B, L, W)
            rank_ok = zeros is not None
            if rank_ok:
                pts += [z for z in zeros if region_of(z, tol) == OPEN_RHP]
        vals = [_z_at(A, B, L, W, z) for z in pts]
        rank_ok = (rank_ok and all(v is not None for v in vals)
                   and _full_rank(np.array(vals)))
    return _spectral_report(Zs, Gs + Gs.conj().transpose(0, 2, 1), poles, rank_ok)


def _near_spectrum(A: np.ndarray, z: complex) -> bool:
    if A.shape[0] == 0:
        return False
    sv = np.linalg.svd(A - z * np.eye(A.shape[0]), compute_uv=False)
    return bool(sv[-1] <= rank_cut(sv, MODE_RANK_RTOL))


def _decouple(A: np.ndarray, B: np.ndarray, L: np.ndarray, z: complex
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A realization of the same L (sI - A)^-1 B without the modes at z that
    L does not see or B does not reach (the PBH kernels).  On the complement
    of an unobservable eigenspace K (A K = z K, L K = 0), or of an
    uncontrollable left one, the realization is block triangular, and the
    dropped block never reaches the transfer function."""
    while A.shape[0]:
        d = A.shape[0]
        Az = A - z * np.eye(d)
        _, sv, Vh = np.linalg.svd(np.vstack([Az, L]))
        keep = int(np.count_nonzero(sv > rank_cut(sv, MODE_RANK_RTOL)))
        if keep < d:
            P = Vh[:keep].conj().T
        else:
            U, sv, _ = np.linalg.svd(np.hstack([Az, B]))
            keep = int(np.count_nonzero(sv > rank_cut(sv, MODE_RANK_RTOL)))
            if keep == d:
                break
            P = U[:, :keep]
        A, B, L = P.conj().T @ A @ P, P.conj().T @ B, L @ P
    return A, B, L


def _z_at(A: np.ndarray, B: np.ndarray, L: np.ndarray, W: np.ndarray,
          z: complex) -> np.ndarray | None:
    """Z(z) = W + L (zI - A)^-1 B by one solve, or None when z is a pole of
    Z.  On the spectrum of A, the decoupled modes are removed first."""
    if _near_spectrum(A, z):
        A, B, L = _decouple(A, B, L, z)
        if _near_spectrum(A, z):
            return None
    if A.shape[0] == 0:
        return W.astype(complex)
    return W + L @ np.linalg.solve(z * np.eye(A.shape[0]) - A, B.astype(complex))


def _invariant_zeros(A: np.ndarray, B: np.ndarray, L: np.ndarray,
                     W: np.ndarray) -> np.ndarray | None:
    """Finite zeros of the Rosenbrock pencil [[A - sI, B T], [L, W T]]
    (Emami-Naeini and Van Dooren, Automatica 18, 1982).  T = I when Z is
    square, and a fixed generic n x q matrix otherwise, so that Z T drops
    rank wherever Z does.

    With a nonsingular feedthrough D = W T the zeros are the eigenvalues of
    A - B T D^-1 L.  Otherwise the output rows that D does not reach pin the
    part of the state they see to zero; eliminating it leaves a smaller
    square system with the same finite zeros, and the reduction repeats
    until D is nonsingular.  Rank decisions cut at PENCIL_RANK_RTOL relative
    to the output block [L, W T], so no finite zero is dropped for being far.
    None when the pencil is singular: then Z T drops rank everywhere."""
    q, n = W.shape
    T = np.eye(n) if q == n else np.linalg.qr(
        np.random.default_rng(0).standard_normal((n, q)))[0]
    B, C, D = B @ T, L, W @ T
    cut = PENCIL_RANK_RTOL * (1.0 + np.linalg.norm(np.hstack([C, D])))
    while True:
        U, sv, _ = np.linalg.svd(D)
        rho = int(np.count_nonzero(sv > cut))
        if rho == q:
            return np.linalg.eigvals(A - B @ np.linalg.solve(D, C))
        C0 = U[:, rho:].conj().T @ C  # the output rows D does not reach
        _, sv, Vh = np.linalg.svd(C0)
        sigma = int(np.count_nonzero(sv > cut))
        if sigma < q - rho:
            return None
        V = Vh.conj().T  # x = V [x2; x1] with C0 seeing x2 only: x2 = 0
        A, B, C2 = V.conj().T @ A @ V, V.conj().T @ B, U[:, :rho].conj().T @ C @ V
        C = np.vstack([A[:sigma, sigma:], C2[:, sigma:]])
        D = np.vstack([B[:sigma], U[:, :rho].conj().T @ D])
        A, B = A[sigma:, sigma:], B[sigma:]


# -- algebraic Riccati equation ---------------------------------------------------


@dataclass(frozen=True)
class AREResult:
    X: np.ndarray
    closed_loop_spec: tuple[complex, ...]
    stabilizing: bool
    residual: float


def _pi_residual(A: np.ndarray, B: np.ndarray, C: np.ndarray, X: np.ndarray,
                 Rinv: np.ndarray) -> np.ndarray:
    return -A.T @ X - X @ A - (C.T - X @ B) @ Rinv @ (C - B.T @ X)


def are_solve(ss: StateSpace, tol: Tolerance = DEFAULT_TOL) -> AREResult:
    """Solve Pi(X) = 0 for (A, B, C, D) by `_are_solve` with R = D + D^T;
    raises ValueError unless the least eigenvalue of R exceeds
    tol.psd_tol (1 + |R|)."""
    R = ss.D + ss.D.T
    if R.size and np.linalg.eigvalsh(R)[0] <= -tol.psd_floor(np.linalg.norm(R)):
        raise ValueError("D + D^T is not positive definite")
    return _are_solve(ss.A, ss.B, ss.C, R, tol)


def _are_solve(A: np.ndarray, B: np.ndarray, C: np.ndarray, R: np.ndarray,
               tol: Tolerance) -> AREResult:
    """Solve Pi(X) = -A^T X - X A - (C^T - X B) R^-1 (C - B^T X) = 0 by the
    invariant-subspace method on the Hamiltonian

        H = [[-Ahat, -S], [Qbar, Ahat^T]],   Ahat = A - B R^-1 C,
        S = B R^-1 B^T,  Qbar = C^T R^-1 C,  R = D + D^T > 0.

    For X with Pi(X) = 0, H [I; X] = [I; X] (-(Ahat + S X)), so the subspace
    spanned by eigenvectors with Re > 0 yields the solution whose closed loop
    A + B R^-1 (B^T X - C) = Ahat + S X has spectrum in the closed LHP.
    Axis eigenvalues of H obstruct the ordering; a damped Newton iteration
    on Pi takes over in that case.
    """
    d = A.shape[0]
    Rinv = np.linalg.inv(R)
    if d == 0 or not R.size:  # no inputs: X = 0
        return AREResult(np.zeros((d, d)), (), True, 0.0)
    Ahat = A - B @ Rinv @ C
    S = B @ Rinv @ B.T
    Qbar = C.T @ Rinv @ C
    H = np.block([[-Ahat, -S], [Qbar, Ahat.T]])
    lams, V = np.linalg.eig(H)
    near_axis = any(region_of(z, tol, band_scale=ROBUST_BAND_SCALE) == AXIS
                    for z in lams)
    X = None
    if not near_axis:
        idx = [k for k, z in enumerate(lams) if z.real > 0]
        if len(idx) == d:
            V1 = V[:d, idx]
            V2 = V[d:, idx]
            if np.linalg.cond(V1) < EIGVEC_COND_MAX:
                X = np.real(V2 @ np.linalg.inv(V1))
                X = (X + X.T) / 2.0
    if X is None or np.linalg.norm(_pi_residual(A, B, C, X, Rinv)) > ARE_POLISH_ABS:
        X = _newton_care(A, B, C, Rinv,
                         X0=X if X is not None else np.zeros((d, d)))
    res = float(np.linalg.norm(_pi_residual(A, B, C, X, Rinv)))
    if res > max(ARE_RESIDUAL_FLOOR, tol.residual_tol):
        raise AREInfeasibleError(f"condition 5 infeasible (residual {res:.3e})")
    weig = np.linalg.eigvalsh((X + X.T) / 2.0)
    if weig[0] < tol.psd_floor(np.linalg.norm(X)):
        raise AREInfeasibleError("condition 5 infeasible (no PSD solution found)")
    closed = A + B @ Rinv @ (B.T @ X - C)
    spec = tuple(sorted(map(complex, np.linalg.eigvals(closed)),
                        key=lambda z: (z.real, z.imag)))
    stab = all(region_of(z, tol) != OPEN_RHP for z in spec)
    return AREResult(X=X, closed_loop_spec=spec, stabilizing=stab, residual=res)


def _newton_care(A: np.ndarray, B: np.ndarray, C: np.ndarray, Rinv: np.ndarray,
                 X0: np.ndarray) -> np.ndarray:
    """Damped Newton on the symmetric parametrization of Pi(X) = 0, at most
    200 iterations.  The derivative of Pi at X along E is
    -(Acl^T E + E Acl), Acl = A - B R^-1 (C - B^T X), so each step solves
    that Lyapunov operator in least squares (it is singular where Acl has
    axis eigenvalues)."""
    iu, ju, E = symmetric_basis(A.shape[0])  # X = sum of x_k E_k
    unpack = lambda x: np.tensordot(x, E, 1)
    func = lambda x: _pi_residual(A, B, C, unpack(x), Rinv)[iu, ju]
    x = X0[iu, ju].astype(float)
    f = func(x)
    for _ in range(200):
        nf = np.linalg.norm(f)
        if nf < NEWTON_STOP_ABS:
            break
        Acl = A - B @ Rinv @ (C - B.T @ unpack(x))
        J = -(Acl.T @ E + E @ Acl)[:, iu, ju].T
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        alpha = 1.0
        while alpha > NEWTON_MIN_STEP:
            xn = x + alpha * step
            fn = func(xn)
            if np.linalg.norm(fn) < nf:
                x, f = xn, fn
                break
            alpha /= 2.0
        else:
            break
    return unpack(x)


# -- certificate verification ---------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    X: np.ndarray
    L: np.ndarray
    W: np.ndarray
    residuals: dict
    psd_margin: float
    spectral: dict
    system: StateSpace = field(repr=False, compare=False)

    @property
    def Z(self) -> RationalMatrix:
        """Z(s) = W + L (sI - A)^-1 B over the exact characteristic
        polynomial, built on each read."""
        return build_zx(self.system, self.L, self.W)


def verify_certificate(ss: StateSpace, X, L, W,
                       tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Check the four defining equations and the spectral-factor property
    of Z = W + L (sI-A)^-1 B; raises on any violated equation.

    The equations are checked by their relative residuals against
    tol.residual_tol, and X >= 0 by its least eigenvalue.  The spectral
    check (`spectral` in the result; see the module docstring) reports
    `factor_residual`, the largest Frobenius norm of Z^H Z - (G + G^H) at
    the axis samples, which must stay below FACTOR_RESIDUAL_RTOL
    (1 + |G + G^H|); `rhp_poles`, the open-RHP poles of Z; `full_rank_rhp`;
    and `ok` when all three hold.  It does not raise: construct_certificate
    turns a failed check into a discrepancy."""
    X = np.atleast_2d(np.asarray(X, dtype=float)).reshape(ss.d, ss.d)
    L, W = lure_rows(ss, L, W)
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    nrm = lambda M: float(np.linalg.norm(M))
    residuals = {
        "symmetry": nrm(X - X.T) / (1.0 + nrm(X)),
        "lyapunov": nrm(-A.T @ X - X @ A - L.T @ L)
                    / (1.0 + nrm(A) * nrm(X) + nrm(L) ** 2),
        "cross": nrm(C - B.T @ X - W.T @ L) / (1.0 + nrm(C)),
        "feedthrough": nrm(D + D.T - W.T @ W) / (1.0 + nrm(D)),
    }
    bad = [k for k, v in residuals.items() if v > tol.residual_tol]
    if bad:
        raise CertificateVerificationError(
            f"certificate equations violated: {', '.join(bad)} "
            f"(residuals {({k: residuals[k] for k in bad})})")
    Xs = (X + X.T) / 2.0
    margin = float(np.linalg.eigvalsh(Xs)[0]) if ss.d else 0.0
    if margin < tol.psd_floor(nrm(X)):
        raise CertificateVerificationError(
            f"certificate violated: X not PSD (min eigenvalue {margin:.3e})")
    return Certificate(X=Xs, L=L, W=W, residuals=residuals, psd_margin=margin,
                       spectral=_ss_spectral_check(ss, L, W, tol), system=ss)


# -- the remainder system for L --------------------------------------------------


def remark61_solve(K: np.ndarray, M: PolyMat, As: np.ndarray,
                   Cs: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve for the constant L in  K*(s) L + J(s)(sI - As) = M*(s) Cs, with
    K a coefficient stack.

    By the matrix remainder theorem, F(s) = sum_k F_k s^k is right-divisible
    by sI - As exactly when sum_k F_k As^k = 0.  With F = K* L - M* Cs this
    is one real linear system, needing no eigenvectors:

        sum_k K*_k L As^k = sum_k M*_k Cs As^k,

    vectorised as (sum_k (As^k)^T kron K*_k) vec L = vec(rhs).  It is solved
    by least squares and the residual must vanish within tolerance,
    otherwise no L exists.
    """
    _, r, n = K.shape
    ds = As.shape[0] if As.size else 0
    if r == 0 or ds == 0:
        return np.zeros((r, ds))
    Cs = np.asarray(Cs, dtype=float).reshape(n, ds)
    # K*(s) = K(-s)^T: odd coefficients negated, each transposed
    Kstar = (K * (-1.0) ** np.arange(len(K))[:, None, None]).transpose(0, 2, 1)
    Ms = M.star()
    Mstar = _stack(Ms, _degree(Ms) + 1)
    powers = [np.linalg.matrix_power(As, k)
              for k in range(max(len(Kstar), len(Mstar)))]
    Amat = sum(np.kron(P.T, Kk) for P, Kk in zip(powers, Kstar))
    bvec = sum(Mk @ Cs @ P for P, Mk in zip(powers, Mstar)).flatten(order="F")
    sol, *_ = np.linalg.lstsq(Amat, bvec, rcond=None)
    resid = float(np.linalg.norm(Amat @ sol - bvec))
    scale = 1.0 + float(np.linalg.norm(bvec))
    if resid > tol.residual_tol * scale:
        raise StableStageError(f"no L exists (residual {resid:.3e})")
    return sol.reshape((r, ds), order="F")


# -- construction ---------------------------------------------------------------


@dataclass(frozen=True)
class CertifyResult:
    status: str  # certified | not-passive | inconclusive | discrepancy
    certificate: Certificate | None = None
    verdict: PRPairVerdict | None = None
    message: str = ""


def certificate_status_exit(status: str) -> int:
    """CLI exit-code mapping: success 0, refuted 1, undecidable here 3."""
    return {"certified": 0, "not-passive": 1,
            "inconclusive": 3, "discrepancy": 3}[status]


def construct_certificate(ss: StateSpace, tol: Tolerance = DEFAULT_TOL
                          ) -> CertifyResult:
    """Build a Lur'e triple for (A, B, C, D), or report why none exists.

    The positive-real gate on the external behavior pair decides every
    not-passive and inconclusive verdict.  A system that passes it gets its
    triple from `_lure_triple`, and the mandatory verify pass, spectral
    check included, decides between certified and discrepancy.
    """
    P, Q = realize_behavior(ss)
    verdict = check_pair(P, Q, tol)
    if verdict.overall != PASS:
        status = "not-passive" if verdict.overall == "fail" else INCONCLUSIVE
        return CertifyResult(status=status, verdict=verdict,
                             message="external behavior pair is not positive real"
                             if status == "not-passive" else
                             "positive-real check inconclusive at tolerance")
    try:
        X, L, W = _lure_triple(ss, Q, tol)
    except SpectralSplitError as e:
        return CertifyResult(status=INCONCLUSIVE, verdict=verdict, message=str(e))
    except (ValueError, AREInfeasibleError, LosslessInfeasibleError) as e:
        return CertifyResult(status="discrepancy", verdict=verdict,
                             message=f"positive-real check passed but the "
                                     f"construction failed: {e}")
    try:
        cert = verify_certificate(ss, X, L, W, tol)
    except CertificateVerificationError as e:
        return CertifyResult(status="discrepancy", verdict=verdict,
                             message=f"construction completed but verification "
                                     f"failed: {e}")
    if not cert.spectral["ok"]:
        return CertifyResult(status="discrepancy", verdict=verdict,
                             message=f"constructed Z is not a spectral factor: "
                                     f"{cert.spectral}")
    return CertifyResult(status="certified", certificate=cert, verdict=verdict)


def _lure_triple(ss: StateSpace, Q: PolyMat, tol: Tolerance
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, L, W) for a system whose behavior pair (P, Q) is positive real.

    Unobservable modes carry no storage: where the row degrees of the
    row-reduced Q, which sum to the observability rank, fall short of d, the
    exact observer staircase keeps the observable block, and X and L are
    zero on the rest.  Modes of that block on or right of the axis split
    off (`stable_unstable_split`) and get the lossless storage
    A^T X + X A = 0, X B = C^T (`lossless_lyap_solve`), with L zero there.
    The stable block is certified by `_deflate`, where an eigenvalue of
    D + D^T counts as zero at or below tol.psd_tol (1 + |D + D^T|), the cut
    of `are_solve`.
    """
    d = ss.d
    A, B, C = ss.A, ss.B, ss.C
    observed = sum(max(e.degree for e in row) for row in Q.entries)
    if observed < d:
        st = staircase(ss)
        A, B, C = st.A11, st.B1, st.C1
    R = ss.D + ss.D.T
    cut = -tol.psd_floor(float(np.linalg.norm(R)))
    if all(region_of(z, tol) == OPEN_LHP for z in np.linalg.eigvals(A)):
        X, L, W = _deflate(A, B, C, R, cut, tol)
    else:
        split = stable_unstable_split(A, tol)
        ds = split.As.shape[0]
        TB, CT = split.T @ B, C @ split.Tinv
        Xu = lossless_lyap_solve(split.Au, TB[ds:], CT[:, ds:], tol)
        Xs, Ls, W = _deflate(split.As, TB[:ds], CT[:, :ds], R, cut, tol)
        X = split.T.T @ _block_diag(Xs, Xu) @ split.T
        L = np.hstack([Ls, np.zeros((len(Ls), len(Xu)))]) @ split.T
    if observed < d:
        X = st.T.T @ _block_diag(X, np.zeros((d - observed,) * 2)) @ st.T
        L = np.hstack([L, np.zeros((len(L), d - observed))]) @ st.T
    return X, L, W


def _block_diag(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    k = len(X)
    out = np.zeros((k + len(Y),) * 2)
    out[:k, :k] = X
    out[k:, k:] = Y
    return out


def _deflate(A: np.ndarray, B: np.ndarray, C: np.ndarray, R: np.ndarray,
             cut: float, tol: Tolerance
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, L, W) with -A^T X - X A = L^T L, C - B^T X = W^T L and W^T W = R,
    for a stable observable (A, B, C) and a symmetric R >= 0 whose
    eigenvalues at or below `cut` count as zero; X is the least solution.

    When R > 0 this is the Riccati triple: X the stabilizing solution
    (`_are_solve`), W the upper Cholesky factor of R and
    L = W^-T (C - B^T X).  Otherwise the singular part of R is deflated
    (Reis, Linear Algebra Appl. 434, 2011; Poloni and Reis, SIAM J. Matrix
    Anal. Appl. 33, 2012).  On the eigenvectors of R, the inputs split into
    u1, where R1 > 0, and u2, where W has zero columns, so X B2 = C2^T and
    M = C2 B2 = B2^T X B2 >= 0.  On the kernel of M, B2^T X B2 = 0 with
    X >= 0 makes X vanish on the reachable space of those inputs, and C on
    it; observability leaves B2 and C2 zero there, so those inputs drop
    out.  With B2a, C2a the part where M > 0 and N an orthonormal basis of
    ker C2a, the coordinates x = T z, T = [B2a N], give T^T X T = diag(M, Y),
    and the Lur'e equations in z are those of the smaller problem

        (A22, [A21 F1], [-M A12; H1], R'),
        R' = [[-(A11^T M + M A11), G1^T - M E1], [G1 - E1^T M, R1]],

    with T^-1 A T = [[A11, A12], [A21, A22]], T^-1 B1 = [E1; F1] and
    C1 T = [G1 H1]; its triple (Y, L', [La Wa]) gives L = [La L'] T^-1 and
    W = Wa on u1.  Each level removes rank M >= 1 states, or the u2 inputs
    when M = 0, so the recursion ends in the Riccati case.
    """
    w, U = np.linalg.eigh(R)
    pos = w > cut
    if pos.all():
        X = _are_solve(A, B, C, R, tol).X
        W = np.linalg.cholesky(R).T
        return X, np.linalg.solve(W.T, C - B.T @ X), W
    U1, U2 = U[:, pos], U[:, ~pos]
    B1, C1, R1 = B @ U1, U1.T @ C, np.diag(w[pos])
    B2, C2 = B @ U2, U2.T @ C
    m, V = np.linalg.eigh((C2 @ B2 + B2.T @ C2.T) / 2.0)
    a = m > DEFLATE_RTOL * float(np.linalg.norm(C) * np.linalg.norm(B))
    k, M = int(a.sum()), np.diag(m[a])
    N = np.linalg.svd(V[:, a].T @ C2)[2][k:].T
    T = np.hstack([B2 @ V[:, a], N])
    Ti = np.linalg.inv(T)
    At, Bt, Ct = Ti @ A @ T, Ti @ B1, C1 @ T
    A11, A12, A21, A22 = At[:k, :k], At[:k, k:], At[k:, :k], At[k:, k:]
    E1, F1, G1, H1 = Bt[:k], Bt[k:], Ct[:, :k], Ct[:, k:]
    K = G1 - E1.T @ M
    Rn = np.block([[-(A11.T @ M + M @ A11), K.T], [K, R1]])
    nrm = lambda Z: float(np.linalg.norm(Z))
    scale = 2.0 * (nrm(A11) * nrm(M) + nrm(G1) + nrm(E1) * nrm(M)) + nrm(R1)
    Y, Ln, Wn = _deflate(A22, np.hstack([A21, F1]), np.vstack([-M @ A12, H1]),
                         (Rn + Rn.T) / 2.0, DEFLATE_RTOL * scale, tol)
    X = Ti.T @ _block_diag(M, Y) @ Ti
    L = np.hstack([Wn[:, :k], Ln]) @ Ti
    return (X + X.T) / 2.0, L, Wn[:, k:] @ U1.T
