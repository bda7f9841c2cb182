"""Small dense numeric kernel and the axis-tolerance policy.

Distinct complex roots of exact polynomials (via the exact square-free
part, companion eigenvalues and a short guarded Newton polish), Lyapunov
solves by Bartels-Stewart (scipy), the lossless two-equation Lyapunov
feasibility solve, Hermitian PSD tests with eigenvector witnesses, and the
ordered real Schur stable/unstable spectral split.

Every pass/fail decision that depends on where a point sits relative to
the imaginary axis goes through one policy, and `region_of` and
`closed_rhp` are its only entry points: a point is "on the axis" when
|Re z| <= axis_band * (1 + |z|).  `closed_rhp` flags a closed-RHP verdict
that flips when the band is widened tenfold as non-robust, and callers
report such verdicts as inconclusive instead of pass/fail.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .poly import Poly, squarefree_part

OPEN_LHP = "open-lhp"
AXIS = "axis"
OPEN_RHP = "open-rhp"


class LyapunovError(Exception):
    """Resonant spectrum: the Lyapunov operator is singular."""


class LosslessInfeasibleError(Exception):
    """No positive-definite solution of the lossless Lyapunov pair exists."""


class SpectralSplitError(Exception):
    """Stable/unstable clustering could not be certified."""


@dataclass(frozen=True)
class Tolerance:
    """Numeric policy knobs; all bands are relative."""
    axis_band: float = 1e-9
    psd_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not all(t >= 0 for t in (self.axis_band, self.psd_tol,
                                    self.residual_tol)):  # also rejects NaN
            raise ValueError("tolerances must be nonnegative")

    def psd_floor(self, scale: float) -> float:
        return -self.psd_tol * (1.0 + scale)


DEFAULT_TOL = Tolerance()


def region_of(z: complex, tol: Tolerance = DEFAULT_TOL, band_scale: float = 1.0) -> str:
    band = tol.axis_band * band_scale * (1.0 + abs(z))
    if abs(z.real) <= band:
        return AXIS
    return OPEN_RHP if z.real > 0 else OPEN_LHP


def closed_rhp(points: Iterable[complex], tol: Tolerance = DEFAULT_TOL
               ) -> tuple[list[complex], bool]:
    """The points on the axis band or right of it, in their given order, and
    whether the emptiness of that set survives widening the band tenfold."""
    points = list(points)
    hits = [z for z in points if region_of(z, tol) != OPEN_LHP]
    robust = bool(hits) or all(region_of(z, tol, band_scale=10.0) == OPEN_LHP
                               for z in points)
    return hits, robust


# -- polynomial roots ------------------------------------------------------------


def _newton_polish(f: Poly, df: Poly, z: complex) -> complex:
    """Up to three Newton steps from z, each taken only when |f| falls: on
    a high-degree f with wide coefficients a float step can throw a good
    eigenvalue far off (even across the axis), and |f| shows it."""
    fz = f.eval_complex(z)
    for _ in range(3):
        d = df.eval_complex(z)
        if abs(d) < 1e-14:
            break
        w = z - fz / d
        fw = f.eval_complex(w)
        if not abs(fw) < abs(fz):
            break
        z, fz = w, fw
    return z


def roots(p: Poly) -> list[complex]:
    """The distinct roots of a nonzero exact polynomial, sorted left to
    right: companion-matrix eigenvalues of its exact square-free part,
    polished by Newton steps on exact coefficients."""
    f = squarefree_part(p)
    df = f.derivative()
    rts = np.roots(f.float_coeffs()[::-1]) if f.degree >= 1 else []
    return sorted((_newton_polish(f, df, complex(z)) for z in rts),
                  key=lambda z: (z.real, z.imag))


# -- Hermitian PSD test ------------------------------------------------------------


def hermitian_psd(H: np.ndarray, tol: Tolerance = DEFAULT_TOL
                  ) -> tuple[bool, np.ndarray | None]:
    """Is the Hermitian matrix H PSD (within the relative floor)?
    On failure returns the eigenvector of the most negative eigenvalue."""
    H = np.asarray(H, dtype=complex)
    scale = np.linalg.norm(H) if H.size else 0.0
    if np.linalg.norm(H - H.conj().T) > tol.residual_tol * (1.0 + scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    Hs = (H + H.conj().T) / 2.0
    w, v = np.linalg.eigh(Hs)
    if w[0] >= tol.psd_floor(scale):
        return True, None
    return False, v[:, 0]


# -- Lyapunov equations -------------------------------------------------------------


def lyapunov_solve(A: np.ndarray, Qrhs: np.ndarray,
                   tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unique symmetric X with -A^T X - X A = Qrhs, by Bartels-Stewart.

    Requires spec(A) and spec(-A) disjoint; otherwise the operator is singular.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Qrhs = np.atleast_2d(np.asarray(Qrhs, dtype=float))
    d = A.shape[0]
    if d == 0:
        return np.zeros((0, 0))
    lams = np.linalg.eigvals(A)
    scale = 1.0 + max(abs(lams), default=0.0)
    if np.any(np.abs(lams[:, None] + lams[None, :]) <= 1e-10 * scale):
        raise LyapunovError("singular Lyapunov operator")
    import scipy.linalg  # imported here: it dominates `import passlab` otherwise
    X = scipy.linalg.solve_continuous_lyapunov(A.T, -Qrhs)
    X = (X + X.T) / 2.0
    res = np.linalg.norm(-A.T @ X - X @ A - Qrhs)
    if res > tol.residual_tol * (1.0 + np.linalg.norm(Qrhs)):
        raise LyapunovError(f"Lyapunov residual too large: {res:.3e}")
    return X


def lossless_lyap_solve(Au: np.ndarray, Bu: np.ndarray, Cu: np.ndarray,
                        tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positive-definite X with  A^T X + X A = 0  and  X B = C^T.

    Solved as one stacked least-squares problem over symmetric X; residual and
    positive-definiteness are verified, and failure of either means no lossless
    storage matrix exists for this (A, B, C).
    """
    Au = np.atleast_2d(np.asarray(Au, dtype=float))
    Bu = np.atleast_2d(np.asarray(Bu, dtype=float))
    Cu = np.atleast_2d(np.asarray(Cu, dtype=float))
    k = Au.shape[0]
    if k == 0:
        return np.zeros((0, 0))
    n = Bu.shape[1]
    basis = []
    for i in range(k):
        for j in range(i, k):
            E = np.zeros((k, k))
            E[i, j] = 1.0
            E[j, i] = 1.0
            basis.append(E)
    cols = []
    for E in basis:
        lyap_part = (Au.T @ E + E @ Au).flatten()
        cross_part = (E @ Bu).flatten()
        cols.append(np.concatenate([lyap_part, cross_part]))
    Amat = np.column_stack(cols)
    rhs = np.concatenate([np.zeros(k * k), Cu.T.flatten()])
    sol, *_ = np.linalg.lstsq(Amat, rhs, rcond=None)
    X = np.zeros((k, k))
    for coef, E in zip(sol, basis):
        X += coef * E
    scale = 1.0 + np.linalg.norm(Cu) + np.linalg.norm(Au)
    res = max(np.linalg.norm(Au.T @ X + X @ Au), np.linalg.norm(X @ Bu - Cu.T))
    if res > tol.residual_tol * scale:
        raise LosslessInfeasibleError(
            f"lossless certificate infeasible (residual {res:.3e})")
    w = np.linalg.eigvalsh((X + X.T) / 2.0)
    if w[0] < tol.psd_floor(np.linalg.norm(X)):
        raise LosslessInfeasibleError(
            f"lossless certificate infeasible (min eigenvalue {w[0]:.3e})")
    return X


# -- Schur form and the stable/unstable split ------------------------------------------


@dataclass(frozen=True)
class SpectralSplit:
    """T @ A @ inv(T) == blockdiag(As, Au); spec(As) strictly stable, spec(Au)
    on or right of the axis band."""
    T: np.ndarray
    Tinv: np.ndarray
    As: np.ndarray
    Au: np.ndarray


def stable_unstable_split(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SpectralSplit:
    """Similarity splitting off the strictly-stable invariant subspace.

    Axis eigenvalues are deliberately routed to the 'unstable' block Au.  An
    ordered real Schur form puts the stable cluster first; the off-diagonal
    coupling is removed with one Sylvester solve.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    if d == 0:
        return SpectralSplit(T=np.zeros((0, 0)), Tinv=np.zeros((0, 0)),
                             As=np.zeros((0, 0)), Au=np.zeros((0, 0)))

    def is_stable(re, im):
        return region_of(complex(re, im), tol) == OPEN_LHP

    import scipy.linalg  # imported here: it dominates `import passlab` otherwise
    T, Z, sdim = scipy.linalg.schur(A, output="real", sort=is_stable)
    k = int(sdim)
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    if 0 < k < d:
        Y = scipy.linalg.solve_sylvester(T11, -T22, -T12)
    else:
        Y = np.zeros((k, d - k))
    M = np.block([[np.eye(k), -Y], [np.zeros((d - k, k)), np.eye(d - k)]])
    Minv = np.block([[np.eye(k), Y], [np.zeros((d - k, k)), np.eye(d - k)]])
    Tsim = M @ Z.T
    Tsiminv = Z @ Minv
    recon = Tsim @ A @ Tsiminv
    block = np.zeros((d, d))
    block[:k, :k] = T11
    block[k:, k:] = T22
    if np.linalg.norm(recon - block) > tol.residual_tol * (1.0 + np.linalg.norm(A)):
        raise SpectralSplitError("inconclusive split")
    return SpectralSplit(T=Tsim, Tinv=Tsiminv, As=T11.copy(), Au=T22.copy())
