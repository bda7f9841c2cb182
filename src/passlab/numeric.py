"""Small dense numeric kernel and the one tolerance policy.

Distinct complex roots of exact polynomials (via the exact square-free
part, companion eigenvalues and a short guarded Newton polish), Lyapunov
solves by Bartels-Stewart (scipy), the lossless two-equation Lyapunov
feasibility solve, Hermitian PSD tests with eigenvector witnesses, and the
ordered real Schur stable/unstable spectral split.

Every float threshold of the package is named in this module (see "the
threshold rules" below).  Every pass/fail decision that depends on where a
point sits relative to the imaginary axis goes through one policy, and
`region_of` and `closed_rhp` are its float entry points: a point is "on
the axis" when |Re z| <= axis_band * (1 + |z|).  `closed_rhp` flags a
closed-RHP verdict that flips when the band is widened tenfold as
non-robust, and callers report such verdicts as inconclusive instead of
pass/fail.  `zeros_left_of_band` is its exact entry point: it shows on
integers, with no root found, that every zero of a polynomial lies left of
the tenfold band, where `closed_rhp` of those zeros finds no hit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import inf

from ._numpy import np
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
    """The rules that decide verdicts, all relative: z is on the axis when
    |Re z| <= axis_band (1 + |z|) (`region_of`), a Hermitian H is PSD when
    its least eigenvalue is at least psd_floor(|H|) = -psd_tol (1 + |H|),
    and an equation holds when its residual is at most residual_tol times
    1 + the norm of its data.  Each is a nonnegative, finite float."""
    axis_band: float = 1e-9
    psd_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not all(0 <= t < inf for t in (self.axis_band, self.psd_tol,
                                          self.residual_tol)):  # also rejects NaN
            raise ValueError("tolerances must be nonnegative and finite")

    def psd_floor(self, scale: float) -> float:
        return -self.psd_tol * (1.0 + scale)


DEFAULT_TOL = Tolerance()


# -- the threshold rules ---------------------------------------------------------
#
# Every float threshold of the package.  A rule either decides a verdict,
# through a Tolerance field that the --tol-* flags set, or only re-checks a
# witness, a certificate or a float step, as a fixed constant that no flag
# moves.  A relative rule reads rtol (1 + scale), where the 1 keeps it
# absolute for a scale near zero; each rule names its scale.

# Verdicts.  A closed-RHP verdict is robust when it survives the axis band
# (tol.axis_band, relative to 1 + |z|) widened by this factor (`closed_rhp`,
# and `zeros_left_of_band` on the exact side).
# The Riccati solve takes its Newton route when an eigenvalue of the
# Hamiltonian lies in that wider band.
ROBUST_BAND_SCALE = 10.0


def rank_cut(sv: np.ndarray, rtol: float):
    """The SVD rank cut rtol (1 + sv_max) (Golub and Van Loan, Matrix
    Computations, 5.4): a singular value at or below it counts as zero.  sv
    holds singular values in descending order along its last axis, so a
    stack of them gets one cut each."""
    return rtol * (1.0 + sv[..., 0])


# Witness and certificate re-checks, fixed.
# A rank-drop witness lam of condition 2 holds when sv_min of [P -Q](lam) is
# at or below rank_cut; a coupling witness p when |p(lam)^T [P -Q](lam)| is
# at or below WITNESS_RTOL (1 + |[P -Q](lam)| |p(lam)|) ...
WITNESS_RTOL = 1e-6
# ... and |p(lam)| exceeds this absolute floor.
COUPLING_ROW_FLOOR = 1e-8
# `storage_check`: the energy-identity residual, already relative to
# 1 + |int |L x + W u|^2|, and the dissipation slack, relative to
# 1 + |int u^T y|, must stay within it.
STORAGE_RTOL = 1e-6
# A spectral factor Z: |Z^H Z - H| at the axis samples is at most
# FACTOR_RESIDUAL_RTOL (1 + max |H|) there, ...
FACTOR_RESIDUAL_RTOL = 1e-8
# ... Z(z) has full row rank where sv_min exceeds rank_cut, ...
FACTOR_RANK_RTOL = 1e-9
# ... z is on the spectrum of A where sv_min of A - zI is at or below
# rank_cut, and the PBH matrices [A - zI; L] and [A - zI, B] keep their
# singular values above it (about sqrt(eps)), ...
MODE_RANK_RTOL = 1e-8
# ... and the zero reduction of the Rosenbrock pencil counts a singular
# value as zero at or below PENCIL_RANK_RTOL (1 + |[L, W T]|), a few eps, so
# that no finite zero is dropped for being far.
PENCIL_RANK_RTOL = 1e-14
# The coefficients of a scalar spectral factor are real when
# max |Im| <= REAL_COEFF_RTOL max(1, max |Re|).
REAL_COEFF_RTOL = 1e-9

# Float steps of the Lur'e construction, fixed.
# Below the top level of the deflation, an eigenvalue of R' counts as zero
# at or below DEFLATE_RTOL times the norms that R' is built from, and one of
# C2 B2 at or below DEFLATE_RTOL |C| |B|: a cancellation that leaves |R'| or
# |C2 B2| at rounding noise cannot pass for a rank.  (The top level cuts
# D + D^T at -tol.psd_floor(|D + D^T|).)
DEFLATE_RTOL = 1e-9
# The Hamiltonian eigenvectors [V1; V2] give X = V2 V1^-1 only where
# cond(V1) is below this; ...
EIGVEC_COND_MAX = 1e12
# ... Newton polishes that X where the Riccati residual |Pi(X)| exceeds this
# absolute value, ...
ARE_POLISH_ABS = 1e-8
# ... and the solve fails where |Pi(X)| exceeds max(ARE_RESIDUAL_FLOOR,
# tol.residual_tol), both absolute.
ARE_RESIDUAL_FLOOR = 1e-10
# Newton on Pi stops where |Pi| falls below this absolute value, or where
# damping has halved the step to NEWTON_MIN_STEP of a full one.
NEWTON_STOP_ABS = 1e-13
NEWTON_MIN_STEP = 1e-6

# Float steps of this module, fixed.  The polish of a root stops where
# |f'(z)| falls below this absolute value.
POLISH_DERIV_FLOOR = 1e-14
# `lyapunov_solve`: lam_i + lam_j counts as zero at or below
# RESONANCE_RTOL (1 + max |lam|).
RESONANCE_RTOL = 1e-10


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
    robust = bool(hits) or all(
        region_of(z, tol, band_scale=ROBUST_BAND_SCALE) == OPEN_LHP for z in points)
    return hits, robust


# `zeros_left_of_band` reads "not shown" when deg p > 1 and its shift 2^j
# would add more than this many bits to the coefficients, |j| deg p.  The
# Routh rows grow with the shift (degree 1 has none), and a tiny or a huge
# axis band would otherwise cost more than the route that then runs.  On
# SISO d = 10, 20, 30 and 40 (seed 1), that route takes 1.4, 9.4, 58 and
# 228 ms in all of `check_pair`, and the test at 1,024 bits 0.4, 7.4, 41
# and 117 ms (at 2,048 bits: 1.3, 19, 90 and 266 ms).  The default band
# takes 480 bits at d = 40.
BAND_SHIFT_BITS = 1024


def zeros_left_of_band(p: Poly, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether every zero z of the nonzero exact p is shown, exactly, to lie
    left of the tenfold axis band: Re z < -2^j, with
    2^j >= ROBUST_BAND_SCALE axis_band (1 + rho) and rho >= |z|
    (`_zero_bound_exponent`).  Then `closed_rhp` of the zeros finds no hit,
    robustly.  False means "not shown", never "a zero is there".

    j is the least such exponent, of either sign; with d > 1, |j| d must
    not exceed BAND_SHIFT_BITS.  The zeros of g(t) = p(2^j (t - 1)), scaled
    to integers, are t = z / 2^j + 1, so Re z < -2^j for all of them iff g
    is Hurwitz, which `_hurwitz` decides.  With axis_band = 0, p itself is
    tested."""
    num = p.num
    if num[-1] < 0:
        num = tuple(-c for c in num)
    if min(num) <= 0:  # a Hurwitz polynomial has positive coefficients (Stodola)
        return False
    d = len(num) - 1
    if d == 0:
        return True
    # the width ROBUST_BAND_SCALE axis_band (1 + 2^e) as the exact ratio w / v
    (sn, sd), (bn, bd) = (ROBUST_BAND_SCALE.as_integer_ratio(),
                          tol.axis_band.as_integer_ratio())
    e = _zero_bound_exponent(num)
    w = sn * bn * ((1 << max(e, 0)) + (1 << max(-e, 0)))
    v = sd * bd << max(-e, 0)
    if w:
        j = w.bit_length() - v.bit_length()  # 2^(j - 1) < w / v < 2^(j + 1)
        if (v << j if j >= 0 else v) < (w if j >= 0 else w << -j):
            j += 1
        if d > 1 and abs(j) * d > BAND_SHIFT_BITS:
            return False
        g = ([c << (j * i) for i, c in enumerate(num)] if j >= 0 else
             [c << (-j * (d - i)) for i, c in enumerate(num)])
        for i in range(d):  # the Taylor shift g(t) <- g(t - 1)
            for m in range(d - 1, i - 1, -1):
                g[m] -= g[m + 1]
        if min(g) <= 0:
            return False
        num = g
    return _hurwitz(num)


def _zero_bound_exponent(num) -> int:
    """e with |z| <= 2^e for every zero z of the integer polynomial num
    (coefficients low to high, degree >= 1, num[0] != 0): Fujiwara's bound
    2 max_i |a_(d-i) / a_d|^(1/i) (Fujiwara, Tohoku Math. J. 10, 1916),
    rounded up to a power of two from bit lengths, since
    |a_(d-i) / a_d| < 2^(b_(d-i) - b_d + 1)."""
    top = abs(num[-1]).bit_length()
    return 1 + max(-((top - abs(c).bit_length() - 1) // i)  # ceil((b_c - b_d + 1) / i)
                   for i, c in enumerate(reversed(num[:-1]), 1))


def _hurwitz(c) -> bool:
    """Whether every zero of the integer polynomial c (coefficients low to
    high, degree n >= 1, c[n] > 0) lies in the open left half-plane: every
    leading principal minor Delta_k of its Hurwitz matrix is positive
    (Routh-Hurwitz; Gantmacher, The Theory of Matrices, vol. 2, ch. XV).

    The rows are those of the Routh array, fraction-free: R_0 = (c_n,
    c_(n-2), ...), R_1 = (c_(n-1), c_(n-3), ...) and
    R_(k+1)[i] = (R_k[0] R_(k-1)[i+1] - R_(k-1)[0] R_k[i+1]) / Delta_(k-2),
    with Delta_(-1) = Delta_0 = 1.  R_k is Delta_(k-1) times Routh's row k,
    so R_k[0] = Delta_k and every division is exact (Bareiss's, on the
    Hurwitz matrix).  A zero or negative Delta_k ends the test."""
    n = len(c) - 1
    a, b = list(c[n::-2]), list(c[n - 1::-2])
    div = 1
    for k in range(1, n):
        if b[0] <= 0:
            return False
        b += [0] * (len(a) - len(b))
        a, b, div = b, [(b[0] * x - a[0] * y) // div
                        for x, y in zip(a[1:], b[1:])], a[0] if k > 1 else 1
    return b[0] > 0


# -- polynomial roots ------------------------------------------------------------


def _newton_polish(f: Poly, df: Poly, z: complex) -> complex:
    """Up to three Newton steps from z, each taken only when |f| falls: on
    a high-degree f with wide coefficients a float step can throw a good
    eigenvalue far off (even across the axis), and |f| shows it."""
    fz = f.eval_complex(z)
    for _ in range(3):
        d = df.eval_complex(z)
        if abs(d) < POLISH_DERIV_FLOOR:
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
    if np.any(np.abs(lams[:, None] + lams[None, :]) <= RESONANCE_RTOL * scale):
        raise LyapunovError("singular Lyapunov operator")
    import scipy.linalg  # imported here: it dominates `import passlab` otherwise
    X = scipy.linalg.solve_continuous_lyapunov(A.T, -Qrhs)
    X = (X + X.T) / 2.0
    res = np.linalg.norm(-A.T @ X - X @ A - Qrhs)
    if res > tol.residual_tol * (1.0 + np.linalg.norm(Qrhs)):
        raise LyapunovError(f"Lyapunov residual too large: {res:.3e}")
    return X


def symmetric_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(iu, ju, E): the upper-triangle indices of a d x d matrix, row by
    row, and the basis of symmetric matrices on them, E[k] one at (iu[k],
    ju[k]) and at (ju[k], iu[k]), zero elsewhere.  A symmetric X is the
    sum of X[iu[k], ju[k]] E[k], each entry from exactly one term."""
    iu, ju = np.triu_indices(d)
    E = np.zeros((len(iu), d, d))
    E[np.arange(len(iu)), iu, ju] = 1.0
    E[np.arange(len(iu)), ju, iu] = 1.0
    return iu, ju, E


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
    _, _, E = symmetric_basis(k)
    Amat = np.hstack([(Au.T @ E + E @ Au).reshape(len(E), -1),
                      (E @ Bu).reshape(len(E), -1)]).T
    rhs = np.concatenate([np.zeros(k * k), Cu.T.flatten()])
    sol, *_ = np.linalg.lstsq(Amat, rhs, rcond=None)
    X = sum(c * Ek for c, Ek in zip(sol, E))
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
