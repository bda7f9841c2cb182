"""State-space systems: realizations in both directions, observer staircase,
and trajectory simulation with running energy integrals.

The realization bridge works at the behavior level, not just the transfer
function: converting (A, B, C, D) to a polynomial pair keeps uncontrollable
dynamics (as common polynomial factors), and converting a proper pair back
produces a state-space system whose external behavior is the kernel of the
pair, not merely a system with the same transfer function.  Rank decisions
(staircase, Krylov rows) are exact over the rationals; float inputs are
taken at face value as exact binary rationals.  The observer staircase
inverts nothing: the reduced echelon form of the observability matrix,
stacked on unit rows at its free columns, is already the inverse of the
basis that completes its kernel, and the blocks are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .numeric import STORAGE_RTOL
from .poly import Poly, _lowest
from .polymatrix import (PolyMat, _finverse, _fmatmul, _frref, _irref,
                         _leading_rows, _rref_kernel, _scaled, row_reduced)


class RealizationError(Exception):
    """The pair admits no state-space realization (not an input-output form)."""


# -- exact rational input grids ------------------------------------------------------


def _to_grid(M) -> list[list[Fraction]]:
    """Normalize scalars / nested sequences / numpy arrays to a Fraction grid.
    float entries convert exactly (binary expansion)."""
    if isinstance(M, np.ndarray):
        if M.ndim == 0:
            return [[Fraction(float(M))]]
        if M.ndim == 1:
            return [[Fraction(float(x))] for x in M]
        return [[Fraction(float(x)) for x in row] for row in M]
    if isinstance(M, (int, float, Fraction, str)):
        return [[Fraction(M)]]
    return [[Fraction(x) for x in row] for row in M]


# -- the state-space container ------------------------------------------------------


@dataclass(frozen=True)
class StateSpace:
    """dx/dt = A x + B u,  y = C x + D u, with n inputs, n outputs, d states."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    A_exact: tuple
    B_exact: tuple
    C_exact: tuple
    D_exact: tuple

    @staticmethod
    def from_arrays(A, B, C, D) -> "StateSpace":
        Ag, Bg, Cg, Dg = (_to_grid(M) for M in (A, B, C, D))
        d = len(Ag)
        n = len(Dg)
        if any(len(r) != d for r in Ag) or any(len(r) != n for r in Dg):
            raise ValueError("A must be d x d and D must be n x n")
        if len(Bg) != d or (d and any(len(r) != n for r in Bg)):
            raise ValueError("B must be d x n")
        if len(Cg) != n or (n and any(len(r) != d for r in Cg)):
            raise ValueError("C must be n x d")

        def dense(grid, r, c):
            out = np.zeros((r, c))
            for i, row in enumerate(grid):
                for j, x in enumerate(row):
                    try:
                        v = float(x)
                    except OverflowError:  # an exact entry beyond the float range
                        v = float("inf")
                    if not np.isfinite(v):
                        raise ValueError("non-finite entry in state-space data")
                    out[i, j] = v
            return out

        tup = lambda g: tuple(tuple(row) for row in g)
        return StateSpace(dense(Ag, d, d), dense(Bg, d, n),
                          dense(Cg, n, d), dense(Dg, n, n),
                          tup(Ag), tup(Bg), tup(Cg), tup(Dg))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.D.shape[0]


def shifted_solve(A: np.ndarray, B: np.ndarray, zs) -> np.ndarray:
    """(zI - A)^-1 B at every point z of zs, stacked: shape (len(zs), d, cols)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    d = A.shape[0]
    if d == 0:
        return np.zeros((zs.size, 0, B.shape[1]), dtype=complex)
    Bs = np.broadcast_to(B.astype(complex), (zs.size,) + B.shape)
    return np.linalg.solve(zs[:, None, None] * np.eye(d) - A, Bs)


def resolvent(A_exact) -> tuple[Poly, PolyMat]:
    """(det(sI - A), adj(sI - A)), exact, by the Faddeev-LeVerrier recurrence.

    With N_0 = I, c_k = -tr(A N_{k-1}) / k and N_k = A N_{k-1} + c_k I,

        det(sI - A) = s^d + c_1 s^(d-1) + ... + c_d,
        adj(sI - A) = N_0 s^(d-1) + N_1 s^(d-2) + ... + N_{d-1}

    (Kailath, Linear Systems, 1980; N_d = 0 is Cayley-Hamilton).
    The c_k follow from Newton's identities for the power sums tr(A^k).
    This takes d constant matrix products over the rationals.
    """
    A = [[Fraction(x) for x in row] for row in A_exact]
    d = len(A)
    N = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    charpoly = [Fraction(1)]  # c_0, c_1, ..., high degree first
    layers = []  # N_0, ..., N_{d-1}
    for k in range(1, d + 1):
        layers.append(N)
        AN = _fmatmul(A, N)
        c = -sum(AN[i][i] for i in range(d)) / k
        charpoly.append(c)
        N = [[x + c if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(AN)]
    det = Poly(reversed(charpoly))
    adj = PolyMat([[Poly([layers[d - 1 - m][i][j] for m in range(d)])
                    for j in range(d)] for i in range(d)], cols=d)
    return det, adj


# -- Krylov rows -----------------------------------------------------------------------


def _krylov_blocks(C, A, count: int) -> tuple[list[list[list[int]]], int, int]:
    """(blocks, c, a): C A^k is the integer matrix blocks[k] over c a^k, for
    k < count (at least k = 0), exact.  c and a are the lcms of the
    denominators of C and A, and blocks[k] = (c C)(a A)^k."""
    blk, c = _scaled(C)
    a_cols, a = _scaled(zip(*A))
    blocks = [blk]
    for _ in range(count - 1):
        blk = [[sum(map(mul, row, col)) for col in a_cols] for row in blk]
        blocks.append(blk)
    return blocks, c, a


def observability_matrix(ss: StateSpace) -> list[list[int]]:
    """[C; C A; ...; C A^(d-1)] with block k scaled by c a^k to integers
    (see `_krylov_blocks`): the same row space, so the same rank and the
    same reduced echelon form."""
    blocks, _, _ = _krylov_blocks(ss.C_exact, ss.A_exact, ss.d)
    return [row for blk in blocks for row in blk]


# -- observer staircase ------------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseForm:
    """T A T^-1 = [[A11, 0], [A21, A22]],  C T^-1 = [C1  0], (C1, A11)
    observable; only the observable blocks A11 (d1 x d1), C1 and B1 (the top
    d1 rows of T B) are kept."""
    T: np.ndarray
    A11: np.ndarray
    C1: np.ndarray
    B1: np.ndarray


def staircase(ss: StateSpace) -> StaircaseForm:
    """Observer staircase form, exact, read off the reduced echelon form R
    of the observability matrix with no inversion.

    With p the pivot columns of R, f the free ones and K the kernel basis
    (K[p] = -R[:, f], K[f] = I), S = [e_p K] is nonsingular and its inverse
    is T = [R; e_f^T]: R e_p = I, R K = 0, e_f^T e_p = 0 and e_f^T K = I.
    So A11 = (R A)[:, p], B1 = R B and C1 = C[:, p], and the zero blocks
    of the pattern are R A K = 0 and C K = 0, checked exactly."""
    d = ss.d
    if d == 0:
        z = np.zeros((0, 0))
        return StaircaseForm(z, z, np.zeros((ss.n, 0)), np.zeros((0, ss.n)))
    rref, pivots = _frref(observability_matrix(ss))
    d1 = len(pivots)
    R = rref[:d1]
    K = _rref_kernel(rref, pivots, d)  # d x (d - d1)
    RA = _fmatmul(R, ss.A_exact)
    if any(any(row) for row in _fmatmul(RA, K)):
        raise AssertionError("staircase block (1,2) not zero")
    if any(any(row) for row in _fmatmul(ss.C_exact, K)):
        raise AssertionError("staircase C block not zero")
    T = R + [[Fraction(int(i == j)) for i in range(d)]
             for j in range(d) if j not in pivots]
    f = lambda g: np.array([[float(x) for x in row] for row in g]) if g else np.zeros((0, 0))
    return StaircaseForm(
        T=f(T),
        A11=f([[row[j] for j in pivots] for row in RA]).reshape(d1, d1),
        C1=f([[row[j] for j in pivots] for row in ss.C_exact]).reshape(ss.n, d1),
        B1=f(_fmatmul(R, ss.B_exact)).reshape(d1, ss.n),
    )


# -- behavior <-> state-space -----------------------------------------------------------------


def realize_behavior(ss: StateSpace) -> tuple[PolyMat, PolyMat]:
    """External behavior of the state-space system as a polynomial pair.

    Returns (P, Q) with P(d/dt) u = Q(d/dt) y describing exactly the set of
    (u, y) admitting a compatible state trajectory: P = N B + M D and Q = M
    for the left-coprime (M, N) with M C = N (sI - A) that the observability
    indices of (C, A) give (Wolovich, Linear Multivariable Systems, 1974;
    Kailath, Linear Systems, 1980, sec. 6.4).  Unobservable modes drop out;
    uncontrollable observable modes stay as common factors of P and Q.

    One exact reduction of the Krylov rows c_i A^k, taken in crate order
    (k outer, output i inner), keeps the first independent ones: output i
    keeps k < nu_i, and its first dependent row c_i A^nu_i = sum over kept
    (k, l) of alpha_ikl c_l A^k gives row i of M = s^nu_i e_i - sum
    alpha_ikl s^k e_l.  With M(s) = sum_k M_k s^k, the same rows give
    N(s) = sum_p s^p sum_(k>p) M_k C A^(k-1-p).  Constant matrices then
    certify the pair, with no polynomial echelon form:

      (a) M C = N (sI - A): M_k C + N_k A = N_(k-1) for every k (N_(-1) = 0),
          in integers;
      (b) the leading row-coefficient matrix [coeff(M[i, l], nu_i)] is
          nonsingular, so M is row reduced and deg det M = sum nu_i;
      (c) sum nu_i equals the rank of the Krylov rows.

    By (a) and (b), M^-1 N = C (sI - A)^-1, so the transfer identity
    Q^-1 P = M^-1 (N B + M D) = C (sI - A)^-1 B + D holds exactly and needs
    no check of its own.  And deg det M is at least the McMillan degree of
    M^-1 N, the rank of the observability matrix as (A, I) is controllable,
    with equality exactly when (M, N) is left coprime (Kailath, ch. 6):
    that is (c).

    Everything runs on integers.  The Krylov row c_i A^k is the integer
    row K_j (j = k n + i) over c a^k (`_krylov_blocks`), and `_irref`
    reduces the integer matrix with columns K_j.  Scaling a column keeps
    the pivots, so its reduced form reads each dependent K_dep as a
    rational combination of kept K_p, and one integer multiple of it is a
    relation sum_j v_j K_j = 0 with v_dep > 0.  Over the one denominator
    c a^nu v_dep, row i of M_k is c a^k v_k and row i of N_p is
    a^(p+1) sum_(k>p) v_k K_(k-1-p), where v_k is block k of v.
    """
    n, d = ss.n, ss.d
    blocks, c, a = _krylov_blocks(ss.C_exact, ss.A_exact, d + 1)
    cols = list(zip(*(row for blk in blocks for row in blk)))  # K_j as columns
    m = [list(col) for col in cols]  # d x n(d+1)
    pivots = _irref(m)
    kept = set(pivots)
    coeffs = []
    for i in range(n):
        nu = next(k for k in range(d + 1) if k * n + i not in kept)
        dep = nu * n + i
        # row r of the reduced form is m[r] / m[r][p]: K_dep is the sum of
        # m[r][dep] / m[r][p] K_p over the pivots p < dep
        rel = [(p, m[r][dep], m[r][p]) for r, p in enumerate(pivots)
               if p < dep and m[r][dep]]
        lead = lcm(*(piv for _, _, piv in rel))
        v = [0] * ((nu + 1) * n)
        v[dep] = lead
        for p, x, piv in rel:
            v[p] = -x * (lead // piv)
        coeffs.append((_relation_rows(v, nu, n, cols, c, a), c * a ** nu * lead))
    return _certified_pair(ss, coeffs, len(pivots))


def _relation_rows(v: list[int], nu: int, n: int, cols, c: int, a: int
                   ) -> list[list[int]]:
    """The integer rows c a^k v_k (for M_k) and a^(k+1) sum_(k'>k) v_k'
    K_(k'-1-k) (for N_k), k = 0..nu, of an integer relation sum_j v_j K_j
    = 0 on the Krylov rows K_j (j = k n + l), which `_krylov_blocks` scales
    by c a^k.  When v_k = w a^(nu-k) m_k, with m_k row i of M_k and w a
    scale, they are row i of [M_k N_k] times c a^nu w.  cols are the
    columns of the stacked K_j, at least nu n long."""
    rows = []
    for k in range(nu + 1):
        tail = v[(k + 1) * n:]
        ak = a ** k
        rows.append([c * ak * x for x in v[k * n:(k + 1) * n]]
                    + [ak * a * sum(map(mul, tail, col)) for col in cols])
    return rows


def _certified_pair(ss: StateSpace, coeffs, rank: int) -> tuple[PolyMat, PolyMat]:
    """(N B + M D, M), once certificates (a) to (c) of `realize_behavior`
    pass.  coeffs[i] is (rows, den): rows[k] is row i of [M_k N_k] times
    den, in integers, for k = 0..nu_i, where M(s) = sum_k M_k s^k and N(s)
    likewise; rank is the observable dimension."""
    n, d = ss.n, ss.d
    ca_cols, dca = _scaled(zip(*(ss.C_exact + ss.A_exact)))  # [C; A]
    db_cols, ddb = _scaled(zip(*(ss.D_exact + ss.B_exact)))  # [D; B]
    zero = [0] * (n + d)
    P_rows, Q_rows = [], []
    for mn, den in coeffs:
        for row, prev in zip(mn + [zero], [zero] + mn):  # [M_k N_k] [C; A] = N_(k-1)
            if any(sum(map(mul, row, col)) != dca * p for col, p in zip(ca_cols, prev[n:])):
                raise AssertionError("M C != N (sI - A)")
        P_rows.append([_lowest([sum(map(mul, row, col)) for row in mn], den * ddb)
                       for col in db_cols])
        Q_rows.append([_lowest([row[l] for row in mn], den) for l in range(n)])
    if len(_irref([mn[-1][:n] for mn, _ in coeffs])) < n:
        raise AssertionError("observability-index M is not row reduced")
    if sum(len(mn) - 1 for mn, _ in coeffs) != rank:
        raise AssertionError("observability-index pair is not left coprime")
    return PolyMat(P_rows, cols=n), PolyMat(Q_rows, cols=n)


def realize_statespace(P: PolyMat, Q: PolyMat) -> StateSpace:
    """Observer-style realization of a proper pair P(d/dt) u = Q(d/dt) y.

    Requires Q nonsingular and Q^-1 P proper.  Both are read from the row
    reduction Q1 = U Q: it exists exactly when Q is nonsingular, and then
    Q^-1 P is proper exactly when no row of P1 = U P has a higher degree
    than the same row of Q1 (Kailath, Linear Systems, 1980, Lemma 6.3-11).
    The construction peels off the feedthrough D, and realizes the
    strictly proper remainder with one integrator chain per output channel,
    so the external behavior equals ker [P -Q] exactly (uncontrollable modes
    included).  That is re-checked on every call, by constant matrices only:
    `_certify_observer_form` shows that the realization's behavior is ker
    [P1 -Q1], and U Q = Q1 with det U a nonzero constant shows U unimodular,
    so ker [P1 -Q1] = ker [P -Q].
    """
    n = Q.rows
    if not (Q.is_square and P.rows == n and P.cols == n):
        raise ValueError("pair must be square of matching size")
    try:
        rr = row_reduced(Q)
    except ValueError:
        raise RealizationError(
            "no state-space realization (input-output form violated): Q singular"
        ) from None
    Q1 = rr.E
    P1 = rr.U @ P
    # mu: row degrees of Q1; lam: its (nonsingular) leading row-coefficient
    # matrix; T: the s^mu_i coefficients of P1; D = G(inf) = Lam^-1 T
    mu, lam = _leading_rows(Q1.entries)
    if any(e.degree > d for row, d in zip(P1.entries, mu) for e in row):
        raise RealizationError(
            "no state-space realization (input-output form violated): improper")
    lam_inv = _finverse(lam)
    T = [[P1[i, j].coeff(mu[i]) for j in range(n)] for i in range(n)]
    Dg = _fmatmul(lam_inv, T)
    Nmat = P1 - Q1 @ PolyMat.constant(Dg)
    for i in range(n):
        for j in range(n):
            if Nmat[i, j].degree >= mu[i]:
                raise AssertionError("strictly proper remainder violates row degrees")

    # One integrator chain per row i realizes  s^mu_i w_i = sum_k s^k g_{i,k}
    # with w = Lam (y - D u) and g_{i,k} = (N_k u)_i - (Q1_{<top,k} Lam^-1 w)_i.
    dtot = sum(mu)
    base = []
    off = 0
    for i in range(n):
        base.append(off)
        off += mu[i]
    top_state = {j: base[j] + mu[j] - 1 for j in range(n) if mu[j] >= 1}
    # QL[k] = Q1_k Lam^-1, the s^k coefficients of Q1 times Lam^-1
    QL = [_fmatmul([[e.coeff(k) for e in row] for row in Q1.entries], lam_inv)
          for k in range(max(mu, default=0))]
    A = [[Fraction(0)] * dtot for _ in range(dtot)]
    B = [[Fraction(0)] * n for _ in range(dtot)]
    C = [[Fraction(0)] * dtot for _ in range(n)]
    for i in range(n):
        for m in range(1, mu[i] + 1):
            row = base[i] + m - 1
            if m >= 2:
                A[row][base[i] + m - 2] += 1  # chain shift x_{i,m-1}
            k = m - 1
            for l in range(n):
                B[row][l] += Nmat[i, l].coeff(k)
            # -(q_{i.,k} Lam^-1)_j on the top state of chain j
            for j, st in top_state.items():
                A[row][st] -= QL[k][i][j]
    for c in range(n):
        for j, st in top_state.items():
            C[c][st] = lam_inv[c][j]
    ss = StateSpace.from_arrays(A, B, C, Dg)
    _certify_observer_form(ss, P1, Q1)
    if rr.U @ Q != Q1 or rr.U.det().degree != 0:
        raise AssertionError("row reduction transform is not unimodular")
    return ss


def _certify_observer_form(ss: StateSpace, P1: PolyMat, Q1: PolyMat) -> None:
    """Raise AssertionError unless the external behavior of ss is exactly
    ker [P1 -Q1], for a row-reduced Q1.

    Row i of M = Q1, of degree mu_i, is read as the Krylov relation that
    `realize_behavior` would find: sum_k M_k C A^k = 0 in row i is sum_j
    v_j K_j = 0 with v_k = d_i a^(mu_i - k) M_k, where d_i is the lcm of
    the row's denominators.  `_relation_rows` turns it into the rows of
    [M_k N_k] with N(s) = sum_p s^p sum_(k>p) M_k C A^(k-1-p), and
    `_certified_pair` checks (a) M C = N (sI - A), (b) M row reduced and
    (c) sum mu_i equal to the observable dimension, so (M, N) is the left
    coprime pair of ss, and ss has behavior ker [N B + M D  -M].  Equality
    with (P1, Q1) is the last check.

    For (c), the rank of the Krylov rows is taken over k < max mu_i only:
    fewer rows can only lower the rank, and d = sum mu_i bounds it from
    above, so a rank of d is the observable dimension.  It is d here: the
    observability indices of an observer form are the mu_i (Kailath,
    sec. 6.4)."""
    n = ss.n
    mu = [max(len(e.num) for e in row) - 1 for row in Q1.entries]
    blocks, c, a = _krylov_blocks(ss.C_exact, ss.A_exact, max(mu, default=0))
    cols = list(zip(*(row for blk in blocks for row in blk)))
    rank = len(_irref([list(col) for col in cols]))
    coeffs = []
    for row, nu in zip(Q1.entries, mu):
        den = lcm(*(e.den for e in row))
        v = [e.num[k] * (den // e.den) * a ** (nu - k) if k < len(e.num) else 0
             for k in range(nu + 1) for e in row]
        coeffs.append((_relation_rows(v, nu, n, cols, c, a), c * a ** nu * den))
    if _certified_pair(ss, coeffs, rank) != (P1, Q1):
        raise AssertionError("round trip changed the behavior")


# -- simulation --------------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop run with cumulative supplied energy
    e(t) = integral of u^T y from t0 to t."""
    t: np.ndarray
    u: np.ndarray  # (N, n)
    x: np.ndarray  # (N, d)
    y: np.ndarray  # (N, n)
    energy: np.ndarray  # (N,)
    h: float


_CHUNK = 1024  # RK4 steps per banded solve; bounds the band at 2 d^2 _CHUNK floats


def simulate(ss: StateSpace, x0, u, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 on dx/dt = A x + B u(t), Simpson for the energy integral.

    The step is adjusted so the grid lands exactly on t1 (t1 == t0 gives the
    one-sample trajectory at x0); u is a Signal (or a list of Signals, one
    per input channel) evaluated in closed form at t_k and t_k + h/2, so the
    global error is O(h^4) for smooth inputs.

    On a linear system one RK4 step is the linear map x_(k+1) = Phi x_k + F_k
    (Butcher, Numerical Methods for ODEs, sec. 23).  With M = h A,

        Phi = I + M + M^2/2 + M^3/6 + M^4/24,
        F_k = G0 u(t_k) + Gm u(t_k + h/2) + G1 u(t_k + h),
        G0 = (h/6)(I + M + M^2/2 + M^3/4) B,
        Gm = (h/6)(4I + 2M + M^2/2) B,   G1 = (h/6) B.

    The recurrence over a run of steps is one unit lower-triangular banded
    system (bandwidth 2d - 1, -Phi on the block subdiagonal), solved without
    pivoting by LAPACK dtbtrs, i.e. the forward recurrence in compiled code.
    The band is built once for _CHUNK steps and reused chunk after chunk,
    the last state of a chunk feeding the first row of the next.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    sigs = list(u) if isinstance(u, (list, tuple)) else [u]
    if len(sigs) != ss.n:
        raise ValueError(f"expected {ss.n} input channels, got {len(sigs)}")
    nsteps = max(1, round((t1 - t0) / h)) if t1 > t0 else 0
    he = (t1 - t0) / nsteps if nsteps else h
    t = t0 + he * np.arange(nsteps + 1)

    U = np.column_stack([np.atleast_1d(s(t)) for s in sigs]) \
        if ss.n else np.zeros((nsteps + 1, 0))
    X = np.zeros((nsteps + 1, ss.d))
    X[0] = np.asarray(x0, dtype=float).reshape(ss.d)
    if ss.d and nsteps:
        tm = t[:-1] + 0.5 * he
        Um = np.column_stack([np.atleast_1d(s(tm)) for s in sigs]) \
            if ss.n else np.zeros((nsteps, 0))
        _rk4_propagate(ss.A, ss.B, he, U, Um, X)
    Y = X @ ss.C.T + U @ ss.D.T
    g = np.sum(U * Y, axis=1)
    if nsteps >= 2:
        from scipy.integrate import cumulative_simpson  # slow import, kept local
        energy = np.concatenate([[0.0], cumulative_simpson(g, dx=he)])
    elif nsteps == 1:
        energy = np.array([0.0, 0.5 * he * (g[0] + g[1])])
    else:
        energy = np.zeros(1)
    return Trajectory(t=t, u=U, x=X, y=Y, energy=energy, h=he)


def _rk4_propagate(A, B, h: float, U, Um, X) -> None:
    """Fill X[1:] from X[0] by the RK4 propagator (see simulate)."""
    from scipy.linalg.lapack import dtbtrs  # slow import, kept local

    nsteps, d = len(X) - 1, A.shape[0]
    I = np.eye(d)
    M = h * A
    M2 = M @ M
    M3 = M2 @ M
    Phi = I + M + M2 / 2 + M3 / 6 + (M2 @ M2) / 24
    G0 = (h / 6) * (I + M + M2 / 2 + M3 / 4) @ B
    Gm = (h / 6) * (4 * I + 2 * M + M2 / 2) @ B
    G1 = (h / 6) * B
    F = X[1:]  # the forcing, solved in place chunk by chunk
    np.matmul(U[:-1], G0.T, out=F)
    F += Um @ Gm.T
    F += U[1:] @ G1.T
    # band rows r = 1 .. 2d-1 of column k d + j hold the entries
    # (k d + j + r, k d + j); -Phi[i, j] sits at r = d + i - j
    m = min(nsteps, _CHUNK)
    ab = np.zeros((2 * d, m, d))
    i, j = np.indices((d, d))
    ab[d + i - j, :, j] = -Phi[:, :, None]
    ab = ab.reshape(2 * d, m * d)
    for k0 in range(0, nsteps, m):
        k1 = min(k0 + m, nsteps)
        F[k0] += Phi @ X[k0]
        sol, info = dtbtrs(ab[:, :(k1 - k0) * d], F[k0:k1].reshape(-1, 1),
                           uplo="L", diag="U")
        if info != 0:
            raise np.linalg.LinAlgError(f"dtbtrs failed with info = {info}")
        F[k0:k1] = sol.reshape(k1 - k0, d)


@dataclass(frozen=True)
class StorageCheck:
    """Energy-balance diagnostics of a Lur'e triple along one trajectory."""
    identity_residual: float
    # integral u^T y - 1/2 [x^T X x]; at least -STORAGE_RTOL relative if ok
    dissipation_slack: float
    ok: bool


def lure_rows(ss: StateSpace, L, W) -> tuple[np.ndarray, np.ndarray]:
    """L and W of a Lur'e triple as float arrays of shapes (q, d) and (q, n).
    q is the row count of L, or of W where L is empty; where both are empty,
    the larger of their row counts, and 0 for a system with no states and
    no ports."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if L.size:
        q = L.shape[0]
    elif W.size:
        q = W.shape[0]
    else:
        q = max(L.shape[0], W.shape[0]) if ss.d or ss.n else 0
    return (L.reshape(q, ss.d) if L.size else np.zeros((q, ss.d)),
            W.reshape(q, ss.n) if W.size else np.zeros((q, ss.n)))


def storage_check(ss: StateSpace, X, L, W, traj: Trajectory) -> StorageCheck:
    """Check the quadratic-storage energy identity on a simulated trajectory:

        int (u^T y + y^T u) dt - [x^T X x] = int |L x + W u|^2 dt

    and the dissipation inequality  int u^T y >= 1/2 [x^T X x], both to the
    relative STORAGE_RTOL.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float)).reshape(ss.d, ss.d)
    L, W = lure_rows(ss, L, W)
    supply = 2.0 * traj.energy[-1]  # simulate's Simpson integral of u^T y
    storage = traj.x[-1] @ X @ traj.x[-1] - traj.x[0] @ X @ traj.x[0]
    v = traj.x @ L.T + traj.u @ W.T
    rhs = _simpson_total(np.sum(v * v, axis=1), traj.h)
    lhs = supply - storage
    residual = abs(lhs - rhs) / (1.0 + abs(rhs))
    slack = 0.5 * supply - 0.5 * storage
    floor = -STORAGE_RTOL * (1.0 + abs(0.5 * supply))
    ok = residual <= STORAGE_RTOL and slack >= floor
    return StorageCheck(identity_residual=residual, dissipation_slack=slack, ok=ok)


def _simpson_total(g: np.ndarray, h: float) -> float:
    from scipy.integrate import simpson  # slow import, kept local
    return float(simpson(g, dx=h))
