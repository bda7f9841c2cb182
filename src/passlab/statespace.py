"""State-space systems: realizations in both directions, observer staircase,
controllability/observability tests, and trajectory simulation with running
energy integrals.

The realization bridge works at the behavior level, not just the transfer
function: converting (A, B, C, D) to a polynomial pair keeps uncontrollable
dynamics (as common polynomial factors), and converting a proper pair back
produces a state-space system whose external behavior is the kernel of the
pair, not merely a system with the same transfer function.  Rank decisions
(staircase, Krylov tests) are exact over the rationals; float inputs are
taken at face value as exact binary rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numeric import DEFAULT_TOL, Tolerance
from .poly import Poly
from .polymatrix import (PolyMat, _finverse, _fkernel, _fmatmul, _frank, delta,
                         left_coprime, row_echelon, row_reduced,
                         unimodularly_equivalent)
from .signals import Signal


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

    def transfer_at(self, z: complex) -> np.ndarray:
        """G(z) = D + C (zI - A)^-1 B."""
        if self.d == 0:
            return self.D.astype(complex)
        M = z * np.eye(self.d) - self.A
        return self.D + self.C @ np.linalg.solve(M, self.B.astype(complex))


def si_matrix(A_exact) -> PolyMat:
    """The polynomial matrix sI - A, exact."""
    d = len(A_exact)
    s = Poly.x()
    return PolyMat([[s - A_exact[i][j] if i == j else Poly.constant(-A_exact[i][j])
                     for j in range(d)] for i in range(d)])


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


# -- Krylov tests ----------------------------------------------------------------------


def observability_matrix(ss: StateSpace) -> list[list[Fraction]]:
    rows = [list(r) for r in ss.C_exact]
    blk = [list(r) for r in ss.C_exact]
    for _ in range(ss.d - 1):
        blk = _fmatmul(blk, ss.A_exact)
        rows.extend(blk)
    return rows


def controllability_matrix(ss: StateSpace) -> list[list[Fraction]]:
    cols = [list(r) for r in ss.B_exact]
    out = [row[:] for row in cols]
    for _ in range(ss.d - 1):
        cols = _fmatmul(ss.A_exact, cols)
        for i in range(ss.d):
            out[i].extend(cols[i])
    return out


def observable(ss: StateSpace) -> bool:
    return ss.d == 0 or _frank(observability_matrix(ss)) == ss.d


def controllable(ss: StateSpace) -> bool:
    return ss.d == 0 or _frank(controllability_matrix(ss)) == ss.d


# -- observer staircase ------------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseForm:
    """T A Tinv = [[A11, 0], [A21, A22]],  C Tinv = [C1  0], (C1, A11) observable."""
    T: np.ndarray
    Tinv: np.ndarray
    d1: int
    A11: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    C1: np.ndarray
    B1: np.ndarray
    B2: np.ndarray


def staircase(ss: StateSpace) -> StaircaseForm:
    """Observer staircase form; the coordinate change is computed exactly."""
    d = ss.d
    if d == 0:
        z = np.zeros((0, 0))
        return StaircaseForm(z, z, 0, z, z, z, np.zeros((ss.n, 0)),
                             np.zeros((0, ss.n)), np.zeros((0, ss.n)))
    Vo = observability_matrix(ss)
    ker = _fkernel(Vo)  # d x (d - d1)
    d1 = d - (len(ker[0]) if ker and ker[0] else 0)
    # complete the kernel basis to a nonsingular S = [S1 ker]
    S_cols: list[list[Fraction]] = [[ker[i][j] for i in range(d)]
                                    for j in range(len(ker[0]))] if d1 < d else []
    chosen: list[list[Fraction]] = []
    for j in range(d):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(d)]
        trial = chosen + [e] + S_cols
        mat = [[trial[c][r] for c in range(len(trial))] for r in range(d)]
        if _frank(mat) == len(trial):
            chosen.append(e)
        if len(chosen) == d1:
            break
    cols = chosen + S_cols
    S = [[cols[c][r] for c in range(d)] for r in range(d)]
    T = _finverse(S)
    At = _fmatmul(_fmatmul(T, ss.A_exact), S)
    Ct = _fmatmul(ss.C_exact, S)
    Bt = _fmatmul(T, ss.B_exact)
    # exact zero checks of the staircase pattern
    for i in range(d1):
        for j in range(d1, d):
            if At[i][j] != 0:
                raise AssertionError("staircase block (1,2) not zero")
    for i in range(ss.n):
        for j in range(d1, d):
            if Ct[i][j] != 0:
                raise AssertionError("staircase C block not zero")
    f = lambda g: np.array([[float(x) for x in row] for row in g]) if g else np.zeros((0, 0))
    Tn = f(T)
    return StaircaseForm(
        T=Tn, Tinv=f(S), d1=d1,
        A11=f([r[:d1] for r in At[:d1]]).reshape(d1, d1),
        A21=f([r[:d1] for r in At[d1:]]).reshape(d - d1, d1),
        A22=f([r[d1:] for r in At[d1:]]).reshape(d - d1, d - d1),
        C1=f([r[:d1] for r in Ct]).reshape(ss.n, d1),
        B1=f(Bt[:d1]).reshape(d1, ss.n),
        B2=f(Bt[d1:]).reshape(d - d1, ss.n),
    )


# -- behavior <-> state-space -----------------------------------------------------------------


def realize_behavior(ss: StateSpace, check: bool = True
                     ) -> tuple[PolyMat, PolyMat]:
    """External behavior of the state-space system as a polynomial pair.

    Returns (P, Q) with P(d/dt) u = Q(d/dt) y describing exactly the set of
    (u, y) admitting a compatible state trajectory.  Built from a left-coprime
    (M, N) solving M C = N (sI - A): the rows of [M N] are a syzygy basis of
    stack(C, -(sI - A)), obtained from the exact row echelon transform.
    """
    n, d = ss.n, ss.d
    if d == 0:
        Dm = PolyMat.constant(ss.D_exact)
        return Dm, PolyMat.identity(n)
    Cm = PolyMat.constant(ss.C_exact)
    K = Cm.vstack(-si_matrix(ss.A_exact))
    res = row_echelon(K)
    if res.rank != d:
        raise AssertionError("sI - A lost rank in echelon reduction")
    tail = res.U.submatrix(range(d, d + n), range(n + d))
    M = tail.select_columns(range(n))
    N = tail.select_columns(range(n, n + d))
    Bm = PolyMat.constant(ss.B_exact)
    Dm = PolyMat.constant(ss.D_exact)
    P = N @ Bm + M @ Dm
    Q = M
    if check:
        if not (M @ Cm - N @ si_matrix(ss.A_exact)).is_zero:
            raise AssertionError("M C != N (sI - A)")
        if not left_coprime(M, N):
            raise AssertionError("echelon syzygy rows are not left coprime")
        _check_transfer_consistency(ss, P, Q)
    return P, Q


def _check_transfer_consistency(ss: StateSpace, P: PolyMat, Q: PolyMat,
                                points: int = 5, rtol: float = 1e-8):
    rng = random.Random(20170907)
    done = 0
    while done < points:
        z = complex(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))
        Qz = Q.eval_complex(z)
        if abs(np.linalg.det(Qz)) < 1e-8:
            continue
        if ss.d and abs(np.linalg.det(z * np.eye(ss.d) - ss.A)) < 1e-8:
            continue
        G1 = np.linalg.solve(Qz, P.eval_complex(z))
        G2 = ss.transfer_at(z)
        if np.linalg.norm(G1 - G2) > rtol * (1.0 + np.linalg.norm(G2)):
            raise AssertionError("transfer function mismatch in realization")
        done += 1


def realize_statespace(P: PolyMat, Q: PolyMat, check: bool = True) -> StateSpace:
    """Observer-style realization of a proper pair P(d/dt) u = Q(d/dt) y.

    Requires Q nonsingular and Q^-1 P proper, certified exactly by
    deg det Q == max degree of the full-size minors of [P -Q].  The
    construction row-reduces Q, peels off the feedthrough D, and realizes the
    strictly proper remainder with one integrator chain per output channel,
    so the external behavior equals ker [P -Q] exactly (uncontrollable modes
    included).
    """
    n = Q.rows
    if not (Q.is_square and P.rows == n and P.cols == n):
        raise ValueError("pair must be square of matching size")
    detq = Q.det()
    if detq.is_zero:
        raise RealizationError(
            "no state-space realization (input-output form violated): Q singular")
    if delta(P.hstack(-Q)) != detq.degree:
        raise RealizationError(
            "no state-space realization (input-output form violated): improper")
    rr = row_reduced(Q)
    Q1 = rr.E
    P1 = rr.U @ P
    mu = [max(int(Q1[i, j].degree) for j in range(n) if not Q1[i, j].is_zero)
          for i in range(n)]
    # leading row-coefficient matrix of the row-reduced Q1 (nonsingular) and
    # the matching top coefficients of P1; D = G(inf) = Lam^-1 T
    lam = [[Q1[i, j].coeff(mu[i]) for j in range(n)] for i in range(n)]
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
                coef = sum(Q1[i, jj].coeff(k) * lam_inv[jj][j] for jj in range(n))
                A[row][st] -= coef
    for c in range(n):
        for j, st in top_state.items():
            C[c][st] = lam_inv[c][j]
    ss = StateSpace.from_arrays(A, B, C, Dg)
    if check:
        Pr, Qr = realize_behavior(ss, check=False)
        if not unimodularly_equivalent(Pr.hstack(-Qr), P.hstack(-Q)):
            raise AssertionError("round trip changed the behavior")
    return ss


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


def simulate(ss: StateSpace, x0, u, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 on dx/dt = A x + B u(t), Simpson for the energy integral.

    The step is adjusted so the grid lands exactly on t1; u is a Signal (or a
    list of Signals, one per input channel) evaluated in closed form at the
    RK4 stage points, so the global error is O(h^4) for smooth inputs.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    sigs = list(u) if isinstance(u, (list, tuple)) else [u]
    if len(sigs) != ss.n:
        raise ValueError(f"expected {ss.n} input channels, got {len(sigs)}")
    nsteps = max(1, round((t1 - t0) / h))
    he = (t1 - t0) / nsteps if t1 > t0 else h
    t = t0 + he * np.arange(nsteps + 1)

    U = np.column_stack([np.atleast_1d(s(t)) for s in sigs]) \
        if ss.n else np.zeros((nsteps + 1, 0))
    tm = t[:-1] + 0.5 * he
    Um = np.column_stack([np.atleast_1d(s(tm)) for s in sigs]) \
        if ss.n else np.zeros((nsteps, 0))

    x0 = np.asarray(x0, dtype=float).reshape(ss.d)
    X = np.zeros((nsteps + 1, ss.d))
    X[0] = x0
    A, B = ss.A, ss.B
    if ss.d:
        Bu0 = U[:-1] @ B.T
        Bum = Um @ B.T
        Bu1 = U[1:] @ B.T
        for k in range(nsteps):
            xk = X[k]
            k1 = A @ xk + Bu0[k]
            k2 = A @ (xk + 0.5 * he * k1) + Bum[k]
            k3 = A @ (xk + 0.5 * he * k2) + Bum[k]
            k4 = A @ (xk + he * k3) + Bu1[k]
            X[k + 1] = xk + (he / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    Y = X @ ss.C.T + U @ ss.D.T
    g = np.sum(U * Y, axis=1)
    if nsteps >= 2:
        from scipy.integrate import cumulative_simpson  # slow import, kept local
        energy = np.concatenate([[0.0], cumulative_simpson(g, dx=he)])
    else:
        energy = np.concatenate([[0.0], [0.5 * he * (g[0] + g[1])]]) \
            if nsteps == 1 and t1 > t0 else np.zeros(nsteps + 1)
    return Trajectory(t=t, u=U, x=X, y=Y, energy=energy, h=he)


@dataclass(frozen=True)
class StorageCheck:
    """Energy-balance diagnostics of a Lur'e triple along one trajectory."""
    identity_residual: float
    dissipation_slack: float  # integral u^T y - 1/2 [x^T X x]; >= -tol when valid
    ok: bool


def storage_check(ss: StateSpace, X, L, W, traj: Trajectory,
                  tol: Tolerance = DEFAULT_TOL, rtol: float = 1e-6) -> StorageCheck:
    """Check the quadratic-storage energy identity on a simulated trajectory:

        int (u^T y + y^T u) dt - [x^T X x] = int |L x + W u|^2 dt

    and the dissipation inequality  int u^T y >= 1/2 [x^T X x].
    """
    X = np.atleast_2d(np.asarray(X, dtype=float)).reshape(ss.d, ss.d)
    L = np.atleast_2d(np.asarray(L, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    q = L.shape[0] if L.size else (W.shape[0] if W.size else L.shape[0])
    L = L.reshape(q, ss.d) if L.size else np.zeros((q, ss.d))
    W = W.reshape(q, ss.n) if W.size else np.zeros((q, ss.n))
    g = np.sum(traj.u * traj.y, axis=1)
    supply = 2.0 * _simpson_total(g, traj.h)
    storage = traj.x[-1] @ X @ traj.x[-1] - traj.x[0] @ X @ traj.x[0]
    v = traj.x @ L.T + traj.u @ W.T
    rhs = _simpson_total(np.sum(v * v, axis=1), traj.h)
    lhs = supply - storage
    residual = abs(lhs - rhs) / (1.0 + abs(rhs))
    slack = 0.5 * supply - 0.5 * storage
    ok = residual <= rtol and slack >= -rtol * (1.0 + abs(0.5 * supply))
    return StorageCheck(identity_residual=residual, dissipation_slack=slack, ok=ok)


def _simpson_total(g: np.ndarray, h: float) -> float:
    if len(g) < 3:
        return float(np.trapezoid(g, dx=h)) if len(g) == 2 else 0.0
    from scipy.integrate import cumulative_simpson  # slow import, kept local
    return float(cumulative_simpson(g, dx=h)[-1])
