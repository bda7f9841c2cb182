"""Old-equals-new checks of the stable-stage solvers.

The references below are the earlier solvers, kept here to check their
replacements against:

  * `reference_remark61_solve` evaluated the stable-stage equation
    K*(s) L + J(s)(sI - As) = M*(s) Cs at each eigenvalue of As, with the
    eigenvector, or with numeric Jordan chains and Taylor coefficients of
    K* and M* where the eigenvectors are rank-deficient;
  * `reference_lyapunov_solve` solved -A^T X - X A = Q by Kronecker
    vectorization, one d^2 x d^2 dense solve.

The corpus comparison runs on the inputs that certifying the corpus through
the polynomial pipeline (`tests/pipeline_ref.py`) hands to `remark61_solve`
and `lyapunov_solve`.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from conftest import corpus
from fp_grid import fp, fp_star, fp_trim, polymat_to_fp
import pipeline_ref

from passlab.certificate import StableStageError, construct_certificate
from passlab.numeric import DEFAULT_TOL, LyapunovError, lyapunov_solve

REL = 1e-12


# -- the references ------------------------------------------------------------


def _taylor_coeffs_fp(c, lam, depth):
    out = []
    fac = 1.0
    cur = fp(c)
    for j in range(depth):
        out.append(complex(npp.polyval(lam, cur)) / fac)
        cur = npp.polyder(cur)
        fac *= (j + 1)
    return out


def _jordan_chains(As):
    """Numeric Jordan chains (lam, [v1, v2, ...]) with (As - lam) v1 = 0 and
    (As - lam) v_{k+1} = v_k; rank decisions by an SVD cutoff."""
    d = As.shape[0]
    lams = np.linalg.eigvals(As)
    scale = 1.0 + max(abs(lams), default=0.0)
    clusters = []
    used = [False] * d
    for i in range(d):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        for j in range(i + 1, d):
            if not used[j] and abs(lams[i] - lams[j]) < 1e-6 * scale:
                group.append(j)
                used[j] = True
        clusters.append((complex(np.mean([lams[g] for g in group])), len(group)))
    chains = []
    for lam, mult in clusters:
        Ashift = As - lam * np.eye(d)
        _, sv, Vh = np.linalg.svd(Ashift)
        ker_dim = int(np.sum(sv <= 1e-8 * scale))
        kernel = Vh[d - ker_dim:].conj().T if ker_dim else np.zeros((d, 0))
        # distribute the remaining multiplicity by extending chains greedily
        remaining = mult - ker_dim
        for c in range(ker_dim):
            chain = [kernel[:, c]]
            while remaining > 0:
                nxt, *_ = np.linalg.lstsq(Ashift, chain[-1], rcond=None)
                if np.linalg.norm(Ashift @ nxt - chain[-1]) > 1e-6 * scale:
                    break
                chain.append(nxt)
                remaining -= 1
            chains.append((lam, chain))
        if ker_dim == 0:
            raise StableStageError("eigenvalue cluster with empty kernel")
    return chains


def reference_remark61_solve(K, M, As, Cs, tol=DEFAULT_TOL):
    """K is a coefficient stack, read entry by entry as the grid format
    held it."""
    _, r, n = K.shape
    ds = As.shape[0] if As.size else 0
    if r == 0 or ds == 0:
        return np.zeros((r, ds))
    Cs = np.asarray(Cs, dtype=float).reshape(n, ds)
    Kstar = [[fp_star(fp_trim(K[:, i, j])) for i in range(r)] for j in range(n)]
    Mstar_fp = polymat_to_fp(M.star())
    rows_re, rhs_re = [], []
    lams, V = np.linalg.eig(As)
    if np.linalg.matrix_rank(V, tol=1e-8) < ds:
        chains = _jordan_chains(As)
    else:
        chains = [(complex(lams[i]), [V[:, i]]) for i in range(ds)]
    for lam, chain in chains:
        depth = len(chain)
        Ks_taylor = [[_taylor_coeffs_fp(Kstar[j][i], lam, depth)
                      for i in range(r)] for j in range(n)]
        Ms_taylor = [[_taylor_coeffs_fp(Mstar_fp[j][i], lam, depth)
                      for i in range(n)] for j in range(n)]
        for k in range(1, depth + 1):
            lhs = np.zeros((n, r * ds), dtype=complex)
            rhs = np.zeros(n, dtype=complex)
            for j in range(k):
                v = chain[k - j - 1]
                Kj = np.array([[Ks_taylor[a][b][j] for b in range(r)]
                               for a in range(n)])
                Mj = np.array([[Ms_taylor[a][b][j] for b in range(n)]
                               for a in range(n)])
                lhs += np.kron(v.reshape(1, ds), Kj)
                rhs += Mj @ (Cs @ v)
            rows_re.append(np.vstack([lhs.real, lhs.imag]))
            rhs_re.append(np.concatenate([rhs.real, rhs.imag]))
    Amat = np.vstack(rows_re)
    bvec = np.concatenate(rhs_re)
    sol, *_ = np.linalg.lstsq(Amat, bvec, rcond=None)
    resid = float(np.linalg.norm(Amat @ sol - bvec))
    if resid > tol.residual_tol * (1.0 + float(np.linalg.norm(bvec))):
        raise StableStageError(f"no L exists (residual {resid:.3e})")
    return sol.reshape((r, ds), order="F")


def reference_lyapunov_solve(A, Qrhs, tol=DEFAULT_TOL):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Qrhs = np.atleast_2d(np.asarray(Qrhs, dtype=float))
    d = A.shape[0]
    if d == 0:
        return np.zeros((0, 0))
    lams = np.linalg.eigvals(A)
    scale = 1.0 + max(abs(lams), default=0.0)
    for i in range(d):
        for j in range(d):
            if abs(lams[i] + lams[j]) <= 1e-10 * scale:
                raise LyapunovError("singular Lyapunov operator")
    eye = np.eye(d)
    K = np.kron(eye, A.T) + np.kron(A.T, eye)
    x = np.linalg.solve(K, -Qrhs.flatten(order="F"))
    X = x.reshape((d, d), order="F")
    X = (X + X.T) / 2.0
    res = np.linalg.norm(-A.T @ X - X @ A - Qrhs)
    if res > tol.residual_tol * (1.0 + np.linalg.norm(Qrhs)):
        raise LyapunovError(f"Lyapunov residual too large: {res:.3e}")
    return X


# -- the recorded inputs ---------------------------------------------------------


def record_stable_stage(monkeypatch, systems):
    """(args, output) of every remark61_solve and lyapunov_solve call the
    pipeline makes while certifying `systems`, and `construct_certificate`'s
    statuses.  A call that raises records the exception type as its
    output."""
    calls = {"L": [], "X": []}

    def recorder(key, fn):
        def wrapped(*args):
            try:
                out = fn(*args)
            except Exception as e:
                calls[key].append((args, type(e)))
                raise
            calls[key].append((args, out))
            return out
        return wrapped

    monkeypatch.setattr(pipeline_ref, "remark61_solve",
                        recorder("L", pipeline_ref.remark61_solve))
    monkeypatch.setattr(pipeline_ref, "lyapunov_solve",
                        recorder("X", lyapunov_solve))
    for ss in systems:
        pipeline_ref.pipeline_certify(ss)
    return calls, [construct_certificate(ss).status for ss in systems]


def assert_old_equals_new(calls, reference) -> None:
    """Each (args, output) against the reference on the same args; an
    output that is an exception type must be raised by the reference too."""
    for args, new in calls:
        if isinstance(new, type):
            with pytest.raises(new):
                reference(*args)
            continue
        old = reference(*args)
        assert new.shape == old.shape
        diff = float(np.linalg.norm(new - old))
        scale = float(np.linalg.norm(old))
        assert diff <= REL * max(scale, 1e-3), (diff, scale, args)


# -- the checks -------------------------------------------------------------------


class TestOldEqualsNew:
    def test_corpus(self, monkeypatch):
        calls, statuses = record_stable_stage(
            monkeypatch, [ss for _, ss in corpus()])
        assert len(calls["L"]) == 20
        assert_old_equals_new(calls["L"], reference_remark61_solve)
        assert_old_equals_new(calls["X"], reference_lyapunov_solve)
        assert statuses.count("certified") == 20

    def test_lyapunov_inputs(self):
        l_val = 2 - math.sqrt(2)
        inputs = [(np.array([[-1.0]]), np.array([[l_val ** 2]])),
                  (-np.eye(2), np.zeros((2, 2))),
                  (np.diag([-1.0, -2.0]), np.eye(2)),
                  (np.array([[0.0]]), np.array([[1.0]])),
                  (np.zeros((0, 0)), np.zeros((0, 0)))]
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.integers(1, 5)
            A = -np.eye(d) * rng.uniform(0.5, 2) + 0.3 * rng.standard_normal((d, d))
            Q = rng.standard_normal((d, d))
            inputs.append((A, Q + Q.T))
        calls = []
        for args in inputs:
            try:
                calls.append((args, lyapunov_solve(*args)))
            except LyapunovError:
                calls.append((args, LyapunovError))
        assert calls[3][1] is LyapunovError
        assert_old_equals_new(calls, reference_lyapunov_solve)
