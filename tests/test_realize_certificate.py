"""Old-equals-new checks of the certificate that `realize_behavior` gives
its pair.

The reference below is the earlier check, kept here to test its
replacement against: it rebuilt M C - N (sI - A) as a polynomial matrix
product and decided left coprimeness of (M, N) by the gcd of the maximal
minors of [M N], a Euclidean sweep.  The new certificate reads only
constant matrices: the coefficients of M C = N (sI - A), the leading
row-coefficient matrix of M, and the observable dimension.

A second reference is the float check that once ran after that
certificate: Q^-1 P against the transfer function at random points.  The
certificate implies it, and every pair it accepts here passes it too.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import (controllable, corpus, jordan_system, left_coprime,
                      observable, si_matrix, siso_sweep_system)
from test_certificate import coupled_rc
from test_statespace import staircase_system

from passlab import polymatrix
from passlab.poly import Poly
from passlab.polymatrix import PolyMat, _fmatmul, _frank, _frref
from passlab.statespace import (StateSpace, _certified_pair, _krylov_blocks,
                                observability_matrix, realize_behavior,
                                shifted_solve)

S = Poly.x()


# -- the reference -------------------------------------------------------------


def reference_check(ss: StateSpace, M: PolyMat, N: PolyMat) -> None:
    """The earlier polynomial check of a left fraction (M, N)."""
    if not (M @ PolyMat.constant(ss.C_exact) - N @ si_matrix(ss.A_exact)).is_zero:
        raise AssertionError("M C != N (sI - A)")
    if not left_coprime(M, N):
        raise AssertionError("observability-index pair is not left coprime")


def check_transfer_consistency(ss: StateSpace, P: PolyMat, Q: PolyMat,
                               points: int = 5, rtol: float = 1e-8) -> None:
    """The earlier float check of a realized pair: Q^-1 P against
    D + C (zI - A)^-1 B at seeded random points z where neither |det Q(z)|
    nor |det(zI - A)| is below 1e-8, by stacked solves."""
    rng = random.Random(20170907)
    zs, Qs = [], []
    while len(zs) < points:
        z = complex(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))
        Qz = Q.eval_complex(z)
        if abs(np.linalg.det(Qz)) < 1e-8:
            continue
        if ss.d and abs(np.linalg.det(z * np.eye(ss.d) - ss.A)) < 1e-8:
            continue
        zs.append(z)
        Qs.append(Qz)
    G1 = np.linalg.solve(np.array(Qs), P.eval_stack(zs))
    G2 = ss.D + ss.C @ shifted_solve(ss.A, ss.B, zs)
    gap = np.linalg.norm(G1 - G2, axis=(1, 2))
    if np.any(gap > rtol * (1.0 + np.linalg.norm(G2, axis=(1, 2)))):
        raise AssertionError("transfer function mismatch in realization")


def reference_fraction(ss: StateSpace) -> tuple[PolyMat, PolyMat]:
    """(M, N) from the observability indices, built as `realize_behavior`
    built them before the certificate, as polynomial matrices."""
    n, d = ss.n, ss.d
    krylov = [row for blk in _krylov_blocks(ss.C_exact, ss.A_exact, d + 1)
              for row in blk]
    rref, pivots = _frref([list(col) for col in zip(*krylov)])
    kept = set(pivots)
    width = n * (d + 1)
    nus, m_rows = [], []
    for i in range(n):
        nu = next(k for k in range(d + 1) if k * n + i not in kept)
        dep = nu * n + i
        row = [Fraction(0)] * width
        row[dep] = Fraction(1)
        for r, p in enumerate(pivots):
            row[p] = -rref[r][dep]
        nus.append(nu)
        m_rows.append(row)
    n_coeffs = _fmatmul([row[(p + 1) * n:] + [Fraction(0)] * ((p + 1) * n)
                         for row, nu in zip(m_rows, nus) for p in range(nu)], krylov)
    M_rows, N_rows = [], []
    for row, nu in zip(m_rows, nus):
        M_rows.append([Poly(row[l:(nu + 1) * n:n]) for l in range(n)])
        N_rows.append([Poly([n_coeffs[p][col] for p in range(nu)]) for col in range(d)])
        n_coeffs = n_coeffs[nu:]
    return PolyMat(M_rows, cols=n), PolyMat(N_rows, cols=d)


def reference_pair(ss: StateSpace) -> tuple[PolyMat, PolyMat]:
    """P = N B + M D and Q = M by polynomial matrix products, after the
    reference check."""
    if ss.d == 0:
        return PolyMat.constant(ss.D_exact), PolyMat.identity(ss.n)
    M, N = reference_fraction(ss)
    reference_check(ss, M, N)
    return (N @ PolyMat.constant(ss.B_exact) + M @ PolyMat.constant(ss.D_exact)), M


def coefficient_rows(M: PolyMat, N: PolyMat):
    """(M, N) as the rows that `_certified_pair` reads: row i of [M_k N_k]
    for k up to the larger degree of row i of M and of N."""
    rows = []
    for mrow, nrow in zip(M.entries, N.entries):
        top = max(len(p.coeffs) for p in mrow + nrow)
        rows.append([[p.coeff(k) for p in mrow + nrow] for k in range(top)])
    return rows


def certify(ss: StateSpace, M: PolyMat, N: PolyMat):
    return _certified_pair(ss, coefficient_rows(M, N),
                           _frank(observability_matrix(ss)))


# -- the systems ---------------------------------------------------------------


def hidden_mode_systems():
    """Seeded random systems with both an uncontrollable and an
    unobservable block, n = 1..3."""
    rng = random.Random(20261019)
    for trial in range(30):
        n = 1 + trial % 3
        sizes = (rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 2))
        yield f"hidden-{trial}", staircase_system(rng, n, sizes)


def systems():
    yield from corpus()
    rng = random.Random(104729)
    for d in range(4, 13):
        yield f"siso-{d}", siso_sweep_system(rng, d)
    for C in ([[1, 2]], [[1, 3, 3]]):
        for D in ([[0]], [[1]]):
            yield f"jordan-{len(C[0])}-D{D[0][0]}", jordan_system(C, D)
    yield from hidden_mode_systems()


# -- old equals new ------------------------------------------------------------


def test_hidden_mode_systems_hide_modes():
    for name, ss in hidden_mode_systems():
        assert not controllable(ss) and not observable(ss), name


@pytest.mark.parametrize("ss", [pytest.param(ss, id=name) for name, ss in systems()])
def test_certificate_accepts_and_pair_equals_reference(ss):
    P_old, Q_old = reference_pair(ss)  # raises where the old check rejects
    P, Q = realize_behavior(ss)
    assert P == P_old and Q == Q_old
    check_transfer_consistency(ss, P, Q)
    if ss.d:
        assert certify(ss, *reference_fraction(ss)) == (P, Q)


# -- rejections ----------------------------------------------------------------


def rejection_systems():
    return [siso_sweep_system(random.Random(104729), 6), coupled_rc(3)]


@pytest.mark.parametrize("ss", rejection_systems(), ids=["siso-6", "coupled-rc-3"])
def test_perturbed_n_coefficient_rejected(ss):
    M, N = reference_fraction(ss)
    entries = [list(row) for row in N.entries]
    entries[0][0] = entries[0][0] + Fraction(1, 7)
    N = PolyMat(entries, cols=ss.d)
    for check in (reference_check, certify):
        with pytest.raises(AssertionError, match=r"M C != N \(sI - A\)"):
            check(ss, M, N)
    # the float check reads N only through P = N B + M D, so it rejects the
    # perturbed column 0 only where row 0 of B is nonzero; on siso-6 that
    # row is zero, the pair is unchanged, and only identity (a) sees it
    P = N @ PolyMat.constant(ss.B_exact) + M @ PolyMat.constant(ss.D_exact)
    if any(ss.B_exact[0]):
        with pytest.raises(AssertionError, match="transfer function mismatch"):
            check_transfer_consistency(ss, P, M)
    else:
        assert (P, M) == realize_behavior(ss)
        check_transfer_consistency(ss, P, M)


@pytest.mark.parametrize("ss", rejection_systems(), ids=["siso-6", "coupled-rc-3"])
def test_common_left_factor_rejected(ss):
    """diag(s + 1, 1, ...) (M, N) keeps M C = N (sI - A) and a row-reduced
    M, with nu_0 one higher than the observable dimension allows."""
    n = ss.n
    F = PolyMat([[S + 1 if i == j == 0 else Poly.constant(int(i == j))
                  for j in range(n)] for i in range(n)])
    M, N = reference_fraction(ss)
    for check in (reference_check, certify):
        with pytest.raises(AssertionError, match="not left coprime"):
            check(ss, F @ M, F @ N)


def test_singular_leading_row_coefficients_rejected():
    """[[s + 1, 0, 0], [s, 1, 0], [0, 0, 1]] (M, N) on the coupled RC 3-port
    (all nu_i = 1) gives rows 0 and 1 the same leading coefficients."""
    ss = coupled_rc(3)
    F = PolyMat([[S + 1, 0, 0], [S, 1, 0], [0, 0, 1]])
    M, N = reference_fraction(ss)
    with pytest.raises(AssertionError, match="not left coprime"):
        reference_check(ss, F @ M, F @ N)
    with pytest.raises(AssertionError, match="not row reduced"):
        certify(ss, F @ M, F @ N)


# -- no Euclidean sweep --------------------------------------------------------


class SweepCalled(Exception):
    pass


def test_realize_behavior_runs_no_euclidean_sweep(monkeypatch):
    """The one Euclidean sweep, `_primitive_sweep`, refuses; it serves
    every echelon route, so `row_echelon`, `syzygy_basis` and the old
    check's `minor_gcd` all reach it."""
    def refuse(*args, **kwargs):
        raise SweepCalled
    monkeypatch.setattr(polymatrix, "_primitive_sweep", refuse)
    M = PolyMat([[S, S + 1], [S * S, S * S + S]])
    for route in (polymatrix.row_echelon, polymatrix.syzygy_basis):
        with pytest.raises(SweepCalled):
            route(M)
    with pytest.raises(SweepCalled):  # the patch reaches the old check
        left_coprime(PolyMat([[S]]), PolyMat([[S + 1]]))
    for ss in (siso_sweep_system(random.Random(104729), 8), coupled_rc(3)):
        P, Q = realize_behavior(ss)
        assert Q.rows == ss.n
