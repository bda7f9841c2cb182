"""Old-equals-new checks of the certificate that `realize_behavior` gives
its pair, and of the integer rows it builds the pair from.

The first reference below is the earlier check, kept here to test its
replacement against: it rebuilt M C - N (sI - A) as a polynomial matrix
product and decided left coprimeness of (M, N) by the gcd of the maximal
minors of [M N], a Euclidean sweep.  The new certificate reads only
constant matrices: the coefficients of M C = N (sI - A), the leading
row-coefficient matrix of M, and the observable dimension.

A second reference is the float check that once ran after that
certificate: Q^-1 P against the transfer function at random points.  The
certificate implies it, and every pair it accepts here passes it too.

A third is the coefficient builder that `realize_behavior` ran on
`Fraction` rows: the Krylov rows c_i A^k as Fractions, one `_frref` of
them, and one `_fmatmul` per output for the rows of N.  The pair and the
observer staircase must come out the same from the integer rows.
"""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import (controllable, corpus, jordan_system, left_coprime,
                      observable, si_matrix, siso_sweep_system)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_certificate import coupled_rc
from test_statespace import staircase_system

from passlab import polymatrix, statespace
from passlab.poly import Poly
from passlab.polymatrix import PolyMat, _fmatmul, _frank, _frref, _scaled
from passlab.statespace import (StateSpace, _certified_pair,
                                observability_matrix, realize_behavior,
                                shifted_solve, staircase)

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


def reference_krylov(ss: StateSpace, count: int) -> list[list[Fraction]]:
    """[C; C A; ...; C A^(count-1)] (at least C) as Fraction rows."""
    block = [list(row) for row in ss.C_exact]
    rows = list(block)
    for _ in range(count - 1):
        block = _fmatmul(block, ss.A_exact)
        rows += block
    return rows


def reference_coefficient_rows(ss: StateSpace) -> tuple[list, int]:
    """(coeffs, rank): coeffs[i][k] is row i of [M_k N_k] for k = 0..nu_i
    as Fractions, and rank that of the Krylov rows, built as
    `realize_behavior` built them on Fraction rows."""
    n, d = ss.n, ss.d
    krylov = reference_krylov(ss, d + 1)  # row k n + i is c_i A^k
    rref, pivots = _frref([list(col) for col in zip(*krylov)])  # d x n(d+1)
    kept = set(pivots)
    coeffs = []
    for i in range(n):
        nu = next(k for k in range(d + 1) if k * n + i not in kept)
        dep = nu * n + i
        row = [Fraction(0)] * ((nu + 1) * n)  # row i of [M_0 M_1 ... M_nu]
        row[dep] = Fraction(1)
        for r, p in enumerate(pivots):
            if p < dep:
                row[p] = -rref[r][dep]
        # N_p = [M_(p+1) ... M_nu 0] krylov, so N_nu = 0
        n_blocks = _fmatmul([row[(p + 1) * n:] + [Fraction(0)] * ((p + 1) * n)
                             for p in range(nu + 1)], krylov[:len(row)])
        coeffs.append([row[k * n:(k + 1) * n] + nk for k, nk in enumerate(n_blocks)])
    return coeffs, len(pivots)


def reference_realize(ss: StateSpace) -> tuple[PolyMat, PolyMat]:
    """The pair from the Fraction coefficient rows, through the same
    certificate."""
    coeffs, rank = reference_coefficient_rows(ss)
    return _certified_pair(ss, [_scaled(rows) for rows in coeffs], rank)


def reference_staircase(ss: StateSpace) -> statespace.StaircaseForm:
    """`staircase` on the Fraction observability matrix."""
    with mock.patch.object(statespace, "observability_matrix",
                           lambda ss: reference_krylov(ss, ss.d)):
        return staircase(ss)


def reference_fraction(ss: StateSpace) -> tuple[PolyMat, PolyMat]:
    """(M, N) from the observability indices, as polynomial matrices read
    off the Fraction coefficient rows."""
    n, d = ss.n, ss.d
    coeffs, _ = reference_coefficient_rows(ss)
    M = PolyMat([[Poly([r[l] for r in rows]) for l in range(n)]
                 for rows in coeffs], cols=n)
    N = PolyMat([[Poly([r[n + c] for r in rows]) for c in range(d)]
                 for rows in coeffs], cols=d)
    return M, N


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
    return _certified_pair(ss, [_scaled(rows) for rows in coefficient_rows(M, N)],
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


# -- integer rows equal Fraction rows ------------------------------------------


def integer_row_systems():
    yield from corpus()
    yield from hidden_mode_systems()
    for seed in (1, 2):
        for d in range(1, 21):
            yield f"siso-{d}-seed{seed}", siso_sweep_system(random.Random(seed), d)
    for n in range(2, 7):
        yield f"coupled-rc-{n}", coupled_rc(n)


def assert_same_staircase(ss: StateSpace) -> None:
    got, want = staircase(ss), reference_staircase(ss)
    for name in ("T", "A11", "C1", "B1"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name


@pytest.mark.parametrize("ss", [pytest.param(ss, id=name)
                                for name, ss in integer_row_systems()])
def test_integer_rows_give_the_fraction_rows_pair_and_staircase(ss):
    assert realize_behavior(ss) == reference_realize(ss)
    assert_same_staircase(ss)


# rational entries with mixed denominators, binary floats (read exactly),
# and zeros, so that unobservable and uncontrollable modes turn up
state_space_entries = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.floats(min_value=-8, max_value=8, allow_nan=False).map(
        lambda x: Fraction(x) if x else 0),
)


@given(st.integers(0, 5), st.integers(1, 3), st.data())
@settings(max_examples=120)
def test_integer_rows_equal_fraction_rows_on_random_systems(d, n, data):
    grid = lambda r, c: [[data.draw(state_space_entries) for _ in range(c)]
                         for _ in range(r)]
    ss = StateSpace.from_arrays(grid(d, d), grid(d, n), grid(n, d), grid(n, n))
    assert realize_behavior(ss) == reference_realize(ss)
    assert_same_staircase(ss)


def test_realize_behavior_builds_no_fraction_rows(monkeypatch):
    """The Fraction row helpers refuse; `realize_behavior` reaches none of
    them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction row helper was called")
    for name in ("_frref", "_fmatmul", "_frank", "_finverse"):
        if hasattr(statespace, name):
            monkeypatch.setattr(statespace, name, refuse)
        monkeypatch.setattr(polymatrix, name, refuse)
    for ss in (siso_sweep_system(random.Random(104729), 8), coupled_rc(3),
               jordan_system([[1, 3, 3]], [[0]])):
        P, Q = realize_behavior(ss)
        assert Q.rows == ss.n


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
