"""Old equals new for the product, determinant and characteristic-polynomial
kernels.

`PolyMat.__matmul__`, `PolyMat.det` (Bareiss) and `polymatrix.charpoly`
(Berkowitz) run on integer coefficient lists over one scaling; their frozen
`Poly`-level copies are in `int_kernels_ref`.  Every result is exact and
canonical, so each must equal its copy numerator for numerator and
denominator for denominator: on seeded rational matrices of size 0 to 7
with entry degrees 0 to 4 and denominators up to 12, with zero rows and
columns, singular and rank-deficient ones among them, and on the coupled RC
densities PQ* + QP*.
"""

import random
from fractions import Fraction

import pytest
from int_kernels_ref import charpoly_ref, det_bareiss_ref, matmul_ref
from test_certificate import coupled_rc

from passlab.poly import Poly
from passlab.polymatrix import PolyMat, charpoly
from passlab.prpair import _pr_density
from passlab.statespace import realize_behavior


def rat_poly(rng: random.Random) -> Poly:
    """Degree 0..4 (or zero), coefficients p/q with |p| <= 9, q <= 12."""
    if rng.random() < 0.15:
        return Poly.zero()
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                 for _ in range(rng.randint(1, 5))])


def seeded_matrix(rng: random.Random, n: int, kind: int) -> PolyMat:
    """kind 0: generic; 1: a zero row; 2: a zero column; 3: singular, one
    row a polynomial multiple of another; 4: rank at most n - 2, as a
    product of n x r and r x n factors."""
    if kind == 4 and n >= 2:
        r = rng.randint(0, n - 2)
        L = PolyMat([[rat_poly(rng) for _ in range(r)] for _ in range(n)], cols=r)
        R = PolyMat([[rat_poly(rng) for _ in range(n)] for _ in range(r)], cols=n)
        return L @ R
    rows = [[rat_poly(rng) for _ in range(n)] for _ in range(n)]
    if n and kind == 1:
        rows[rng.randrange(n)] = [Poly.zero()] * n
    if n and kind == 2:
        j = rng.randrange(n)
        rows = [[Poly.zero() if k == j else e for k, e in enumerate(row)]
                for row in rows]
    if n >= 2 and kind == 3:
        i, j = rng.sample(range(n), 2)
        f = rat_poly(rng)
        rows[i] = [f * e for e in rows[j]]
    return PolyMat(rows, cols=n)


def assert_same(got: Poly, want: Poly):
    assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("n", range(8))
def test_det_and_charpoly_match_the_poly_kernels(n):
    rng = random.Random(9001 + n)
    for draw in range(30):
        M = seeded_matrix(rng, n, draw % 5)
        assert_same(M.det(), det_bareiss_ref(M))
        got, want = charpoly(M), charpoly_ref(M)
        assert len(got) == len(want) == n + 1
        for a, b in zip(got, want):
            assert_same(a, b)
        if draw % 5 in (1, 2, 3) and n >= 2:
            assert M.det().is_zero


def test_zero_and_scalar_matrices():
    for n in range(8):
        Z = PolyMat.zeros(n, n)
        assert Z.det() == det_bareiss_ref(Z)
        assert charpoly(Z) == charpoly_ref(Z)
        C = PolyMat.identity(n) * Fraction(-5, 12)
        assert C.det() == det_bareiss_ref(C) == Poly.constant(Fraction(-5, 12)) ** n
        assert charpoly(C) == charpoly_ref(C)


@pytest.mark.parametrize("n", range(2, 11))
def test_coupled_rc_densities(n):
    """PQ* + QP* of the realized coupled RC n-port, whose charpoly the
    axis test reads, and det(P + Q), which condition 1 reads."""
    P, Q = realize_behavior(coupled_rc(n))
    Phi = _pr_density(P, Q)
    for a, b in zip(charpoly(Phi), charpoly_ref(Phi)):
        assert_same(a, b)
    assert_same((P + Q).det(), det_bareiss_ref(P + Q))
    if n <= 6:
        assert_same(Phi.det(), det_bareiss_ref(Phi))


def assert_same_matrix(got: PolyMat, want: PolyMat):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for a, b in zip(got.entries, want.entries):
        for x, y in zip(a, b):
            assert_same(x, y)


@pytest.mark.parametrize("n", range(6))
def test_products_match_the_poly_kernel(n):
    """Square and rectangular shapes, the empty ones included, with the
    zero rows, zero columns and low-rank factors of `seeded_matrix`."""
    rng = random.Random(7001 + n)
    for draw in range(20):
        A = seeded_matrix(rng, n, draw % 5)
        B = seeded_matrix(rng, n, (draw + 2) % 5)
        assert_same_matrix(A @ B, matmul_ref(A, B))
        k = rng.randint(0, 3)
        W = PolyMat([[rat_poly(rng) for _ in range(k)] for _ in range(n)], cols=k)
        assert_same_matrix(A @ W, matmul_ref(A, W))
        assert_same_matrix(W.T @ A, matmul_ref(W.T, A))
        assert_same_matrix(W @ W.T, matmul_ref(W, W.T))
        assert_same_matrix(W.T @ W, matmul_ref(W.T, W))
