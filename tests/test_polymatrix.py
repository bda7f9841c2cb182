import itertools
import random
from fractions import Fraction

import pytest
from conftest import left_coprime, rand_poly, rand_polymat
from hypothesis import given, settings
from hypothesis import strategies as st
from round_trip_ref import unimodularly_equivalent

from passlab.poly import NEG_INF, Poly, poly_gcd
from passlab.polymatrix import (REGION_ALL_C, REGION_CLOSED_RHP, EchelonResult,
                                PolyMat, _fkernel, _fmatmul, _frref,
                                column_echelon, delta, divisible_on_right,
                                fullrank_everywhere, minor_gcd,
                                normalrank, row_echelon, row_reduced,
                                syzygy_basis, unimodular_inverse)

S = Poly.x()


def delta_by_minors(M: PolyMat) -> int:
    """Reference for delta: the max degree over all C(cols, rows) maximal
    minors, enumerated."""
    return int(max(M.select_columns(cols).det().degree
                   for cols in itertools.combinations(range(M.cols), M.rows)))


def det_cofactor(M: PolyMat) -> Poly:
    """Reference for det: cofactor expansion along the first row."""
    n = M.rows
    if n == 1:
        return M.entries[0][0]
    acc = Poly.zero()
    cols = list(range(n))
    for j in range(n):
        a = M.entries[0][j]
        if a.is_zero:
            continue
        term = a * det_cofactor(M.submatrix(range(1, n), cols[:j] + cols[j + 1:]))
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def adjugate_cofactor(M: PolyMat) -> PolyMat:
    """Reference for adjugate: the transposed cofactor matrix, n^2 minor
    determinants of order n - 1."""
    n = M.rows
    if n == 1:
        return PolyMat.identity(1)
    idx = list(range(n))
    out = [[Poly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = M.submatrix([r for r in idx if r != i],
                              [c for c in idx if c != j]).det()
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return PolyMat(out)


def leading_row_matrix(M: PolyMat) -> PolyMat:
    """Coefficients of each row at its own row degree."""
    degs = [max(e.degree for e in row) for row in M.entries]
    return PolyMat.constant([[e.coeff(int(k)) for e in row]
                             for row, k in zip(M.entries, degs)])


class TestDet:
    def test_identity(self):
        assert PolyMat.identity(2).det() == Poly.one()

    def test_diagonal_product(self):
        M = PolyMat([[S + 1, Poly.zero()], [Poly.zero(), -(S + 2)]])
        assert M.det() == -((S + 1) * (S + 2))

    def test_rotation_block(self):
        M = PolyMat([[S, Poly.one()], [Poly.constant(-1), S]])
        assert M.det() == S * S + 1

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(3, 5)
            M = rand_polymat(rng, n, n, 2, 3)
            assert M.det() == det_cofactor(M)

    def test_adjugate_identity(self):
        rng = random.Random(6)
        for _ in range(10):
            M = rand_polymat(rng, 3, 3, 2, 3)
            d = M.det()
            prod = M @ M.adjugate()
            assert prod == PolyMat.identity(3) * d

    def test_adjugate_matches_cofactor_on_120_random(self):
        """Cayley-Hamilton against the cofactor reference, n = 1..6, with
        every fourth matrix made singular (a row repeated, scaled by a
        polynomial) and every tenth the zero matrix."""
        rng = random.Random(104729)
        for k in range(120):
            n = 1 + k % 6
            if k % 10 == 9:
                M = PolyMat.zeros(n, n)
            else:
                M = rand_polymat(rng, n, n, 2, 3)
                if k % 4 == 3 and n > 1:
                    rows, f = [list(r) for r in M.entries], rand_poly(rng, 1)
                    rows[-1] = [e * f for e in rows[0]]
                    M = PolyMat(rows)
                    assert M.det().is_zero
            assert M.adjugate() == adjugate_cofactor(M), (k, M)

    def test_adjugate_of_empty_matrix_is_empty(self):
        """det of the 0 x 0 matrix is 1, so A adj(A) = I_0: the empty one."""
        E = PolyMat([], cols=0)
        assert E.adjugate() == E
        assert E @ E.adjugate() == PolyMat.identity(0) * E.det()

    def test_adjugate_of_non_square_raises(self):
        with pytest.raises(ValueError, match="non-square"):
            PolyMat([[S, S + 1]]).adjugate()


class TestDelta:
    def test_scalar_wide(self):
        assert delta(PolyMat([[S + 1, -S]])) == 1

    def test_transformer_constant(self):
        P = PolyMat.constant([[0, 0], [2, 1]])
        Q = PolyMat.constant([[1, -2], [0, 0]])
        assert delta(P.hstack(-Q)) == 0

    def test_decoupled_degree_two(self):
        P = PolyMat([[Poly.zero(), S + 1], [Poly.zero(), Poly.zero()]])
        Q = PolyMat([[Poly.zero(), Poly.zero()], [Poly.zero(), S + 2]])
        assert delta(P.hstack(-Q)) == 2

    def test_rank_deficient_raises(self):
        M = PolyMat([[S, S], [S, S]])
        with pytest.raises(ValueError, match="rank deficient"):
            delta(M)

    def test_matches_minor_enumeration(self):
        """M = U R with U unimodular (unit upper triangular): the leading
        row-coefficient matrix of M is rank deficient, so row reduction has
        to iterate before the row degrees can be summed."""
        rng = random.Random(104729)
        shapes = [(1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 5)]
        for rows, cols in shapes * 4:
            while True:
                R = rand_polymat(rng, rows, cols, 2, 3)
                if normalrank(R) < rows:
                    continue
                U = PolyMat([[rand_poly(rng, 2, 3) if j > i else Poly.of(int(i == j))
                              for j in range(rows)] for i in range(rows)])
                M = U @ R
                if rows == 1 or normalrank(leading_row_matrix(M)) < rows:
                    break
            assert delta(M) == delta_by_minors(M)

    def test_no_rows(self):
        M = PolyMat([], cols=3)
        assert delta(M) == delta_by_minors(M) == 0

    def test_rank_deficient_wide_raises(self):
        rng = random.Random(5)
        r = rand_polymat(rng, 1, 4, 2)
        M = r.vstack(r * Fraction(3)).vstack(rand_polymat(rng, 1, 4, 2))
        with pytest.raises(ValueError, match="rank deficient"):
            delta(M)

    def test_invariant_under_orthogonal_selection(self):
        """Binet-Cauchy: right multiplication by S1 @ S2 with S1 S1' = I and
        2 S2 S2' = I preserves the max minor degree."""
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 2)
            while True:
                P = rand_polymat(rng, n, n, 2, 3)
                Q = rand_polymat(rng, n, n, 2, 3)
                if normalrank(P.hstack(-Q)) == n:
                    break
            PQ = P.hstack(-Q)
            # a random port split, as in the partition construction
            mask = [rng.randint(0, 1) for _ in range(n)]
            from_q = [j for j in range(n) if mask[j] == 0]
            from_p = [j for j in range(n) if mask[j] == 1]
            sel = [[Poly.one() if j == k else Poly.zero() for k in range(n)]
                   for j in from_q]
            selp = [[Poly.one() if j == k else Poly.zero() for k in range(n)]
                    for j in from_p]
            T1 = PolyMat(sel, cols=n)
            T2 = PolyMat(selp, cols=n)
            k, kp = len(from_q), len(from_p)
            S1 = PolyMat.block([
                [T1.T, PolyMat.zeros(n, kp), PolyMat.zeros(n, k), T2.T],
                [PolyMat.zeros(n, k), T2.T, T1.T, PolyMat.zeros(n, kp)]])
            ey = PolyMat.identity(n)
            S2d = PolyMat.block([[ey, ey], [-ey, ey]])  # 2*S2
            # Delta([P -Q] S1) == Delta([P -Q]) and likewise for (1/2) S2d route
            assert delta(PQ @ S1) == delta(PQ)
            half = Fraction(1, 2)
            Phat = (P - Q) * half * 2  # P-Q
            Qhat = (P + Q)
            PQhat = (P - Q).hstack(-(P + Q))
            if normalrank(PQhat) == n:
                assert delta((PQhat * half) @ S2d @ S1) == delta(PQhat * half)


class TestEchelon:
    def test_gcd_compression(self):
        R = PolyMat([[S**2 + 2 * S + 1, S**2 + S]])
        res = column_echelon(R)
        assert res.rank == 1
        assert res.E[0, 0].monic() == S + 1

    def test_identity_fixed_point(self):
        res = row_echelon(PolyMat.identity(3))
        assert res.E == PolyMat.identity(3)
        assert res.U == PolyMat.identity(3)

    def test_column_syzygy(self):
        R = PolyMat([[S], [S * S]])
        V = syzygy_basis(R)
        assert V.rows == 1 and (V @ R).is_zero
        # the last row of U kills the column: s * s - 1 * s^2 = 0 up to sign
        assert not V[0, 0].is_zero and not V[0, 1].is_zero

    def test_square_nonsingular_has_empty_syzygy(self):
        R = PolyMat([[S + 1, Poly.zero()], [Poly.one(), S]])
        assert syzygy_basis(R) is None

    def test_soundness_200_random(self):
        """Reconstruct U @ M == stack(E, 0) and det(U) constant, exactly."""
        rng = random.Random(17)
        for _ in range(200):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            M = rand_polymat(rng, r, c, rng.randint(0, 4), 4)
            res = row_echelon(M)
            detU = res.U.det()
            assert detU.degree == 0 and not detU.is_zero
            rec = res.U @ M
            for i in range(r):
                for j in range(c):
                    expected = res.E[i, j] if i < res.rank else Poly.zero()
                    assert rec[i, j] == expected
            assert res.rank == normalrank(M)

    def test_syzygy_completeness(self):
        """Any polynomial combination of the basis rows is recovered by
        right divisibility against the basis."""
        rng = random.Random(23)
        done = 0
        while done < 30:
            r = rng.randint(2, 4)
            c = rng.randint(1, r - 1)
            M = rand_polymat(rng, r, c, 2, 3)
            V = syzygy_basis(M)
            if V is None:
                continue
            done += 1
            # c^T = p^T V for random polynomial p; recover p by divisibility
            p = PolyMat([[rand_poly(rng, 2, 3) for _ in range(V.rows)]],
                        cols=V.rows)
            comb = p @ V
            assert (comb @ M).is_zero
            # comb must lie in the row module generated by V: solve H V = comb.
            # V has full row rank everywhere, so its column echelon core is
            # unimodular-extendable; use the same divisibility reduction.
            res = column_echelon(V)
            G = comb @ res.U
            head = G.select_columns(range(res.rank))
            tail = G.select_columns(range(res.rank, G.cols))
            assert tail.is_zero or tail.cols == 0
            ok, H = divisible_on_right(head, res.E)
            assert ok and H @ V == comb


def row_echelon_interleaved(M: PolyMat) -> EchelonResult:
    """Reference: the Hermite row echelon form as it was computed before the
    split into a forward sweep and a back-reduction.  Each pivot is made
    monic and reduced above as soon as its column is swept."""
    l, c = M.rows, M.cols
    a = [list(row) for row in M.entries]
    u = [[Poly.one() if i == j else Poly.zero() for j in range(l)] for i in range(l)]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def addmul(i, j, q: Poly):
        if q.is_zero:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def scale(i, s: Fraction):
        a[i] = [x * s for x in a[i]]
        u[i] = [x * s for x in u[i]]

    r = 0
    for col in range(c):
        if r == l:
            break
        while True:
            piv = None
            for i in range(r, l):
                if not a[i][col].is_zero:
                    if piv is None or a[i][col].degree < a[piv][col].degree:
                        piv = i
            if piv is None:
                break
            if piv != r:
                swap(r, piv)
            others = [i for i in range(r + 1, l) if not a[i][col].is_zero]
            if not others:
                break
            for i in others:
                addmul(i, r, a[i][col] // a[r][col])
        if not a[r][col].is_zero:
            scale(r, 1 / a[r][col].leading)
            for i in range(r):
                addmul(i, r, a[i][col] // a[r][col])
            r += 1

    E = PolyMat([a[i] for i in range(r)]) if r > 0 else None
    return EchelonResult(U=PolyMat(u), E=E, rank=r)


def minor_gcd_by_hermite(M: PolyMat) -> Poly:
    """Reference: the former minor_gcd route, a normalrank pass, then the
    monic det of the interleaved Hermite column echelon form.  That route
    raised on rank deficiency; here it gives the zero gcd instead."""
    if normalrank(M) < M.rows:
        return Poly.zero()
    E = row_echelon_interleaved(M.transpose()).E.transpose()
    return E.det().monic()


def minor_gcd_by_minors(M: PolyMat) -> Poly:
    """Reference: gcd of every maximal minor, enumerated; zero when there
    are none (tall M) or all vanish."""
    g = Poly.zero()
    for cols in itertools.combinations(range(M.cols), M.rows):
        g = poly_gcd(g, M.select_columns(cols).det())
    return g.monic()


def plant_dependent_row(rng: random.Random, M: PolyMat) -> PolyMat:
    """M with its last row replaced by a polynomial combination of two
    others, so its normalrank is below its row count."""
    rows = [list(row) for row in M.entries]
    p, q = rand_poly(rng, 1, 3), rand_poly(rng, 1, 3)
    rows[-1] = [p * x + q * y for x, y in zip(rows[0], rows[1])]
    return PolyMat(rows, cols=M.cols)


class TestEchelonSplit:
    """The forward sweep plus pivot-by-pivot back-reduction against the
    interleaved reference, and the transform-free minor_gcd against both
    former routes."""

    def test_row_echelon_and_syzygy_match_interleaved(self):
        def check(M: PolyMat) -> bool:
            ref = row_echelon_interleaved(M)
            res = row_echelon(M)
            assert (res.U, res.E, res.rank) == (ref.U, ref.E, ref.rank)
            r = M.rows
            want = (None if ref.rank == r
                    else ref.U.submatrix(range(ref.rank, r), range(r)))
            assert syzygy_basis(M) == want
            return ref.rank < r

        rng = random.Random(104723)
        deficient = 0
        for k in range(180):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            M = rand_polymat(rng, r, c, rng.randint(0, 3), 4)
            if r >= 3 and k % 3 == 0:
                M = plant_dependent_row(rng, M)
            deficient += check(M)
        assert deficient >= 30

        # Rows whose integer form carries content, and rows whose leading
        # coefficients are negative: the sweep's row multipliers then take
        # large and negative values, and dividing them out must still give
        # the reference's rows exactly.
        rng = random.Random(104717)
        dens = [1, 2, 3, 7, 2**81 + 1]
        deficient = 0
        for k in range(120):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            rows = [list(row) for row in
                    rand_polymat(rng, r, c, rng.randint(0, 3), 4).entries]
            if k % 2 == 0:  # numerators of at least 2^80, one per column
                for j in range(c):
                    f = rng.randint(2**80, 2**85)
                    for row in rows:
                        row[j] = row[j] * Fraction(f, rng.choice(dens))
            else:
                rows = [[-x if x.leading > 0 else x for x in row]
                        for row in rows]
            M = PolyMat(rows, cols=c)
            if r >= 3 and k % 3 == 0:
                M = plant_dependent_row(rng, M)
            deficient += check(M)
        assert deficient >= 15

    @given(st.integers(1, 4), st.integers(0, 8), st.data())
    @settings(max_examples=100)
    def test_minor_gcd_matches_references(self, rows, cols, data):
        polys = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
        M = [[data.draw(polys) for _ in range(cols)] for _ in range(rows)]
        if data.draw(st.booleans()):  # a common factor of every maximal minor
            f = S + data.draw(st.integers(-3, 3))
            M[0] = [f * x for x in M[0]]
        if rows >= 3 and data.draw(st.booleans()):  # a dependent last row
            p, q = data.draw(polys), data.draw(polys)
            M[-1] = [p * x + q * y for x, y in zip(M[0], M[1])]
        if data.draw(st.booleans()):
            # numerators of at least 2^80, one big factor per column, over
            # mixed denominators: the integer sweep's rows then carry
            # content, which each step divides out
            dens = st.sampled_from([1, 2, 3, 7, 2**81 + 1])
            for j in range(cols):
                c = data.draw(st.integers(2**80, 2**85))
                for row in M:
                    row[j] = row[j] * Fraction(c, data.draw(dens))
        M = PolyMat(M, cols=cols)
        g = minor_gcd(M)
        assert g == minor_gcd_by_hermite(M) == minor_gcd_by_minors(M)
        assert g.is_zero == (normalrank(M) < rows)

    @pytest.mark.parametrize("M", [
        PolyMat([[S, S + 1], [2 * S, 2 * S + 2]]),
        PolyMat([[S], [S + 1]]),
        PolyMat([[S, Poly.one()], [S + 1, S], [S * S, Poly.zero()]]),
        PolyMat([[Poly.zero(), Poly.zero()]]),
    ])
    def test_rank_deficient_and_tall_give_zero(self, M):
        assert minor_gcd(M).is_zero

    def test_rank_deficient_pair_not_coprime(self):
        A = PolyMat([[S, S + 1], [2 * S, 2 * S + 2]])
        B = PolyMat([[S * S], [2 * S * S]])
        assert not left_coprime(A, B)
        for region in (REGION_ALL_C, REGION_CLOSED_RHP):
            with pytest.raises(ValueError, match="rank deficient"):
                fullrank_everywhere(A.hstack(B), region)


def row_reduced_by_operators(M: PolyMat) -> EchelonResult:
    """Reference: row_reduced as it was before its in-place row update.
    Each step builds the l x l operator that replaces row k by
    sum_i c_i s^(d_k - d_i) row_i, and multiplies it into the matrix and
    into the transform."""
    l, c = M.rows, M.cols
    a = [list(row) for row in M.entries]
    U = PolyMat.identity(l)
    while True:
        degs = [max((e.degree for e in row), default=NEG_INF) for row in a]
        if NEG_INF in degs:
            raise ValueError("rank deficient: zero row during row reduction")
        lead = [[e.coeff(d) for e in row] for row, d in zip(a, degs)]
        basis = _fkernel(list(zip(*lead)))
        if not (basis and basis[0]):
            break
        kern = [row[0] for row in basis]
        support = [i for i, ci in enumerate(kern) if ci != 0]
        k = max(support, key=lambda i: degs[i])
        op = [[Poly.zero()] * l for _ in range(l)]
        for i in range(l):
            op[i][i] = Poly.one()
        for i in support:
            shift = Poly([0] * int(degs[k] - degs[i]) + [1])
            op[k][i] = kern[i] * shift if i != k else Poly.constant(kern[k])
        opm = PolyMat(op)
        a = [list(row) for row in (opm @ PolyMat(a)).entries]
        U = opm @ U
    return EchelonResult(U=U, E=PolyMat(a, cols=c), rank=l)


class TestRowReduced:
    def test_row_update_matches_operator_products(self):
        """Old equals new on 320 seeded matrices: two thirds premultiplied
        by a random unimodular matrix, so that reduction has steps to take,
        and some with a dependent row or one row more than columns, where
        both raise the same ValueError."""
        rng = random.Random(104711)
        stepped = deficient = 0
        for k in range(320):
            r = rng.randint(1, 4)
            c = rng.randint(max(1, r - 1), 5)
            M = rand_polymat(rng, r, c, rng.randint(0, 3), 4)
            if k % 3 != 2:
                M = rand_unimodular(rng, r) @ M
            if r >= 3 and k % 5 == 0:
                M = plant_dependent_row(rng, M)
            try:
                ref = row_reduced_by_operators(M)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    row_reduced(M)
                assert str(got.value) == str(e)
                deficient += 1
                continue
            res = row_reduced(M)
            assert (res.U, res.E, res.rank) == (ref.U, ref.E, ref.rank)
            stepped += res.U != PolyMat.identity(r)
        assert stepped >= 90 and deficient >= 60
        empty = PolyMat([], cols=3)
        ref, res = row_reduced_by_operators(empty), row_reduced(empty)
        assert (res.U, res.E, res.rank) == (ref.U, ref.E, ref.rank)
        assert (res.U.cols, res.E.cols) == (0, 3)

    def test_leading_matrix_nonsingular(self):
        M = PolyMat([[S**2 + 1, S], [S, Poly.one()]])
        res = row_reduced(M)
        E = res.E
        degs = [max(int(E[i, j].degree) for j in range(2)
                    if not E[i, j].is_zero) for i in range(2)]
        lead = [[float(E[i, j].coeff(degs[i])) for j in range(2)]
                for i in range(2)]
        import numpy as np
        assert abs(np.linalg.det(np.array(lead))) > 1e-12
        assert res.U @ M == E
        assert res.U.det().degree == 0


class TestUnimodularInverse:
    def test_matches_adjugate_over_det(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 4)
            U = rand_unimodular(rng, n)
            detU = U.det()
            assert detU.degree == 0
            inv = unimodular_inverse(U)
            assert inv == U.adjugate() * (1 / detU.coeffs[0])
            assert inv @ U == PolyMat.identity(n)

    @pytest.mark.parametrize("M", [
        PolyMat([[S + 1]]),
        PolyMat([[S, Poly.one()], [Poly.zero(), S]]),
        PolyMat([[Poly.one(), S], [Poly.one(), S]]),
        PolyMat([[Poly.one(), S]]),
    ])
    def test_rejects_non_unimodular(self, M):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(M)


class TestDivisibility:
    def test_polynomial_division(self):
        ok, H = divisible_on_right(PolyMat([[S**2 + S]]), PolyMat([[S]]))
        assert ok and H == PolyMat([[S + 1]])

    def test_degree_obstruction(self):
        ok, H = divisible_on_right(PolyMat([[Poly.one()]]), PolyMat([[S]]))
        assert not ok and H is None

    def test_self_division(self):
        rng = random.Random(3)
        from conftest import rand_nonsingular
        F = rand_nonsingular(rng, 2, 2)
        ok, H = divisible_on_right(F, F)
        assert ok and H == PolyMat.identity(2)


class TestCoprimeAndRank:
    def test_scalar_coprime(self):
        assert left_coprime(PolyMat([[S]]), PolyMat([[Poly.one()]]))
        assert left_coprime(PolyMat([[S + 2]]), PolyMat([[S + 1]]))

    def test_shared_factor_not_coprime(self):
        f = S * S + 1
        assert not left_coprime(PolyMat([[f * (S + 1)]]), PolyMat([[f * S]]))

    def test_fullrank_all_c(self):
        res = fullrank_everywhere(PolyMat([[S + 1, -S]]), REGION_ALL_C)
        assert res.ok

    def test_fullrank_crhp_axis_witness(self):
        f = S * S + 1
        M = PolyMat([[f * (S + 1), -(f * S)]])
        res = fullrank_everywhere(M, REGION_CLOSED_RHP)
        assert not res.ok
        assert any(abs(z - 1j) < 1e-9 for z in res.witnesses)
        assert any(abs(z + 1j) < 1e-9 for z in res.witnesses)

    def test_fullrank_common_lhp_root_all_c(self):
        F = S + 1
        M = PolyMat([[F, -(F * S)]])
        res = fullrank_everywhere(M, REGION_ALL_C)
        assert not res.ok
        assert any(abs(z + 1.0) < 1e-9 for z in res.witnesses)

    def test_minor_gcd_equals_direct_gcd(self):
        """Echelon-based determinantal divisor == gcd over all maximal minors."""
        rng = random.Random(31)
        for _ in range(25):
            r = rng.randint(1, 2)
            c = rng.randint(r, r + 2)
            M = rand_polymat(rng, r, c, 2, 3)
            if normalrank(M) < r:
                continue
            g = minor_gcd(M)
            direct = Poly.zero()
            for cols in itertools.combinations(range(c), r):
                direct = poly_gcd(direct, M.select_columns(cols).det())
            assert g == direct.monic()


def normalrank_undivided(M: PolyMat) -> int:
    """Reference: the former normalrank, fraction-free elimination with no
    division, which skipped rows with a zero entry in the pivot column."""
    a = [list(row) for row in M.entries]
    r, c = M.rows, M.cols
    row = 0
    for col in range(c):
        piv = None
        for i in range(row, r):
            if not a[i][col].is_zero:
                if piv is None or a[i][col].degree < a[piv][col].degree:
                    piv = i
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        for i in range(row + 1, r):
            e = a[i][col]
            if not e.is_zero:
                a[i] = [p * a[i][j] - e * a[row][j] for j in range(c)]
        row += 1
        if row == r:
            break
    return row


def equivalent_by_division(R1: PolyMat, R2: PolyMat) -> bool:
    """Reference: the former kernel-equality route, right divisibility each
    way through a column echelon form and an adjugate."""
    if (R1.rows, R1.cols) != (R2.rows, R2.cols):
        return False

    def divides(Ra, Rb) -> bool:  # exists H with Ra == H @ Rb
        res = column_echelon(Rb)
        G = Ra @ res.U
        if not G.select_columns(range(res.rank, G.cols)).is_zero:
            return False
        return divisible_on_right(G.select_columns(range(res.rank)), res.E)[0]

    return divides(R1, R2) and divides(R2, R1)


def rand_unimodular(rng: random.Random, n: int) -> PolyMat:
    """A product of elementary row operations: swaps, nonzero constant
    scalings and additions of a polynomial multiple of another row."""
    rows = [list(row) for row in PolyMat.identity(n).entries]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            k = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            rows[i] = [x * k for x in rows[i]]
        elif n > 1:
            q = rand_poly(rng, 2, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return PolyMat(rows, cols=n)


def normalrank_bareiss(M: PolyMat) -> int:
    """Reference: the former normalrank, Bareiss fraction-free forward
    elimination over Q[s] (Bareiss, Math. Comp. 22, 1968).  Every row below
    the pivot is updated, zero entry or not, and divided exactly by the
    previous pivot, so each entry stays a minor of M."""
    a = [list(row) for row in M.entries]
    r, c = M.rows, M.cols
    row = 0
    prev = Poly.one()
    for col in range(c):
        if row == r:
            break
        piv = None
        for i in range(row, r):
            if not a[i][col].is_zero:
                if piv is None or a[i][col].degree < a[piv][col].degree:
                    piv = i
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p, prow = a[row][col], a[row]
        for i in range(row + 1, r):
            e = a[i][col]
            a[i][col + 1:] = [(p * x - e * y) // prev  # exact
                              for x, y in zip(a[i][col + 1:], prow[col + 1:])]
            a[i][col] = Poly.zero()
        prev = p
        row += 1
    return row


def exact_normalrank(M: PolyMat, monkeypatch) -> int:
    """normalrank_bareiss(M) with every polynomial division asserted
    exact."""
    def exact_floordiv(a, b):
        q, rem = divmod(a, Poly.of(b))
        assert rem.is_zero, "inexact Bareiss division"
        return q

    with monkeypatch.context() as m:
        m.setattr(Poly, "__floordiv__", exact_floordiv)
        return normalrank_bareiss(M)


class TestBareissNormalrank:
    def test_old_equals_new_on_400_random_ranks(self, monkeypatch):
        """Products of random r x k and k x c factors, k = 0..5, so every
        rank up to 5 occurs."""
        rng = random.Random(4001)
        seen = set()
        for _ in range(400):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(0, min(r, c))
            M = rand_polymat(rng, r, k, 1, 3) @ rand_polymat(rng, k, c, 1, 3) \
                if k else PolyMat.zeros(r, c)
            rank = exact_normalrank(M, monkeypatch)
            assert rank == normalrank(M) == normalrank_undivided(M) \
                == row_echelon(M).rank
            seen.add(rank)
        assert seen == set(range(6))

    def test_zero_entries_below_pivot_keep_divisions_exact(self, monkeypatch):
        # the second row is zero in the first pivot column; left unscaled
        # there, it would make the next division inexact
        M = PolyMat([[S, Poly.one(), S + 1], [Poly.zero(), S, Poly.one()],
                     [S + 2, Poly.zero(), S * S]])
        assert exact_normalrank(M, monkeypatch) == normalrank(M) \
            == normalrank_undivided(M) == 3


class TestNormalrankByEvaluation:
    """normalrank from constant ranks at lam = 0..D against the Bareiss
    reference."""

    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    @settings(max_examples=150)
    def test_matches_bareiss(self, rows, cols, data):
        coeff = st.one_of(st.integers(-3, 3),
                          st.builds(Fraction, st.integers(-3, 3),
                                    st.integers(1, 4)))
        polys = st.lists(coeff, max_size=4).map(Poly)
        M = [[data.draw(polys) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and data.draw(st.booleans()):  # a dependent last row
            p, q = data.draw(polys), data.draw(polys)
            M[-1] = [p * x + q * y for x, y in zip(M[0], M[1])]
        if data.draw(st.booleans()):
            # every minor then vanishes at lam = 0, 1, 2, the first samples
            f = S * (S - 1) * (S - 2)
            M = [[f * x for x in row] for row in M]
        M = PolyMat(M, cols=cols)
        assert normalrank(M) == normalrank_bareiss(M)

    @pytest.mark.parametrize("M, rank", [
        (PolyMat([], cols=0), 0),
        (PolyMat([], cols=3), 0),
        (PolyMat([[], []], cols=0), 0),
        (PolyMat.zeros(2, 3), 0),
        # the only minor has degree D = 3 and roots 0, 1, 2: full at lam = 3
        (PolyMat([[S * (S - 1) * (S - 2)]]), 1),
        # det = s(s - 1) vanishes at lam = 0, 1; D = 2, the sum of the
        # row degrees
        (PolyMat([[S, Poly.zero()], [Poly.one(), S - 1]]), 2),
        # tall, both columns a multiple of one polynomial column
        (PolyMat([[S, 2 * S], [Poly.one(), Poly.constant(2)],
                  [S * S, 2 * S * S]]), 1),
    ])
    def test_edge_cases(self, M, rank):
        assert normalrank(M) == normalrank_bareiss(M) == rank


class TestEquivalence:
    def test_old_equals_new_on_150_random_pairs(self):
        """Hermite-form equality against the divisibility route, on seeded
        unimodular multiples and on perturbations of them."""
        rng = random.Random(1511)
        equivalent = done = 0
        while done < 150:
            r = rng.randint(1, 3)
            R1 = rand_polymat(rng, r, rng.randint(r, r + 2), 2, 4)
            if normalrank(R1) < r:
                continue
            R2 = rand_unimodular(rng, r) @ R1
            if rng.random() < 0.5:
                i, j = rng.randrange(r), rng.randrange(R1.cols)
                rows = [list(row) for row in R2.entries]
                rows[i][j] = rows[i][j] + rand_poly(rng, 1, 2, nonzero=True)
                R2 = PolyMat(rows, cols=R1.cols)
                if normalrank(R2) < r:
                    continue
            got = unimodularly_equivalent(R1, R2)
            assert got == equivalent_by_division(R1, R2), (R1, R2)
            equivalent += got
            done += 1
        assert 30 <= equivalent <= 120

    def test_scalar_scaling(self):
        A1 = PolyMat([[S + 1, -S]])
        assert unimodularly_equivalent(A1, PolyMat([[2 * (S + 1), -2 * S]]))
        assert not unimodularly_equivalent(A1, PolyMat([[S + 2, -S]]))

    def test_unimodular_action(self):
        rng = random.Random(37)
        M = rand_polymat(rng, 2, 4, 2, 3)
        if normalrank(M) < 2:
            pytest.skip("degenerate draw")
        U = PolyMat([[Poly.one(), S], [Poly.zero(), Poly.one()]])
        assert unimodularly_equivalent(M, U @ M)


wide_ints = st.integers(-(2**240), 2**240)
matrix_entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    wide_ints.map(Fraction),
    st.builds(Fraction, wide_ints, st.integers(2**200, 2**240)),
)


class TestRationalMatmul:
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=100)
    def test_matches_fraction_sum(self, rows, inner, cols, data):
        A = [[data.draw(matrix_entries) for _ in range(inner)] for _ in range(rows)]
        B = [[data.draw(matrix_entries) for _ in range(cols)] for _ in range(inner)]
        got = _fmatmul(A, B)
        want = [[sum((a * b for a, b in zip(row, col)), Fraction(0))
                  for col in zip(*B)] for row in A]
        assert got == want
        assert all(type(x) is Fraction for row in got for x in row)


def frref_by_fractions(M):
    """Reference Gauss-Jordan with one Fraction per entry."""
    m = [[Fraction(x) for x in row] for row in M]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


class TestRationalRref:
    @given(st.integers(0, 4), st.integers(0, 5), st.data())
    @settings(max_examples=150)
    def test_matches_fraction_elimination(self, rows, cols, data):
        entries = st.one_of(st.just(Fraction(0)), matrix_entries)
        M = [[data.draw(entries) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and data.draw(st.booleans()):  # a dependent last row
            c = data.draw(matrix_entries)
            M[-1] = [x + c * y for x, y in zip(M[0], M[1])]
        got = _frref(M)
        assert got == frref_by_fractions(M)
        assert all(type(x) is Fraction for row in got[0] for x in row)
