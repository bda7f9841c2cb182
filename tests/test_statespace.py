import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import (controllable, corpus, observable, pool_pairs, rand_poly,
                      rand_polymat, si_matrix, siso_sweep_system, transfer_at)
from round_trip_ref import unimodularly_equivalent
from test_certificate import coupled_rc
from test_partition import diagonal_rc, random_passive_multiport
from test_polymatrix import rand_unimodular

from passlab import statespace
from passlab.behavior import passive_partition
from passlab.poly import Poly
from passlab.polymatrix import (EchelonResult, PolyMat, _finverse, _fmatmul,
                                _frank, delta, normalrank, row_echelon,
                                row_reduced)
from passlab.prpair import PASS, check_pair
from passlab.signals import Signal
from passlab.statespace import (RealizationError, StateSpace,
                                _certify_observer_form, observability_matrix,
                                realize_behavior, realize_statespace,
                                resolvent, simulate, staircase, storage_check)

S = Poly.x()


def uncontrollable_oscillator() -> StateSpace:
    return StateSpace.from_arrays([[0, 0, 1], [0, 0, 1], [0, -1, 0]],
                                  [[1], [0], [0]], [[1, 1, 0]], [[1]])


def pairs_equal(P1, Q1, P2, Q2) -> bool:
    return unimodularly_equivalent(P1.hstack(-Q1), P2.hstack(-Q2))


def _echelon_pair(ss: StateSpace) -> tuple[PolyMat, PolyMat]:
    """Reference realization: the left syzygy (M, N) of [C; -(sI - A)] from
    the last n rows of its Euclidean row echelon transform, then
    P = N B + M D and Q = M."""
    n, d = ss.n, ss.d
    K = PolyMat.constant(ss.C_exact).vstack(-si_matrix(ss.A_exact))
    res = row_echelon(K)
    assert res.rank == d
    tail = res.U.submatrix(range(d, d + n), range(n + d))
    M = tail.select_columns(range(n))
    N = tail.select_columns(range(n, n + d))
    return (N @ PolyMat.constant(ss.B_exact)
            + M @ PolyMat.constant(ss.D_exact)), M


def _rat(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def staircase_system(rng: random.Random, n: int, sizes: tuple[int, int, int]
                     ) -> StateSpace:
    """A random system in the block form

        A = [[A11, A12, 0], [0, A22, 0], [A31, A32, A33]],
        B = [B1; 0; B3],  C = [C1  C2  0]

    (block 2 uncontrollable, block 3 unobservable) under a random rational
    similarity.  `sizes` are the three block dimensions."""
    d = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    zero_A = {(0, 2), (1, 0), (1, 2)}  # (row block, column block) zeros
    A = [[Fraction(0) if (block[i], block[j]) in zero_A else _rat(rng, 3)
          for j in range(d)] for i in range(d)]
    B = [[Fraction(0) if block[i] == 1 else _rat(rng, 3) for _ in range(n)]
         for i in range(d)]
    C = [[Fraction(0) if block[j] == 2 else _rat(rng, 3) for j in range(d)]
         for _ in range(n)]
    D = [[_rat(rng, 3) for _ in range(n)] for _ in range(n)]
    while True:
        T = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        if _frank(T) == d:
            break
    Tinv = _finverse(T)
    return StateSpace.from_arrays(_fmatmul(_fmatmul(T, A), Tinv),
                                  _fmatmul(T, B), _fmatmul(C, Tinv), D)


def rk4_by_stages(ss: StateSpace, x0, sigs, t0: float, t1: float, h: float):
    """Reference simulation (nsteps >= 1): the four RK4 stages step by
    step, then Y and the Simpson energy as simulate builds them.  Returns
    (t, X, Y, energy)."""
    from scipy.integrate import cumulative_simpson

    nsteps = max(1, round((t1 - t0) / h))
    he = (t1 - t0) / nsteps
    t = t0 + he * np.arange(nsteps + 1)
    U = np.column_stack([np.atleast_1d(s(t)) for s in sigs]) \
        if ss.n else np.zeros((nsteps + 1, 0))
    tm = t[:-1] + 0.5 * he
    Um = np.column_stack([np.atleast_1d(s(tm)) for s in sigs]) \
        if ss.n else np.zeros((nsteps, 0))
    X = np.zeros((nsteps + 1, ss.d))
    X[0] = np.asarray(x0, dtype=float).reshape(ss.d)
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
        energy = np.concatenate([[0.0], cumulative_simpson(g, dx=he)])
    else:
        energy = np.array([0.0, 0.5 * he * (g[0] + g[1])])
    return t, X, Y, energy


def float_system(rng: np.random.Generator, kind: str, d: int, n: int
                 ) -> StateSpace:
    """A random float system whose A is stable (-(M M^T + I)/2 + S - S^T),
    unstable ((M M^T / d + I)/4 + S - S^T: growth stays far from overflow
    over 50 time units) or defective (one Jordan block of -1/4 under a
    random similarity)."""
    M = rng.standard_normal((d, d))
    S = rng.standard_normal((d, d))
    if kind == "stable":
        A = -(M @ M.T + np.eye(d)) / 2 + S - S.T
    elif kind == "unstable":
        A = (M @ M.T / max(d, 1) + np.eye(d)) / 4 + S - S.T
    else:
        T = rng.standard_normal((d, d)) + 2 * np.eye(d)
        A = T @ (-0.25 * np.eye(d) + np.eye(d, k=1)) @ np.linalg.inv(T)
    return StateSpace.from_arrays(A, rng.standard_normal((d, n)),
                                  rng.standard_normal((n, d)),
                                  rng.standard_normal((n, n)))


def coeff_bits(*mats: PolyMat) -> int:
    """Largest numerator or denominator bit length of the coefficients."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for M in mats for row in M.entries for p in row for c in p.coeffs)


class TestRealizeBehavior:
    def test_integrator(self):
        ss = StateSpace.from_arrays([[0]], [[1]], [[1]], [[0]])
        P, Q = realize_behavior(ss)
        assert pairs_equal(P, Q, PolyMat([[Poly.one()]]), PolyMat([[S]]))

    def test_rc(self):
        ss = StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])
        P, Q = realize_behavior(ss)
        assert pairs_equal(P, Q, PolyMat([[S + 2]]), PolyMat([[S + 1]]))

    def test_oscillator_feed_keeps_uncontrollable_factor(self):
        P, Q = realize_behavior(uncontrollable_oscillator())
        f = S * S + 1
        assert pairs_equal(P, Q, PolyMat([[f * (S + 1)]]), PolyMat([[f * S]]))

    def test_static_system(self):
        ss = StateSpace.from_arrays(np.zeros((0, 0)), np.zeros((0, 2)),
                                    np.zeros((2, 0)), [[1, 0], [0, 2]])
        P, Q = realize_behavior(ss)
        assert P == PolyMat.constant([[1, 0], [0, 2]])
        assert Q == PolyMat.identity(2)

    def test_matches_echelon_syzygy_on_random_mimo(self):
        """The observability-index pair defines the same behavior as the
        echelon syzygy pair; its Q is row reduced with deg det Q equal to
        the observable dimension."""
        rng = random.Random(20240611)
        seen = {"unobservable": 0, "uncontrollable": 0}
        for trial in range(100):
            n = 1 + trial % 3
            d = 1 + (trial // 3) % 7
            cut = sorted(rng.randint(0, d) for _ in range(2))
            sizes = (cut[0], cut[1] - cut[0], d - cut[1])
            ss = staircase_system(rng, n, sizes)
            d_obs = _frank(observability_matrix(ss))
            seen["unobservable"] += d_obs < d
            seen["uncontrollable"] += not controllable(ss)
            P, Q = realize_behavior(ss)
            assert pairs_equal(P, Q, *_echelon_pair(ss))
            assert Q.det().degree == d_obs
            row_deg = [int(max(e.degree for e in row)) for row in Q.entries]
            lead = [[e.coeff(k) for e in row] for row, k in zip(Q.entries, row_deg)]
            assert _frank(lead) == n
        assert min(seen.values()) >= 20, seen

    def test_siso_sweep_coefficients_stay_small(self):
        ss = siso_sweep_system(random.Random(104729), 8)
        P, Q = realize_behavior(ss)
        assert coeff_bits(P, Q) <= 128


def assert_round_trip(P: PolyMat, Q: PolyMat) -> StateSpace:
    """realize_statespace accepts its realization of (P, Q), and so does the
    Hermite round trip: realize_behavior gives a pair with the row Hermite
    form of [P -Q]."""
    ss = realize_statespace(P, Q)
    assert pairs_equal(*realize_behavior(ss), P, Q)
    return ss


def built_proper_pair(rng: random.Random, n: int, plant: bool
                      ) -> tuple[PolyMat, PolyMat]:
    """U F [P1 -Q1]: Q1 row reduced, with row degrees 0..2 and a random
    nonsingular leading row-coefficient matrix, P1 of no higher row degrees,
    U unimodular, and F = T diag(f, 1, ..., 1) with T a constant
    nonsingular matrix and f = s - 2, s^2 + 1 or s + 3 when planted (else
    F = I).  Q^-1 P = Q1^-1 P1 is proper."""
    while True:
        lead = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if _frank(lead) == n:
            break
    mu = [rng.randint(0, 2) for _ in range(n)]
    Q1 = PolyMat([[rand_poly(rng, mu[i] - 1, 3) + lead[i][j] * S ** mu[i]
                   if mu[i] else Poly.constant(lead[i][j]) for j in range(n)]
                  for i in range(n)])
    P1 = PolyMat([[rand_poly(rng, mu[i], 3) for _ in range(n)] for i in range(n)])
    F = PolyMat.identity(n)
    if plant:
        while True:
            T = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if _frank(T) == n:
                break
        f = rng.choice([S - 2, S * S + 1, S + 3])
        F = PolyMat.constant(T) @ PolyMat([[f if i == j == 0 else Poly.of(int(i == j))
                                            for j in range(n)] for i in range(n)])
    UF = rand_unimodular(rng, n) @ F
    return UF @ P1, UF @ Q1


def with_partitions(named):
    """(name, P, Q) where the pair is proper, and (name/partition, Pio, Qio)
    where it passes check_pair."""
    for name, P, Q in named:
        if Q.det().degree >= delta(P.hstack(-Q)):  # proper, as Q is nonsingular
            yield name, P, Q
        v = check_pair(P, Q)
        if v.overall == PASS:
            part = passive_partition(P, Q, verdict=v)
            yield name + "/partition", part.Pio, part.Qio


def inductor_pair(n: int) -> tuple[PolyMat, PolyMat]:
    """P = diag(s, 2s, ..., ns), Q = I: passive and improper."""
    return PolyMat([[(i + 1) * S if i == j else Poly.zero() for j in range(n)]
                    for i in range(n)]), PolyMat.identity(n)


# named pairs, built when a test asks for them; with_partitions keeps the
# proper ones and adds the passive partitions
ROUND_TRIP_GROUPS = {
    "corpus": lambda: [(name, *realize_behavior(ss)) for name, ss in corpus()],
    "pool": lambda: [(label, P, Q) for label, P, Q, _ in pool_pairs()],
    "rc": lambda: [(f"{kind}-rc-{n}", *realize_behavior(system(n)))
                   for n in range(2, 9)
                   for kind, system in (("diagonal", diagonal_rc),
                                        ("coupled", coupled_rc))],
    "inductor": lambda: [(f"inductor-{n}", *inductor_pair(n)) for n in range(2, 9)],
    "planted": lambda: [(f"planted-{n}", *built_proper_pair(random.Random(n), n, True))
                        for n in range(1, 5)],
}


def coupled_rc3_partition() -> tuple[PolyMat, PolyMat]:
    part = passive_partition(*realize_behavior(coupled_rc(3)))
    return part.Pio, part.Qio


class TestRealizeStateSpace:
    def test_capacitor(self):
        ss = realize_statespace(PolyMat([[Poly.one()]]), PolyMat([[S]]))
        assert ss.d == 1
        assert abs(ss.A[0, 0]) < 1e-12 and abs(ss.D[0, 0]) < 1e-12
        assert abs(ss.B[0, 0] * ss.C[0, 0] - 1.0) < 1e-12

    def test_rc_pair(self):
        ss = realize_statespace(PolyMat([[S + 2]]), PolyMat([[S + 1]]))
        assert ss.d == 1
        assert abs(ss.A[0, 0] + 1) < 1e-12 and abs(ss.D[0, 0] - 1) < 1e-12

    def test_improper_rejected(self):
        with pytest.raises(RealizationError, match="input-output form"):
            realize_statespace(PolyMat([[S]]), PolyMat([[Poly.one()]]))

    def test_singular_q_rejected(self):
        with pytest.raises(RealizationError):
            realize_statespace(PolyMat.identity(1), PolyMat([[Poly.zero()]]))

    def test_transformer_static(self):
        Pio = PolyMat.constant([[0, 2], [2, 0]])
        Qio = PolyMat.constant([[1, 0], [0, -1]])
        ss = realize_statespace(Pio, Qio)
        assert ss.d == 0
        assert np.allclose(ss.D, [[0, 2], [-2, 0]])

    def test_round_trip_50_random_proper_pairs(self):
        """The observer-form certificate inside realize_statespace and the
        Hermite round trip it replaced (realize_behavior, then row Hermite
        forms) accept the same realizations: 50 random proper pairs with
        n = 1..2, then 60 built pairs with n = 1..4, 30 of them with a
        planted common left factor (uncontrollable modes)."""
        rng = random.Random(99)
        done = 0
        while done < 50:
            n = rng.randint(1, 2)
            Q = PolyMat([[rand_poly(rng, rng.randint(1, 3), 3)
                          for _ in range(n)] for _ in range(n)])
            P = PolyMat([[rand_poly(rng, 1, 3) for _ in range(n)]
                         for _ in range(n)])
            dq = Q.det()
            if dq.is_zero or dq.degree < 1:
                continue
            if normalrank(P.hstack(-Q)) < n:
                continue
            if delta(P.hstack(-Q)) != dq.degree:
                continue  # not proper
            assert_round_trip(P, Q)
            done += 1
        for k in range(60):
            plant = k % 2 == 1
            P, Q = built_proper_pair(rng, 1 + k % 4, plant)
            ss = assert_round_trip(P, Q)
            assert ss.d == Q.det().degree  # the planted modes are kept
            assert not (plant and controllable(ss))

    @pytest.mark.parametrize("group", list(ROUND_TRIP_GROUPS))
    def test_certificate_accepts_what_the_hermite_round_trip_accepts(self, group):
        """The corpus pairs, the benchmark's pool pairs, the pairs of
        diagonal and coupled RC n-ports (n = 2..8) and the inductor n-ports
        (n = 2..8), and built pairs with planted left factors (n = 1..4),
        where proper, with the passive partitions of those that pass."""
        named = list(with_partitions(ROUND_TRIP_GROUPS[group]()))
        assert named
        for name, P, Q in named:
            assert_round_trip(P, Q)

    @pytest.mark.parametrize("pair", [
        lambda: realize_behavior(dict(corpus())["hidden-stable"]),
        coupled_rc3_partition,
        lambda: built_proper_pair(random.Random(2), 2, plant=True),
    ], ids=["hidden-stable", "coupled-rc-3/partition", "planted-2"])
    def test_perturbed_realization_rejected(self, pair):
        """1/7 added to one entry of A, B, C or D: the certificate raises
        AssertionError, and the Hermite round trip rejects it too."""
        P, Q = pair()
        ss = realize_statespace(P, Q)
        rr = row_reduced(Q)
        P1, Q1 = rr.U @ P, rr.E
        grids = [[list(row) for row in g]
                 for g in (ss.A_exact, ss.B_exact, ss.C_exact, ss.D_exact)]
        mutants = 0
        for g, grid in enumerate(grids):
            for i, row in enumerate(grid):
                for j in range(len(row)):
                    row[j] += Fraction(1, 7)
                    mut = StateSpace.from_arrays(*grids)
                    row[j] -= Fraction(1, 7)
                    with pytest.raises(AssertionError):
                        _certify_observer_form(mut, P1, Q1)
                    assert not pairs_equal(*realize_behavior(mut), P, Q)
                    mutants += 1
        assert mutants == ss.d * ss.d + 2 * ss.d * ss.n + ss.n * ss.n
        _certify_observer_form(StateSpace.from_arrays(*grids), P1, Q1)

    def test_unobservable_realization_rejected_by_the_rank_alone(self):
        """P = (s - 2)(s + 2), Q = (s - 2)(s + 1) has the uncontrollable
        mode 2.  A = diag(-1, 2), B = [1; 1], C = [1 0], D = 1 realizes
        Q^-1 P with that mode unobservable instead: C Q(A) = 0 and P = N B
        + Q D hold, and only the observable dimension, 1 < deg det Q,
        rejects it."""
        P, Q = PolyMat([[(S - 2) * (S + 2)]]), PolyMat([[(S - 2) * (S + 1)]])
        assert realize_statespace(P, Q).d == 2
        ss = StateSpace.from_arrays([[-1, 0], [0, 2]], [[1], [1]], [[1, 0]], [[1]])
        with pytest.raises(AssertionError, match="not left coprime"):
            _certify_observer_form(ss, P, Q)
        assert not pairs_equal(*realize_behavior(ss), P, Q)

    @pytest.mark.parametrize("wrong", ["det", "product"])
    def test_row_reduction_transform_must_be_unimodular(self, monkeypatch, wrong):
        """A row reduction whose U has det s + 3 (which adds the mode -3 to
        ker [P1 -Q1]), or whose U Q is not Q1, is refused."""
        def bad_row_reduced(M):
            rr = row_reduced(M)
            F = PolyMat([[S + 3 if i == j == 0 else Poly.of(int(i == j))
                          for j in range(M.rows)] for i in range(M.rows)])
            if wrong == "det":
                return EchelonResult(U=F @ rr.U, E=F @ rr.E, rank=rr.rank)
            return EchelonResult(U=rr.U, E=F @ rr.E, rank=rr.rank)

        monkeypatch.setattr(statespace, "row_reduced", bad_row_reduced)
        P, Q = coupled_rc3_partition()
        with pytest.raises(AssertionError, match="not unimodular"):
            realize_statespace(P, Q)

    def test_properness_rule_matches_delta_and_det(self):
        """realize_statespace reads Q's nonsingularity and the properness of
        Q^-1 P from the row reduction of Q.  Reference: Q singular when
        det Q = 0, else proper exactly when delta([P -Q]) == deg det Q."""
        singular = ("no state-space realization (input-output form "
                    "violated): Q singular")
        improper = ("no state-space realization (input-output form "
                    "violated): improper")
        rng = random.Random(104729)
        pairs = []
        for k in range(40):  # passive multiports and their swaps
            P, Q = realize_behavior(random_passive_multiport(rng, 1 + k % 4))
            pairs += [(P, Q), (Q, P)]
        for k in range(160):  # random pairs, n = 1..4
            n = 1 + k % 4
            pairs.append((rand_polymat(rng, n, n, 2, 3),
                          rand_polymat(rng, n, n, 2, 3)))
        for k in range(80):  # Q with a repeated row, n = 2..4
            n = 2 + k % 3
            P = rand_polymat(rng, n, n, 2, 3)
            rows = [list(r) for r in rand_polymat(rng, n, n, 2, 3).entries]
            i, j = rng.sample(range(n), 2)
            rows[j] = rows[i]
            pairs.append((P, PolyMat(rows)))
        counts = {}
        for P, Q in pairs:
            dq = Q.det()
            if dq.is_zero:
                ref = singular
            elif delta(P.hstack(-Q)) == dq.degree:
                ref = "proper"
            else:
                ref = improper
            try:
                realize_statespace(P, Q)
                got = "proper"
            except RealizationError as e:
                got = str(e)
            assert got == ref
            counts[ref] = counts.get(ref, 0) + 1
        assert len(counts) == 3 and min(counts.values()) >= 50, counts


class TestResolvent:
    @staticmethod
    def check(A):
        det, adj = resolvent(A)
        si = si_matrix(A)
        assert det == si.det()
        assert adj == si.adjugate()

    def test_random_rational(self):
        rng = random.Random(104729)
        for d in range(1, 8):
            for _ in range(2 if d < 7 else 1):
                self.check([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(d)] for _ in range(d)])

    def test_nilpotent(self):
        rng = random.Random(3)
        for d in range(1, 6):
            A = [[Fraction(rng.randint(-5, 5)) if j > i else Fraction(0)
                  for j in range(d)] for i in range(d)]
            self.check(A)
            assert resolvent(A)[0] == S ** d

    def test_repeated_eigenvalue(self):
        # T J T^-1 with J one Jordan block of -1/2 and a 1x1 block of -1/2
        J = [[Fraction(-1, 2), 1, 0, 0], [0, Fraction(-1, 2), 1, 0],
             [0, 0, Fraction(-1, 2), 0], [0, 0, 0, Fraction(-1, 2)]]
        T = [[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 2], [0, 1, 0, 1]]
        Tinv = np.linalg.inv(np.array(T, dtype=float))  # det T = 10
        Tinv = [[Fraction(round(x * 10), 10) for x in row] for row in Tinv]
        A = [[sum(Fraction(T[i][k]) * J[k][l] * Tinv[l][j]
                  for k in range(4) for l in range(4)) for j in range(4)]
             for i in range(4)]
        self.check(A)
        assert resolvent(A)[0] == (S + Fraction(1, 2)) ** 4

    def test_singular(self):
        rng = random.Random(8)
        for d in range(2, 6):
            A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d)]
                 for _ in range(d - 1)]
            A.append([A[0][j] - 2 * A[-1][j] for j in range(d)])  # dependent row
            self.check(A)
            assert resolvent(A)[0].coeff(0) == 0

    def test_no_states(self):
        det, adj = resolvent([])
        assert det == Poly.one() and (adj.rows, adj.cols) == (0, 0)


class TestKrylovTests:
    def test_uncontrollable_oscillator_krylov(self):
        ss = uncontrollable_oscillator()
        assert not controllable(ss)
        assert observable(ss)


class TestStaircase:
    def test_blocks_and_observability(self):
        ss = uncontrollable_oscillator()
        st = staircase(ss)
        assert st.A11.shape == (3, 3)  # observable
        st2 = staircase(StateSpace.from_arrays(
            [[-1, 0], [0, -2]], [[1], [1]], [[1, 0]], [[0]]))
        assert st2.A11.shape == (1, 1)
        # reconstruct the block pattern
        d = 2
        T = st2.T
        Ti = np.linalg.inv(T)
        At = T @ np.array([[-1.0, 0], [0, -2]]) @ Ti
        assert abs(At[0, 1]) < 1e-12
        Ct = np.array([[1.0, 0]]) @ Ti
        assert abs(Ct[0, 1]) < 1e-12
        sub = StateSpace.from_arrays(st2.A11, st2.B1, st2.C1, [[0]])
        assert observable(sub)


class TestSimulate:
    def test_zero_input_zero_state(self):
        ss = uncontrollable_oscillator()
        tr = simulate(ss, [0, 0, 0], Signal.zero(), 0.0, 1.0, 1e-2)
        assert np.allclose(tr.x, 0) and np.allclose(tr.y, 0)
        assert np.allclose(tr.energy, 0)

    def test_rk4_order(self):
        ss = StateSpace.from_arrays([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        errs = []
        for h in (0.02, 0.01):
            tr = simulate(ss, [1.0], Signal.zero(), 0.0, 2.0, h)
            errs.append(np.max(np.abs(tr.x[:, 0] - np.exp(-tr.t))))
        assert 10 < errs[0] / errs[1] < 25

        ss2 = StateSpace.from_arrays([[0.0, 1.0], [-1.0, 0.0]],
                                     [[0.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        errs2 = []
        for h in (0.02, 0.01):
            tr = simulate(ss2, [1.0, 0.0], Signal.zero(), 0.0, 2.0, h)
            errs2.append(np.max(np.abs(tr.x[:, 0] - np.cos(tr.t))))
        assert 10 < errs2[0] / errs2[1] < 25

    def test_grid_lands_on_t1(self):
        ss = StateSpace.from_arrays([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        tr = simulate(ss, [0.0], Signal.sine(), 0.0, math.pi, 1e-3)
        assert abs(tr.t[-1] - math.pi) < 1e-12

    def test_t1_equal_t0_is_one_sample(self):
        ss = StateSpace.from_arrays([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        tr = simulate(ss, [1.0], Signal.sine(), 2.0, 2.0, 0.1)
        assert tr.t.tolist() == [2.0]
        assert tr.x.tolist() == [[1.0]]
        assert tr.energy.tolist() == [0.0]
        assert tr.u.tolist() == [[math.sin(2.0)]] and tr.y.tolist() == [[1.0]]

    @pytest.mark.parametrize("nsteps", [1, 2, 500, 5000])
    @pytest.mark.parametrize("kind", ["stable", "unstable", "defective"])
    def test_propagator_equals_stage_loop(self, kind, nsteps):
        """The banded propagator solve reproduces the RK4 stage loop; 5,000
        steps span more than one band chunk."""
        rng = np.random.default_rng([104729, nsteps, len(kind)])
        h = 0.01
        cases = [(d, n) for d in range(7) for n in range(4)]
        if nsteps == 5000:  # the reference loop is slow: one n per d
            cases = [(d, d % 4) for d in range(7)]
        for d, n in cases:
            ss = float_system(rng, kind, d, n)
            sigs = [Signal.sine(freq=rng.uniform(0.5, 3.0), coef=rng.uniform(-2, 2))
                    + Signal.cosine(freq=rng.uniform(0.5, 3.0), coef=rng.uniform(-1, 1))
                    for _ in range(n)]
            x0 = rng.uniform(-1, 1, d)
            tr = simulate(ss, x0, sigs, 0.0, nsteps * h, h)
            t, X, Y, energy = rk4_by_stages(ss, x0, sigs, 0.0, nsteps * h, h)
            assert len(tr.t) == nsteps + 1 and np.array_equal(tr.t, t)
            for new, old in ((tr.x, X), (tr.y, Y), (tr.energy, energy)):
                scale = 1.0 + (np.max(np.abs(old)) if old.size else 0.0)
                assert np.max(np.abs(new - old), initial=0.0) <= 1e-11 * scale, \
                    (kind, nsteps, d, n)

    def test_transfer_consistency_random_points(self):
        ss = uncontrollable_oscillator()
        P, Q = realize_behavior(ss)
        rng = random.Random(55)
        for _ in range(5):
            z = complex(rng.uniform(0.5, 2.0), rng.uniform(-2, 2))
            G1 = transfer_at(ss, z)
            G2 = np.linalg.solve(Q.eval_complex(z), P.eval_complex(z))
            assert np.linalg.norm(G1 - G2) <= 1e-8 * (1 + np.linalg.norm(G1))


class TestTransferConsistency:
    def test_mismatch_raises(self):
        # imported here: test_realize_certificate imports this module
        from test_realize_certificate import check_transfer_consistency

        ss = uncontrollable_oscillator()
        P, Q = realize_behavior(ss)
        check_transfer_consistency(ss, P, Q)
        with pytest.raises(AssertionError, match="transfer function mismatch"):
            check_transfer_consistency(ss, P + PolyMat([[Poly([Fraction(1, 10**6)])]]), Q)


def last_partial_sum(g, h) -> float:
    """The Simpson total of the samples g as simulate's energy takes it:
    the last partial sum of cumulative_simpson, the trapezoid on two."""
    if len(g) < 3:
        return float(np.trapezoid(g, dx=h)) if len(g) == 2 else 0.0
    from scipy.integrate import cumulative_simpson
    return float(cumulative_simpson(g, dx=h)[-1])


def storage_check_by_quadrature(ss, X, L, W, traj, rtol=1e-6):
    """Reference storage_check that integrates u^T y again from the samples
    in place of reading traj.energy."""
    from passlab.statespace import StorageCheck, _simpson_total

    X, L, W = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (X, L, W))
    g = np.sum(traj.u * traj.y, axis=1)
    supply = 2.0 * last_partial_sum(g, traj.h)
    storage = traj.x[-1] @ X @ traj.x[-1] - traj.x[0] @ X @ traj.x[0]
    v = traj.x @ L.T + traj.u @ W.T
    rhs = _simpson_total(np.sum(v * v, axis=1), traj.h)
    lhs = supply - storage
    residual = abs(lhs - rhs) / (1.0 + abs(rhs))
    slack = 0.5 * supply - 0.5 * storage
    ok = residual <= rtol and slack >= -rtol * (1.0 + abs(0.5 * supply))
    return StorageCheck(identity_residual=residual, dissipation_slack=slack, ok=ok)


class TestStorageCheck:
    def test_capacitor_lossless_identity(self):
        ss = StateSpace.from_arrays([[0]], [[1]], [[1]], [[0]])
        tr = simulate(ss, [0.0], Signal.cosine(), 0.0, 5.0, 1e-3)
        chk = storage_check(ss, [[1.0]], np.zeros((0, 1)), np.zeros((0, 1)), tr)
        assert chk.ok and chk.identity_residual < 1e-6

    def test_rc_certificate_identity_random_inputs(self):
        ss = StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])
        X = 3 - 2 * math.sqrt(2)
        L = 2 - math.sqrt(2)
        W = math.sqrt(2)
        rng = random.Random(7)
        for _ in range(5):
            u = (Signal.sine(freq=rng.uniform(0.5, 2.0), coef=rng.uniform(-2, 2))
                 + Signal.cosine(freq=rng.uniform(0.5, 3.0), coef=rng.uniform(-1, 1)))
            tr = simulate(ss, [rng.uniform(-1, 1)], u, 0.0, 8.0, 1e-3)
            chk = storage_check(ss, [[X]], [[L]], [[W]], tr)
            assert chk.ok and chk.identity_residual < 1e-6

    def test_simpson_total_equals_the_last_partial_sum(self):
        from passlab.statespace import _simpson_total

        rng = np.random.default_rng(0)
        for n in range(1, 1002, 7):
            g = rng.standard_normal(n) + 2.0
            want = last_partial_sum(g, 1e-2)
            assert abs(_simpson_total(g, 1e-2) - want) <= 1e-14 * abs(want), n

    @pytest.mark.parametrize("t1", [8.0, 2e-3, 1e-3, 0.0])
    def test_supply_read_from_energy_equals_quadrature(self, t1):
        """Reading the supply from traj.energy gives the fields of the old
        second quadrature: bit-identical from two steps on, and within a
        few ulp for one step or none (trapezoid written out by hand)."""
        ss = StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])
        X, L, W = 3 - 2 * math.sqrt(2), 2 - math.sqrt(2), math.sqrt(2)
        rng = random.Random(7)
        inputs = [Signal.sine()] + [
            Signal.sine(freq=rng.uniform(0.5, 2.0), coef=rng.uniform(-2, 2))
            + Signal.cosine(freq=rng.uniform(0.5, 3.0), coef=rng.uniform(-1, 1))
            for _ in range(5)]
        for u in inputs:
            tr = simulate(ss, [rng.uniform(-1, 1)], u, 0.0, t1, 1e-3)
            new = storage_check(ss, [[X]], [[L]], [[W]], tr)
            old = storage_check_by_quadrature(ss, [[X]], [[L]], [[W]], tr)
            if len(tr.t) >= 3:
                assert new == old
            else:
                eps = np.spacing(1.0 + abs(tr.energy[-1]))
                assert abs(new.dissipation_slack - old.dissipation_slack) <= 2 * eps
                assert abs(new.identity_residual - old.identity_residual) <= 4 * eps
                assert new.ok == old.ok

    def test_zero_trajectory(self):
        ss = StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])
        tr = simulate(ss, [0.0], Signal.zero(), 0.0, 1.0, 1e-2)
        chk = storage_check(ss, [[0.1]], [[0.2]], [[math.sqrt(2)]], tr)
        assert chk.identity_residual < 1e-12
