"""Old-equals-new checks of `passive_partition`'s choice of ports.

The reference below is the earlier selection, kept here to test its
replacement against: it expanded det(P + Q) into its 2^n column-choice
determinants and took the first one of maximal degree.  The new selection
reads the constant leading row-coefficient matrix of [P -Q] instead, and
the properness of the chosen pair follows from that reading.  The check
that re-verified each partition with delta and det(Qio) now lives in
`assert_matches_reference`.
"""

import itertools
import random
from fractions import Fraction

import pytest
from test_certificate import coupled_rc

from passlab.behavior import NotPositiveRealError, passive_partition
from passlab.poly import NEG_INF, Poly
from passlab.polymatrix import PolyMat, delta
from passlab.prpair import PASS, CondVerdict, PRPairVerdict, check_pair
from passlab.statespace import StateSpace, realize_behavior

S = Poly.x()
PASSED = PRPairVerdict(CondVerdict(PASS), CondVerdict(PASS), CondVerdict(PASS))


def partition_by_dets(P: PolyMat, Q: PolyMat):
    """Reference: the former 2^n determinant scan.  Column j comes from P
    when bit j of the mask is set, else from Q; the first mask of maximal
    degree wins.  Returns (input_ports_current, Pio, Qio, degree)."""
    n = P.rows
    best_deg, best = NEG_INF, None
    for mask in itertools.product((0, 1), repeat=n):
        d = PolyMat([[P[i, j] if mask[j] else Q[i, j] for j in range(n)]
                     for i in range(n)]).det().degree
        if d > best_deg:
            best_deg, best = d, mask
    if best is None:
        raise NotPositiveRealError("det(P+Q) vanishes identically")
    from_q = [j for j in range(n) if best[j] == 0]
    from_p = [j for j in range(n) if best[j] == 1]
    Pio = PolyMat([[P[i, j] for j in from_q] + [-Q[i, j] for j in from_p]
                   for i in range(n)], cols=n)
    Qio = PolyMat([[Q[i, j] for j in from_q] + [-P[i, j] for j in from_p]
                   for i in range(n)], cols=n)
    return tuple(from_q), Pio, Qio, best_deg


def random_passive_multiport(rng: random.Random, n: int) -> StateSpace:
    """A = -(M M^T + I) + S - S^T, C = B^T, D diagonal with entries 0, 1
    or 2: passive, since X = I satisfies the KYP inequality."""
    d = rng.randint(1, 3)
    rat = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    M = [[rat() for _ in range(d)] for _ in range(d)]
    Sk = [[rat() for _ in range(d)] for _ in range(d)]
    B = [[rat() for _ in range(n)] for _ in range(d)]
    A = [[-(sum(M[i][k] * M[j][k] for k in range(d)) + (i == j))
          + Sk[i][j] - Sk[j][i] for j in range(d)] for i in range(d)]
    C = [list(col) for col in zip(*B)]
    D = [[rng.choice([0, 1, 2]) if i == j else 0 for j in range(n)]
         for i in range(n)]
    return StateSpace.from_arrays(A, B, C, D)


def diagonal_rc(n: int) -> StateSpace:
    """A = -diag(1..n), B = C = D = I."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return StateSpace.from_arrays(
        [[-(i + 1) * e for e in row] for i, row in enumerate(eye)],
        eye, eye, eye)


def assert_matches_reference(P: PolyMat, Q: PolyMat) -> None:
    """The selection equals the determinant scan's, and the partition
    passes the checks `passive_partition` once re-ran on every call: the
    selector identities, [Pio -Qio] = [P -Q] S1, and properness as
    delta([Pio -Qio]) == deg det Qio."""
    v = check_pair(P, Q)
    assert v.overall == PASS
    part = passive_partition(P, Q, verdict=v)
    ports, Pio, Qio, _ = partition_by_dets(P, Q)
    assert (part.input_ports_current, part.Pio, part.Qio) == (ports, Pio, Qio)

    n = P.rows
    eye = PolyMat.identity(n)
    assert part.T1.T @ part.T1 + part.T2.T @ part.T2 == eye
    assert part.S1 @ part.S1.T == PolyMat.identity(2 * n)
    S2_doubled = PolyMat.block([[eye, eye], [-eye, eye]])  # 2 S2, integral
    assert S2_doubled @ S2_doubled.T == 2 * PolyMat.identity(2 * n)
    assert Pio.hstack(-Qio) == P.hstack(-Q) @ part.S1
    dq = Qio.det()
    assert not dq.is_zero
    assert delta(Pio.hstack(-Qio)) == dq.degree


def test_random_passive_multiports_and_their_swaps():
    """60 multiports, n = 1..5, some with D_kk = 0; each gives (P, Q) and
    the swapped pair (Q, P)."""
    rng = random.Random(104723)
    lossless_port = 0
    for k in range(60):
        n = 1 + k % 5
        ss = random_passive_multiport(rng, n)
        lossless_port += any(ss.D_exact[i][i] == 0 for i in range(n))
        P, Q = realize_behavior(ss)
        assert_matches_reference(P, Q)
        assert_matches_reference(Q, P)
    assert lossless_port >= 20


@pytest.mark.parametrize("n", range(2, 7))
def test_rc_multiports(n):
    for ss in (diagonal_rc(n), coupled_rc(n)):
        P, Q = realize_behavior(ss)
        assert_matches_reference(P, Q)


@pytest.mark.parametrize("n", (8, 10))
def test_large_rc_multiports_pass_and_partition(n):
    """Verdicts only: the pairs of diagonal and coupled RC n-ports pass
    check_pair and have a passive partition.  (The determinant scan of the
    reference is 2^n dets, so it is not run here.)"""
    for ss in (diagonal_rc(n), coupled_rc(n)):
        P, Q = realize_behavior(ss)
        v = check_pair(P, Q)
        assert v.overall == PASS
        part = passive_partition(P, Q, verdict=v)
        assert not part.Qio.det().is_zero


def test_deficient_pair_keeps_its_error():
    """[P -Q] of normalrank 1: every column-choice determinant vanishes."""
    P = PolyMat([[Poly.one(), S], [Poly.constant(2), 2 * S]])
    Q = PolyMat([[S, Poly.one()], [2 * S, Poly.constant(2)]])
    with pytest.raises(NotPositiveRealError) as ref:
        partition_by_dets(P, Q)
    with pytest.raises(NotPositiveRealError) as new:
        passive_partition(P, Q, verdict=PASSED)
    assert str(new.value) == str(ref.value) == "det(P+Q) vanishes identically"


def test_no_proper_choice_keeps_its_error():
    """[P -Q] = [[s, 0, 0, 1], [0, 1, s, 0]] is row reduced with delta 2,
    but its leading matrix has no nonzero column-choice minor: every
    choice has degree at most 1.  The former scan picked the first of
    degree 1, and its properness check then failed."""
    P = PolyMat([[S, Poly.zero()], [Poly.zero(), Poly.one()]])
    Q = PolyMat([[Poly.zero(), -Poly.one()], [-S, Poly.zero()]])
    _, Pio, Qio, deg = partition_by_dets(P, Q)
    assert deg == Qio.det().degree == 1 < delta(Pio.hstack(-Qio)) == 2
    with pytest.raises(AssertionError) as new:
        passive_partition(P, Q, verdict=PASSED)
    assert str(new.value) == "partitioned pair is not proper"
