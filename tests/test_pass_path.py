"""The exact pass path of `check_pair` against its earlier body.

`check_pair` decides conditions 1 and 2 with no float root and no
`minor_gcd` sweep when the exact axis test passes and `zeros_left_of_band`
shows every zero of det(P + Q) left of the tenfold axis band.  On every
pair below it must give the verdict, details and witnesses of
`check_pair_ref` (or raise what that raises), and on SISO d = 20 it, and
`check_condition1` too, must reach neither float roots, the sweep nor a
Sturm sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from check_pair_ref import check_pair_ref
from conftest import corpus, pool_pairs, siso_sweep_system
from test_certificate import coupled_rc
from test_partition import diagonal_rc

import passlab.numeric
import passlab.poly
import passlab.polymatrix
import passlab.prpair
from passlab.jsonio import parse_ss
from passlab.numeric import Tolerance
from passlab.poly import Poly
from passlab.polymatrix import PolyMat
from passlab.prpair import PASS, check_condition1, check_pair
from passlab.statespace import StateSpace, realize_behavior

S = Poly.x()
EPS = Fraction(1, 10**9)


def outcome(check, P: PolyMat, Q: PolyMat):
    """The verdict, or the type and message of what the check raised."""
    try:
        return check(P, Q)
    except Exception as exc:  # compared, never hidden
        return type(exc).__name__, str(exc)


def assert_old_equals_new(pairs) -> int:
    """Both bodies agree on every pair; returns how many passed."""
    passed = 0
    for label, P, Q in pairs:
        new = outcome(check_pair, P, Q)
        assert new == outcome(check_pair_ref, P, Q), label
        passed += getattr(new, "overall", None) == PASS
    return passed


def scaled(ss: StateSpace, k: int) -> StateSpace:
    """The frequency scaling s -> 2^-k s: (2^k A, 2^k B, C, D)."""
    f = Fraction(2) ** k
    return StateSpace.from_arrays([[f * x for x in row] for row in ss.A_exact],
                                  [[f * x for x in row] for row in ss.B_exact],
                                  ss.C_exact, ss.D_exact)


def pairs_of(systems):
    return [(label, *realize_behavior(ss)) for label, ss in systems]


def test_corpus_pairs():
    assert assert_old_equals_new(pairs_of(corpus())) > 0


@pytest.mark.parametrize("k", [20, -20])
def test_corpus_scaled(k):
    assert_old_equals_new(pairs_of((f"{name} * 2^{k}", scaled(ss, k))
                                   for name, ss in corpus()))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("feed", [1, 0, -1])
def test_siso(seed, feed):
    systems = [(f"siso d={d}", siso_sweep_system(random.Random(seed), d, D=((feed,),)))
               for d in range(1, 21)]
    passed = assert_old_equals_new(pairs_of(systems))
    assert passed == (20 if feed >= 0 else 0)


def test_reference_pool():
    assert_old_equals_new(pair[:3] for pair in pool_pairs())


@pytest.mark.parametrize("n", range(2, 9))
def test_rc_nports(n):
    assert assert_old_equals_new(pairs_of([("diagonal", diagonal_rc(n)),
                                           ("coupled", coupled_rc(n))])) == 2


def test_near_axis_pairs():
    tiny = parse_ss({"kind": "ss", "A": [["-1e-300"]], "B": [["1e-300"]],
                     "C": [["1e-300"]], "D": [["1"]]})
    pairs = [("1 + 1e-9/s", PolyMat([[S + EPS]]), PolyMat([[S]])),
             ("its twin", PolyMat([[S - EPS]]), PolyMat([[S]])),
             ("hidden mode at -1e-9", PolyMat([[(S + EPS) * (S + 2)]]),
              PolyMat([[(S + EPS) * (S + 1)]])),
             ("tiny", *realize_behavior(tiny))]
    assert assert_old_equals_new(pairs) == 0


def test_pass_reaches_no_float_root_sweep_or_sturm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pass path left the integer certificates")

    for module, name in [(passlab.numeric, "roots"), (passlab.prpair, "numeric_roots"),
                         (passlab.polymatrix, "numeric_roots"),
                         (passlab.polymatrix, "minor_gcd"), (passlab.prpair, "minor_gcd"),
                         (passlab.poly, "_sturm_sequence")]:
        monkeypatch.setattr(module, name, refuse)
    P, Q = realize_behavior(siso_sweep_system(random.Random(1), 20))
    assert check_pair(P, Q).overall == PASS
    assert check_condition1(P, Q).status == PASS


@pytest.mark.parametrize("band", [1e-300, 5e-324])
def test_tiny_band_takes_the_earlier_path(band, monkeypatch):
    """Past `BAND_SHIFT_BITS` the band test builds no Routh row, and the
    verdicts are the earlier body's."""
    def refuse(c):
        raise AssertionError("a Routh row was built")

    monkeypatch.setattr(passlab.numeric, "_hurwitz", refuse)
    tol = Tolerance(axis_band=band)
    systems = [(f"siso d={d}", siso_sweep_system(random.Random(1), d))
               for d in range(2, 13)]
    for label, P, Q in pairs_of(systems):
        new = outcome(lambda P, Q: check_pair(P, Q, tol), P, Q)
        assert new == outcome(lambda P, Q: check_pair_ref(P, Q, tol), P, Q), label
        assert new.overall == PASS
