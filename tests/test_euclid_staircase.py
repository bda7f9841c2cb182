"""Old equals new for the integer pseudo-division kernel and the
inversion-free observer staircase.

`poly._pseudo_divmod` replaced the Sturm sequence's own remainder loop and
the rational Euclid of `poly_gcd`, and `squarefree_part` now proves
square-freeness through `shown_coprime`; `statespace.staircase` reads T and
its blocks off the reduced echelon form instead of inverting S = [e_p K].
Each result is canonical, so each must equal its frozen copy in
`euclid_staircase_ref` exactly, on seeded inputs and on the corpus.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import corpus
from euclid_staircase_ref import (negated_remainder_ref, poly_gcd_ref,
                                  squarefree_part_ref, staircase_ref,
                                  sturm_sequence_ref)
from test_statespace import staircase_system

from passlab.poly import (Poly, _primitive, _pseudo_divmod, _sturm_sequence,
                          poly_gcd, squarefree_part)
from passlab.statespace import StateSpace, realize_behavior, staircase


def int_poly(rng: random.Random, deg: int, top: int) -> list[int]:
    """Integer numerators of degree `deg`, nonzero leading coefficient of
    either sign."""
    lead = rng.choice((-1, 1)) * rng.randint(1, top)
    return [rng.randint(-top, top) for _ in range(deg)] + [lead]


def rat_poly(rng: random.Random, deg: int) -> Poly:
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(deg)] + [lead])


def test_kernel_remainder_equals_negated_remainder():
    rng = random.Random(20000)
    for _ in range(20000):
        db = rng.randint(1, 8)
        a = int_poly(rng, rng.randint(db, 10), rng.choice((3, 50, 2**40)))
        b = int_poly(rng, db, rng.choice((1, 3, 50, 2**40)))
        quo, rem, m = _pseudo_divmod(a, b)
        assert m > 0 and len(rem) < len(b)
        # m a = quo b + rem, coefficient by coefficient
        prod = [0] * (len(quo) + len(b) - 1)
        for i, x in enumerate(quo):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        assert [m * x for x in a] == [p + (rem[k] if k < len(rem) else 0)
                                      for k, p in enumerate(prod)]
        want = negated_remainder_ref(a, b)
        assert (_primitive(rem, -1) if rem else rem) == want


def planted_pairs(rng: random.Random, count: int):
    """(a, b) with a planted common factor of degree 0..3."""
    for _ in range(count):
        h = rat_poly(rng, rng.randint(0, 3))
        yield (rat_poly(rng, rng.randint(0, 5)) * h,
               rat_poly(rng, rng.randint(0, 5)) * h)


def assert_same_poly_results(a: Poly, b: Poly, roots: bool = True) -> None:
    """The gcd of a and b; with `roots`, also the square-free part and the
    Sturm sequence of a, b and a b (which has the common factor squared)."""
    assert poly_gcd(a, b) == poly_gcd_ref(a, b)
    for p in (a, b, a * b) if roots else ():
        if p.is_zero:
            continue
        assert squarefree_part(p) == squarefree_part_ref(p)
        if p.degree >= 1:
            assert _sturm_sequence(p.num) == sturm_sequence_ref(p.num)


def test_gcd_squarefree_and_sturm_on_planted_pairs():
    rng = random.Random(5000)
    for k, (a, b) in enumerate(planted_pairs(rng, 5000)):
        assert_same_poly_results(a, b, roots=k % 4 == 0)


@pytest.mark.parametrize("a, b", [
    (Poly.zero(), Poly.zero()),
    (Poly([3]), Poly.zero()),
    (Poly.zero(), Poly([Fraction(1, 2), 2])),
    (Poly([-4]), Poly([0, 0, 6])),
    (Poly([1, 0, -2, 0, 1]), Poly([0, -4, 0, 4])),  # (s^2 - 1)^2 and its p'
    (Poly([2**31 - 1, 1]), Poly([1, 2**31 - 1])),  # leading numerator q
])
def test_gcd_edge_cases(a, b):
    assert poly_gcd(a, b) == poly_gcd_ref(a, b)
    assert poly_gcd(b, a) == poly_gcd_ref(b, a)


def test_gcd_squarefree_and_sturm_on_the_corpus():
    for _, ss in corpus():
        P, Q = realize_behavior(ss)
        dp, dq, ds = P.det(), Q.det(), (P + Q).det()
        for a, b in ((dp, dq), (ds, dq), (dp, ds)):
            assert_same_poly_results(a, b)


def staircase_systems():
    rng = random.Random(300)
    for trial in range(300):
        n = 1 + trial % 3
        d = 1 + (trial // 3) % 7
        cut = sorted(rng.randint(0, d) for _ in range(2))
        yield f"seeded-{trial}", staircase_system(
            rng, n, (cut[0], cut[1] - cut[0], d - cut[1]))
    yield from corpus()
    yield "unobserved", StateSpace.from_arrays(
        [[-1, 0], [0, -2]], [[1], [1]], [[0, 0]], [[1]])


def test_staircase_equals_inverse_of_the_completed_kernel():
    unobservable = 0
    for name, ss in staircase_systems():
        got, want = staircase(ss), staircase_ref(ss)
        for field in ("T", "A11", "C1", "B1"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and np.array_equal(a, b), (name, field)
        unobservable += got.A11.shape[0] < ss.d
    assert unobservable >= 150
