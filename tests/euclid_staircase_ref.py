"""Frozen copies of the routines that one integer pseudo-division kernel and
an inversion-free observer staircase replaced, kept as the tests'
references.

`poly._pseudo_divmod` now serves `Poly.__divmod__`, the Sturm sequence and
`poly_gcd`; `squarefree_part` proves square-freeness with `shown_coprime`;
`statespace.staircase` reads its coordinate change off the reduced echelon
form of the observability matrix.  Every result involved is canonical (a
remainder up to a positive scale, a monic gcd, the reduced echelon form, a
unique inverse), so each new routine must give exactly what its copy here
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from passlab.poly import (_SQUAREFREE_PRIME, Poly, _coprime_mod, _primitive)
from passlab.polymatrix import _finverse, _fmatmul, _frref, _rref_kernel
from passlab.statespace import StateSpace, observability_matrix


def negated_remainder_ref(a: list[int], b: list[int]) -> list[int]:
    """-(m a mod b) / content for a positive integer m, [] when b divides a.

    Integer pseudo-division: each step scales by |lc(b)| / gcd(c, lc(b)),
    which lets lc(b) divide the top coefficient c, so m divides |lc(b)|^k
    and stays positive; a signed lc(b) would flip the remainder's sign."""
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    s = abs(lc)
    low = b[:-1]
    for k in range(len(a) - 1 - db, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = gcd(c, lc)
        t = c // g if lc > 0 else -(c // g)  # t lc = f c, f = s // g
        f = s // g
        if f != 1:
            r = [x * f for x in r]
        for j, y in enumerate(low, k):
            r[j] -= t * y
    while r and not r[-1]:
        r.pop()
    return _primitive(r, -1) if r else r


def sturm_sequence_ref(num: Sequence[int]) -> list[list[int]]:
    """The Sturm sequence of `num` (degree >= 1) on `negated_remainder_ref`."""
    a = _primitive(num)
    b = _primitive([k * c for k, c in enumerate(num)][1:])
    seq = [a, b]
    while len(b) > 1:
        r = negated_remainder_ref(a, b)
        if not r:
            break
        seq.append(r)
        a, b = b, r
    return seq


def poly_gcd_ref(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (renormalised each step)."""
    a, b = Poly.of(a), Poly.of(b)
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def squarefree_part_ref(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p, with its own
    reduction of p and p' modulo the prime before the exact gcd."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free part")
    q, num = _SQUAREFREE_PRIME, p.num
    if num[-1] % q:
        high = [c % q for c in reversed(num)]
        deriv = [k * c % q for k, c in zip(range(len(num) - 1, 0, -1), high)]
        if _coprime_mod(high, deriv, q):
            return p.monic()
    return p.monic() // poly_gcd_ref(p, p.derivative())


@dataclass(frozen=True)
class StaircaseRef:
    T: np.ndarray
    Tinv: np.ndarray
    A11: np.ndarray
    C1: np.ndarray
    B1: np.ndarray


def staircase_ref(ss: StateSpace) -> StaircaseRef:
    """Observer staircase form through the exact inverse of S = [e_p K]."""
    d = ss.d
    if d == 0:
        z = np.zeros((0, 0))
        return StaircaseRef(z, z, z, np.zeros((ss.n, 0)), np.zeros((0, ss.n)))
    rref, pivots = _frref(observability_matrix(ss))
    ker = _rref_kernel(rref, pivots, d)  # d x (d - d1)
    d1 = len(pivots)
    S_cols = [[ker[i][j] for i in range(d)] for j in range(d - d1)]
    chosen = [[Fraction(int(i == j)) for i in range(d)] for j in pivots]
    cols = chosen + S_cols
    S = [[cols[c][r] for c in range(d)] for r in range(d)]
    T = _finverse(S)
    At = _fmatmul(_fmatmul(T, ss.A_exact), S)
    Ct = _fmatmul(ss.C_exact, S)
    Bt = _fmatmul(T, ss.B_exact)
    for i in range(d1):
        for j in range(d1, d):
            if At[i][j] != 0:
                raise AssertionError("staircase block (1,2) not zero")
    for i in range(ss.n):
        for j in range(d1, d):
            if Ct[i][j] != 0:
                raise AssertionError("staircase C block not zero")
    f = lambda g: np.array([[float(x) for x in row] for row in g]) if g else np.zeros((0, 0))
    return StaircaseRef(
        T=f(T), Tinv=f(S),
        A11=f([r[:d1] for r in At[:d1]]).reshape(d1, d1),
        C1=f([r[:d1] for r in Ct]).reshape(ss.n, d1),
        B1=f(Bt[:d1]).reshape(d1, ss.n),
    )
