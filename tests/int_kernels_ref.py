"""Frozen copies of the polynomial-matrix product, determinant and
characteristic-polynomial kernels as they ran on `Poly` entries, kept as the
tests' references.

`PolyMat.__matmul__`, `PolyMat.det` (Bareiss) and `polymatrix.charpoly`
(Berkowitz) now run on integer coefficient lists over one scaling.  Every
result is exact and every `Poly` has one representation, so the new kernels
must return exactly what these copies return.
"""

from __future__ import annotations

from passlab.poly import Poly
from passlab.polymatrix import PolyMat


def matmul_ref(A: PolyMat, B: PolyMat) -> PolyMat:
    """A @ B by `Poly` ring operations, zero products skipped."""
    bt = B.transpose().entries
    out = []
    for row in A.entries:
        out_row = []
        for col in bt:
            acc = Poly.zero()
            for a, b in zip(row, col):
                if not (a.is_zero or b.is_zero):
                    acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return PolyMat(out, cols=B.cols)


def det_bareiss_ref(M: PolyMat) -> Poly:
    """Fraction-free Bareiss elimination over Q[s], smallest-degree pivot
    first; every division by the previous pivot is exact."""
    n = M.rows
    if n == 0:
        return Poly.one()
    m = [list(row) for row in M.entries]
    prev = Poly.one()
    sign = 1
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if not m[i][k].is_zero:
                if piv is None or m[i][k].degree < m[piv][k].degree:
                    piv = i
        if piv is None:
            return Poly.zero()
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num // prev
            m[i][k] = Poly.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def charpoly_ref(M: PolyMat) -> list[Poly]:
    """[c_0, ..., c_n] with det(tI - M) = sum_k c_k t^(n - k), by
    Berkowitz's recurrence with ring operations over Q[s]."""
    a = M.entries
    c = [Poly.one()]
    for r in range(M.rows):
        row = a[r][:r]
        v = [a[i][r] for i in range(r)]
        col = [Poly.one(), -a[r][r]]
        for k in range(r):
            col.append(-sum((x * y for x, y in zip(row, v)), Poly.zero()))
            if k + 1 < r:
                v = [sum((x * y for x, y in zip(a[i][:r], v)), Poly.zero())
                     for i in range(r)]
        c = [sum((col[i - j] * c[j] for j in range(min(i, r) + 1)), Poly.zero())
             for i in range(r + 2)]
    return c
