"""The former float polynomial format of `passlab.certificate`, kept as the
tests' reference: grids of coefficient arrays, lowest degree first, whose
degrees were decided by cutting trailing coefficients at or below 1e-12 of
an entry's largest.  `build_zx` and `rational_matrix_json` here are that
format's Z and its JSON, which the coefficient stacks must reproduce
wherever the cut dropped no true coefficient.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from passlab.jsonio import fnum
from passlab.poly import Poly
from passlab.polymatrix import PolyMat
from passlab.statespace import StateSpace, resolvent


def fp(c) -> np.ndarray:
    return np.atleast_1d(np.asarray(c, dtype=float))


def fp_trim(c) -> np.ndarray:
    """c without its trailing coefficients at or below 1e-12 of the largest."""
    c = fp(c)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(c) > 1e-12 * scale)[0]
    return c[: keep[-1] + 1] if keep.size else np.zeros(1)


def fp_deg(c) -> int:
    c = fp_trim(c)
    return len(c) - 1 if np.any(c != 0) else -1


def fp_star(c) -> np.ndarray:
    c = fp(c)
    return c * np.array([(-1) ** k for k in range(len(c))], dtype=float)


def fp_eval(c, z: complex) -> complex:
    return complex(npp.polyval(z, fp(c)))


def poly_to_fp(p: Poly) -> np.ndarray:
    return fp(p.float_coeffs()) if not p.is_zero else np.zeros(1)


def polymat_to_fp(M: PolyMat) -> list[list[np.ndarray]]:
    return [[poly_to_fp(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def fp_matmul(A, B, rows: int, inner: int, cols: int) -> list[list[np.ndarray]]:
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = np.zeros(1)
            for k in range(inner):
                acc = npp.polyadd(acc, npp.polymul(A[i][k], B[k][j]))
            row.append(fp_trim(acc))
        out.append(row)
    return out


def const_to_fp(M: np.ndarray) -> list[list[np.ndarray]]:
    return [[fp([M[i, j]]) for j in range(M.shape[1])] for i in range(M.shape[0])]


class GridMatrix:
    """num(s)/den(s) with every entry and den trimmed by `fp_trim`."""

    def __init__(self, num, den, rows: int, cols: int):
        self.num = tuple(tuple(fp_trim(e) for e in r) for r in num)
        self.den = fp_trim(den)
        self.rows, self.cols = rows, cols

    @staticmethod
    def of_stack(S: np.ndarray, den) -> "GridMatrix":
        """The grid of a coefficient stack, trimmed as the grid format did."""
        _, rows, cols = S.shape
        return GridMatrix([[S[:, i, j] for j in range(cols)] for i in range(rows)],
                          den, rows, cols)

    def eval(self, z: complex) -> np.ndarray:
        d = fp_eval(self.den, z)
        return np.array([[fp_eval(e, z) / d for e in row] for row in self.num],
                        dtype=complex).reshape(self.rows, self.cols)


def build_zx(ss: StateSpace, L: np.ndarray, W: np.ndarray) -> GridMatrix:
    """Z(s) = W + L (sI - A)^-1 B as the grid format built it."""
    q, n = L.shape[0], ss.n
    if ss.d == 0 or q == 0:
        return GridMatrix(const_to_fp(W.reshape(q, n)), [1.0], q, n)
    charpoly, adj_exact = resolvent(ss.A_exact)
    den = poly_to_fp(charpoly)
    num = fp_matmul(fp_matmul(const_to_fp(L), polymat_to_fp(adj_exact), q, ss.d, ss.d),
                    const_to_fp(ss.B), q, ss.d, n)
    for i in range(q):
        for j in range(n):
            num[i][j] = fp_trim(npp.polyadd(num[i][j], W[i, j] * den))
    return GridMatrix(num, den, q, n)


def rational_matrix_json(R: GridMatrix) -> dict:
    return {"den": [fnum(c) for c in R.den],
            "num": [[[fnum(c) for c in e] for e in row] for row in R.num]}
