"""Exact polynomial-matrix algebra over the rationals.

Dense matrices with `Poly` entries.  Everything here is exact: unimodular
row/column echelon reductions, the inverse of a unimodular matrix (one more
echelon pass), products, fraction-free Bareiss determinants and the
characteristic polynomial by Berkowitz's division-free algorithm (these
three on integer coefficient lists, through one row-by-column convolution,
`_dot`), the adjugate from its coefficients by Cayley-Hamilton, the normal
rank from exact ranks of constant matrices M(lam), syzygy bases,
right-divisibility, the max-degree-of-full-size-minors functional `delta`
(kept as the reference for properness, which callers read from leading row
coefficients), and constant-rank tests over a region of the complex plane.
The dense rational-matrix helpers (`_frref` and the rank, kernel, inverse
and product built on it) live here too; their elimination, `_irref`, runs
on integer rows, and `normalrank` and `statespace.realize_behavior` reuse
it.

Conventions:
  * row echelon:     U @ M == stack(E, zero rows),  U unimodular
  * column echelon:  M @ V == [E  0],               V unimodular
  * a syzygy basis for M is the last (rows - rank) rows of the row
    echelon transform; being rows of a unimodular matrix they have full
    row rank at every complex point.

One forward Euclidean sweep, `_primitive_sweep`, serves every echelon
route.  It runs on integer coefficient lists, by pseudo-division steps that
each end with the row divided by its content, so no `Poly` is built inside
the loop.  A transform is carried in the row, appended after the swept
columns, and `_sweep_polys` tracks each row's multiplier (integer row =
multiplier * rational row) to map the rows back exactly.  `row_echelon`
carries the transform, then makes each pivot monic and reduces above it;
`syzygy_basis` carries the transform but skips the back-reduction, which
never touches the syzygy rows.  `minor_gcd` sweeps with no transform or
multiplier, multiplies the pivots, and reads a missing pivot as rank
deficiency (a zero gcd), so it needs no separate `normalrank` pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from ._numpy import np
from .numeric import DEFAULT_TOL, Tolerance, closed_rhp
from .numeric import roots as numeric_roots
from .poly import NEG_INF, Poly, _lowest, _pseudo_divmod


class PolyMat:
    """Rectangular matrix of Poly entries.  Zero-dimension matrices are
    allowed (pass `cols=` when there are no rows to pin the width); they show
    up as empty selectors and as spectral factors of identically-zero
    densities."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries, *, cols: int | None = None):
        rows = tuple(tuple(Poly.of(e) for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols= disagrees with row width")
        else:
            if cols is None:
                raise ValueError("PolyMat with no rows needs explicit cols=")
            width = cols
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, *a):
        raise AttributeError("PolyMat is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMat":
        return PolyMat([[Poly.one() if i == j else Poly.zero() for j in range(n)]
                        for i in range(n)], cols=n)

    @staticmethod
    def zeros(r: int, c: int) -> "PolyMat":
        return PolyMat([[Poly.zero()] * c for _ in range(r)], cols=c)

    @staticmethod
    def constant(grid) -> "PolyMat":
        """Constant matrix from a grid of numbers/Fractions."""
        return PolyMat([[Poly.constant(v) for v in row] for row in grid])

    # -- queries --------------------------------------------------------------

    def __getitem__(self, ij) -> Poly:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMat) and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"PolyMat[{body}]"

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- shape manipulation -----------------------------------------------------

    def transpose(self) -> "PolyMat":
        return PolyMat([[self.entries[i][j] for i in range(self.rows)]
                        for j in range(self.cols)], cols=self.rows)

    @property
    def T(self) -> "PolyMat":
        return self.transpose()

    def star(self) -> "PolyMat":
        """Para-Hermitian adjoint M*(s) = M(-s)^T."""
        return PolyMat([[self.entries[i][j].star() for i in range(self.rows)]
                        for j in range(self.cols)], cols=self.rows)

    def submatrix(self, row_idx, col_idx) -> "PolyMat":
        col_idx = list(col_idx)
        return PolyMat([[self.entries[i][j] for j in col_idx] for i in row_idx],
                       cols=len(col_idx))

    def select_columns(self, col_idx) -> "PolyMat":
        return self.submatrix(range(self.rows), col_idx)

    def hstack(self, other: "PolyMat") -> "PolyMat":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return PolyMat([list(a) + list(b) for a, b in zip(self.entries, other.entries)],
                       cols=self.cols + other.cols)

    def vstack(self, other: "PolyMat") -> "PolyMat":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return PolyMat(list(self.entries) + list(other.entries), cols=self.cols)

    @staticmethod
    def block(grid) -> "PolyMat":
        """Assemble from a 2-D grid of PolyMat blocks."""
        rows = []
        for block_row in grid:
            acc = block_row[0]
            for blk in block_row[1:]:
                acc = acc.hstack(blk)
            rows.append(acc)
        out = rows[0]
        for r in rows[1:]:
            out = out.vstack(r)
        return out

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "PolyMat") -> "PolyMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMat([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)],
                       cols=self.cols)

    def __sub__(self, other: "PolyMat") -> "PolyMat":
        return self + (-other)

    def __neg__(self) -> "PolyMat":
        return PolyMat([[-e for e in row] for row in self.entries], cols=self.cols)

    def __mul__(self, scalar) -> "PolyMat":
        return PolyMat([[e * scalar for e in row] for row in self.entries],
                       cols=self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other: "PolyMat") -> "PolyMat":
        """Each row of self and column of other is scaled to integers once,
        and each entry is one `_dot`, brought to lowest terms once."""
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        rows = [_int_polys(row) for row in self.entries]
        cols = [_int_polys(row[j] for row in other.entries)
                for j in range(other.cols)]
        return PolyMat([[_lowest(_dot(r, c), dr * dc) for c, dc in cols]
                        for r, dr in rows], cols=other.cols)

    # -- evaluation -----------------------------------------------------------------

    def eval_complex(self, z: complex) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[i, j] = e.eval_complex(z)
        return out

    def eval_stack(self, zs) -> np.ndarray:
        """Values at every point of zs, stacked: shape (len(zs), rows, cols).
        Each entry runs one Horner pass over the whole point array."""
        zs = np.asarray(zs, dtype=complex)
        out = np.zeros((zs.size, self.rows, self.cols), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[:, i, j] = e.eval_complex(zs)
        return out

    # -- determinants ------------------------------------------------------------------

    def det(self) -> Poly:
        """Exact determinant: closed forms for n <= 2, fraction-free Bareiss
        elimination (Math. Comp. 22, 1968) above that, on integer lists: row
        i is scaled to integers over the lcm d_i of its denominators, so each
        intermediate is a minor in Z[s] and each division by the previous
        pivot is exact; det is the last pivot over the product of the d_i."""
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return Poly.one()
        if n == 1:
            return self.entries[0][0]
        if n == 2:
            a, b = self.entries[0]
            c, d = self.entries[1]
            return a * d - b * c
        scaled = [_int_polys(row) for row in self.entries]
        m = [row for row, _ in scaled]
        prev = [1]
        sign = 1
        for k in range(n - 1):
            # smallest-degree nonzero pivot limits coefficient growth
            piv = None
            for i in range(k, n):
                if m[i][k] and (piv is None or len(m[i][k]) < len(m[piv][k])):
                    piv = i
            if piv is None:
                return Poly.zero()
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            rk = m[k]
            for ri in m[k + 1:]:
                pair = (rk[k], [-x for x in ri[k]])
                for j in range(k + 1, n):
                    ri[j] = _pseudo_divmod(_dot(pair, (ri[j], rk[j])), prev)[0]
            prev = rk[k]
        den = prod(d for _, d in scaled)
        return _lowest([sign * x for x in m[n - 1][n - 1]], den)

    def adjugate(self) -> "PolyMat":
        """Transpose of the cofactor matrix; A @ adj(A) == det(A) * I.

        By Cayley-Hamilton on det(tI - A) = sum_k c_k t^(n - k) (`charpoly`),
        adj(A) = (-1)^(n+1) (A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I), taken by
        Horner from A + c_1 I: n - 2 products, O(n^4) ring operations
        (Kailath, Linear Systems, 1980).  For n <= 1 it is the identity; the
        0 x 0 one is empty, as det = 1 and A adj(A) = I_0."""
        if not self.is_square:
            raise ValueError("adjugate of non-square matrix")
        n = self.rows
        if n <= 1:
            return PolyMat.identity(n)

        def plus_scalar(M: PolyMat, ck: Poly) -> PolyMat:
            return PolyMat([[e + ck if i == j else e for j, e in enumerate(row)]
                            for i, row in enumerate(M.entries)], cols=n)

        c = charpoly(self)
        N = plus_scalar(self, c[1])
        for ck in c[2:n]:
            N = plus_scalar(self @ N, ck)
        return N if n % 2 else -N


def charpoly(M: PolyMat) -> list[Poly]:
    """[c_0, ..., c_n] with det(tI - M) = sum_k c_k t^(n - k), so c_0 = 1
    and (-1)^k c_k is the sum of the k x k principal minors of M.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984): with
    A the leading r x r block of M, R and S the rest of row and column r and
    a = M[r, r], the coefficients for the leading (r + 1) x (r + 1) block are
    the lower-triangular Toeplitz matrix with first column
    (1, -a, -R S, -R A S, ..., -R A^(r-1) S) times those for A: O(n^4)
    products of integer coefficient lists.  M is scaled once, by the lcm c
    of all its denominators, to cM in Z[s]; c_k(M) = c_k(cM) / c^k."""
    if not M.is_square:
        raise ValueError("characteristic polynomial of non-square matrix")
    den = lcm(*(e.den for row in M.entries for e in row))
    a = [[[x * (den // e.den) for x in e.num] for e in row] for row in M.entries]
    c = [[1]]
    for r in range(M.rows):
        A = [row[:r] for row in a[:r]]
        v = [row[r] for row in a[:r]]
        col = [[1], [-x for x in a[r][r]]]
        for k in range(r):
            col.append([-x for x in _dot(a[r][:r], v)])
            if k + 1 < r:
                v = [_dot(row, v) for row in A]
        c = [_dot(col[i::-1], c) for i in range(r + 2)]
    return [_lowest(ck, den ** k) for k, ck in enumerate(c)]


# -- exact rational dense linear algebra (small helpers) -------------------------


def _frref(M: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column list, exact.

    Scaling a row leaves the reduced form unchanged, so each row is scaled
    to integers and `_irref` runs the sweep on ints.  Only the final
    division of each pivot row by its pivot builds Fractions."""
    m = [_int_row(row) for row in M]
    pivots = _irref(m)
    cols = len(m[0]) if m else 0
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out += [[Fraction(0)] * cols for _ in range(len(m) - len(pivots))]
    return out, pivots


def _int_row(row) -> list[int]:
    """A rational row as integers, scaled by the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _irref(m: list[list[int]]) -> list[int]:
    """Gauss-Jordan sweep on integer rows, in place; returns the pivot
    columns.  An update a row_i - b row_r clears column c with a and b
    coprime, and the updated row is divided by the gcd of its entries, so
    row k ends as a primitive multiple of row k of the reduced form."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(m[i], prow)]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _frank(M: list[list[Fraction]]) -> int:
    return len(_irref([_int_row(row) for row in M]))


def _fkernel(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """Columns form a basis of {z : M z = 0}, exact."""
    rref, pivots = _frref(M)
    return _rref_kernel(rref, pivots, len(M[0]) if M else 0)


def _rref_kernel(rref: list[list[Fraction]], pivots: list[int],
                 cols: int) -> list[list[Fraction]]:
    """`_fkernel` of a matrix with `cols` columns, from its `_frref`."""
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rref[i][fc]
        basis.append(v)
    # return as column list -> matrix cols x len(basis)
    return [[b[i] for b in basis] for i in range(cols)]


def _finverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(M)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(M)]
    rref, pivots = _frref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]


def _scaled(rows) -> tuple[list[list[int]], int]:
    """A rational grid as integers over the lcm of its denominators."""
    rows = [list(row) for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _fmatmul(A, B):
    """Exact product of rational matrices.  Each factor is scaled to one
    integer matrix over the lcm of its denominators, so the inner products
    run on ints and only the output entries are built as Fractions."""
    ia, da = _scaled(A)
    ib, db = _scaled(zip(*B))
    den = da * db
    return [[Fraction(sum(map(mul, row, col)), den) for col in ib] for row in ia]


# -- rank over the rational function field ------------------------------------------


def normalrank(M: PolyMat) -> int:
    """Rank of M over Q(s): the largest exact rank of the constant M(lam)
    over lam = 0, 1, ..., D, where D is the sum of the min(rows, cols)
    largest row degrees; it stops as soon as the rank is full.

    No rank can exceed the normal rank, and no minor of order r <= min(rows,
    cols) has degree above D, so a nonzero one vanishes at no more than D
    of the D + 1 points.  Each row is evaluated on ints over the lcm of its
    denominators, which scales it and keeps its rank, and `_irref` decides
    the rank."""
    full = min(M.rows, M.cols)
    if full == 0:
        return 0
    rows = [_int_polys(row)[0] for row in M.entries]
    degs = sorted((max(len(e) for e in row) - 1 for row in rows), reverse=True)
    rank = 0
    for lam in range(sum(max(d, 0) for d in degs[:full]) + 1):
        rank = max(rank, len(_irref([[_horner(e, lam) for e in row]
                                     for row in rows])))
        if rank == full:
            break
    return rank


def _int_polys(polys) -> tuple[list[list[int]], int]:
    """Poly entries as integer coefficient lists (low to high), scaled by
    the lcm of their denominators, and that lcm."""
    polys = list(polys)
    den = lcm(*(e.den for e in polys))
    return [[x * (den // e.den) for x in e.num] for e in polys], den


def _dot(p, q) -> list[int]:
    """sum_k p_k(s) q_k(s) on integer coefficient lists (low to high), with
    no trailing zero."""
    out: list[int] = []
    for a, b in zip(p, q):
        if a and b:
            if len(a) < len(b):
                a, b = b, a
            pad = len(a) + len(b) - 1 - len(out)
            if pad > 0:
                out += [0] * pad
            for i, y in enumerate(b):
                if y:
                    for k, x in enumerate(a, i):
                        out[k] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def _horner(c: list[int], lam: int) -> int:
    acc = 0
    for x in reversed(c):
        acc = acc * lam + x
    return acc


# -- unimodular echelon reductions ------------------------------------------------------


@dataclass(frozen=True)
class EchelonResult:
    """U @ M == stack(E, zeros) for row forms; M @ U == [E  0] for column forms."""
    U: PolyMat
    E: PolyMat | None
    rank: int


def _addmul(rows: list[list[Poly]], i: int, j: int, q: Poly, start: int = 0):
    """rows[i] -= q * rows[j], from column `start` on."""
    ri, rj = rows[i], rows[j]
    rows[i] = ri[:start] + [x - q * y for x, y in zip(ri[start:], rj[start:])]


def _sweep_polys(a: list[list[Poly]], u: list[list[Poly]] | None = None
                 ) -> list[int]:
    """`_primitive_sweep` on the Poly rows of `a`, in place, with the
    transform `u`, when one is given, carried in each row; returns the
    pivot columns.  Each row enters as integers over the lcm of its
    denominators, its first multiplier, and leaves divided by its last
    one: the exact row that the sweep over Q[s] leaves."""
    width = len(a[0]) if a else 0
    rows = a if u is None else [x + y for x, y in zip(a, u)]
    scaled = [_int_polys(row) for row in rows]
    ints = [row for row, _ in scaled]
    mult = [Fraction(d) for _, d in scaled]
    pivots = _primitive_sweep(ints, width, mult)
    for i, (row, m) in enumerate(zip(ints, mult)):
        num, den = m.numerator, m.denominator
        if num < 0:
            num, den = -num, -den
        polys = [_lowest([x * den for x in e], num) for e in row]
        a[i] = polys[:width]
        if u is not None:
            u[i] = polys[width:]
    return pivots


def _hermite(a: list[list[Poly]], u: list[list[Poly]] | None = None
             ) -> list[int]:
    """`_sweep_polys`, then pivot by pivot: the pivot is made monic and
    the entries above it are reduced modulo it.  In place, on the transform
    `u` too when one is given; returns the pivot columns."""
    pivots = _sweep_polys(a, u)
    for r, col in enumerate(pivots):
        s = 1 / a[r][col].leading
        a[r] = [x * s for x in a[r]]
        if u is not None:
            u[r] = [x * s for x in u[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if not q.is_zero:
                _addmul(a, i, r, q, col)  # row r is zero left of col
                if u is not None:
                    _addmul(u, i, r, q)
    return pivots


def row_echelon(M: PolyMat) -> EchelonResult:
    """Upper (Hermite-style) row echelon form via exact Euclidean column
    sweeps: `_hermite` with the transform tracked."""
    a = [list(row) for row in M.entries]
    u = [list(row) for row in PolyMat.identity(M.rows).entries]
    r = len(_hermite(a, u))
    E = PolyMat(a[:r]) if r > 0 else None
    return EchelonResult(U=PolyMat(u), E=E, rank=r)


def column_echelon(M: PolyMat) -> EchelonResult:
    """Lower column echelon form: M @ V == [E  0] with V unimodular."""
    res = row_echelon(M.transpose())
    E = res.E.transpose() if res.E is not None else None
    return EchelonResult(U=res.U.transpose(), E=E, rank=res.rank)


def unimodular_inverse(U: PolyMat) -> PolyMat:
    """Exact inverse of a unimodular matrix.  Its Hermite form is I, so the
    row echelon transform is the inverse (Kailath, Linear Systems, 1980,
    sec. 6.3).  Raises ValueError when U is not unimodular."""
    res = row_echelon(U)
    if res.E != PolyMat.identity(U.rows):
        raise ValueError("matrix is not unimodular")
    return res.U


def syzygy_basis(M: PolyMat) -> PolyMat | None:
    """Basis for the left syzygy {c : c^T M = 0}; rows have full rank at every
    complex point (they are rows of a unimodular transform).  None if the
    syzygy module is trivial (normalrank == row count).

    The basis is the last rows of the `row_echelon` transform U, which its
    above-pivot reduction never touches, so only the forward sweep runs.
    `normalrank`, from constant ranks, decides the trivial case first, since
    Euclidean sweeps grow coefficients; on a full-rank M it usually stops
    at the first sample point.  A tall M always has a syzygy, so it skips
    that pass."""
    l = M.rows
    if l <= M.cols and normalrank(M) == l:
        return None
    u = [list(row) for row in PolyMat.identity(l).entries]
    rank = len(_sweep_polys([list(row) for row in M.entries], u))
    return PolyMat(u[rank:], cols=l)


def _leading_rows(rows) -> tuple[list, list[list[Fraction]]]:
    """Row degrees of a grid of Polys (NEG_INF for a zero row) and its
    constant leading row-coefficient matrix: row i holds the coefficients
    of s^(degree of row i)."""
    degs = [max((e.degree for e in row), default=NEG_INF) for row in rows]
    return degs, [[e.coeff(d) for e in row] for row, d in zip(rows, degs)]


def row_reduced(M: PolyMat) -> EchelonResult:
    """Row-reduced form: the matrix of highest-row-degree coefficients has full
    row rank.  Requires normalrank(M) == rows; raises ValueError otherwise."""
    l, c = M.rows, M.cols
    a = [list(row) for row in M.entries]
    u = [list(row) for row in PolyMat.identity(l).entries]

    while True:
        degs, lead = _leading_rows(a)
        if NEG_INF in degs:
            raise ValueError("rank deficient: zero row during row reduction")
        # left kernel of the leading row-coefficient matrix
        basis = _fkernel(list(zip(*lead)))
        if not (basis and basis[0]):
            break
        kern = [row[0] for row in basis]
        support = [i for i, ci in enumerate(kern) if ci != 0]
        k = max(support, key=lambda i: degs[i])
        # row_k <- sum_i c_i s^(d_k - d_i) row_i ; strictly drops sum of degrees
        terms = [(Poly([0] * int(degs[k] - degs[i]) + [kern[i]]), i)
                 for i in support]
        for rows in (a, u):
            new = [Poly.zero()] * len(rows[k])
            for q, i in terms:
                new = [x + q * y for x, y in zip(new, rows[i])]
            rows[k] = new
    return EchelonResult(U=PolyMat(u, cols=l), E=PolyMat(a, cols=c), rank=l)


# -- minors, properness degree, divisibility ----------------------------------------------


def delta(M: PolyMat) -> int:
    """Max degree over determinants of all full-size column subsets.
    Requires normalrank(M) == rows.

    Predictable-degree property (Forney, SIAM J. Control 13, 1975): if E is
    row reduced with row degrees k_i, every maximal minor of E has degree
    <= sum k_i, and its s^(sum k_i) coefficient is the matching maximal
    minor of the leading row-coefficient matrix, which has full row rank,
    so one of them is nonzero.  E = U M with U unimodular scales every
    maximal minor of M by the nonzero constant det U (Cauchy-Binet), so M's
    minors have the same degrees as E's.
    """
    if normalrank(M) < M.rows:
        raise ValueError("rank deficient")
    return sum(_leading_rows(row_reduced(M).E.entries)[0])


def minor_gcd(M: PolyMat) -> Poly:
    """Monic gcd of all maximal minors of M, and zero when M has deficient
    row normalrank (tall matrices included): then every maximal minor is 0.

    A forward sweep on M^T, with no transform, gives M @ V = [T 0] with V
    unimodular and T lower triangular.  By Cauchy-Binet every maximal minor
    of M is det(T) times a maximal minor of V^-1, and those have trivial
    gcd, so the gcd is the monic product of the pivots on T's diagonal.
    `_primitive_sweep` runs on the columns of M as integer rows and tracks
    no multiplier: its pivots are constant multiples of the sweep's over
    Q[s], so the monic product is the same.
    """
    a = [_int_polys(col)[0] for col in zip(*M.entries)]
    pivots = _primitive_sweep(a, M.rows)
    if len(pivots) < M.rows:
        return Poly.zero()
    g = Poly.one()
    for row, col in zip(a, pivots):
        g = g * Poly(row[col])
    return g.monic()


def _primitive_sweep(a: list[list[list[int]]], width: int,
                     c: list[Fraction] | None = None) -> list[int]:
    """The forward Euclidean column sweep on integer rows, in place:
    a[i][j] is the coefficient list of entry (i, j), low to high with no
    trailing zero.  Columns 0..width-1 are swept; a row's entries after
    `width` (an appended transform) take every row operation but are never
    pivots.  Returns the pivot columns: row k's first nonzero entry is at
    pivots[k], and rows len(pivots).. end zero in the swept columns.

    Each column is swept until at most one row below the finished pivots
    is nonzero there: the entry of least degree (ties: lowest row) moves up
    as the pivot p, and every other row drops its entry e modulo p by
    pseudo-division steps (Brown, J. ACM 18, 1971),
    row_i <- f row_i - t s^k row_r, with f = lp/g, t = le/g for the leading
    coefficients lp, le of p, e, g = gcd(lp, le) and k = deg e - deg p;
    after each step the row is divided by its content.  Over Q[s] the
    sweep subtracts one quotient, row_i - (e div p) row_r; remainders are
    unique, so each integer row ends as a nonzero constant multiple of that
    rational row, and every degree, hence every pivot choice, is the same.

    When `c` is given, c[i] is that multiple (integer row i = c[i] times
    rational row i): it is multiplied by f at each step, divided by the
    content g when g > 1 (a zero row has g = 0), and swapped with its
    row."""
    l = len(a)
    pivots = []
    r = 0
    for col in range(width):
        if r == l:
            break
        while True:
            piv = None
            for i in range(r, l):
                e = a[i][col]
                if e and (piv is None or len(e) < len(a[piv][col])):
                    piv = i
            if piv is None:
                break
            a[r], a[piv] = a[piv], a[r]
            if c is not None:
                c[r], c[piv] = c[piv], c[r]
            others = [i for i in range(r + 1, l) if a[i][col]]
            if not others:
                break
            prow = a[r][col:]  # rows r.. are zero left of col
            dp, lp = len(prow[0]), prow[0][-1]
            for i in others:
                row = a[i][col:]
                while len(row[0]) >= dp:
                    e = row[0]
                    g = gcd(lp, e[-1])
                    f, t, k = lp // g, e[-1] // g, len(e) - dp
                    row = [_axpy(f, x, t, y, k) for x, y in zip(row, prow)]
                    g = gcd(*(v for x in row for v in x))
                    if g > 1:
                        row = [[v // g for v in x] for x in row]
                    if c is not None:
                        c[i] = c[i] * f / g if g > 1 else c[i] * f
                a[i][col:] = row
        if a[r][col]:
            pivots.append(col)
            r += 1
    return pivots


def _axpy(f: int, x: list[int], t: int, y: list[int], k: int) -> list[int]:
    """f x - t s^k y on coefficient lists, trailing zeros trimmed."""
    out = [f * v for v in x]
    out += [0] * (len(y) + k - len(out))
    for j, v in enumerate(y, k):
        out[j] -= t * v
    while out and not out[-1]:
        out.pop()
    return out


def divisible_on_right(A: PolyMat, F: PolyMat) -> tuple[bool, PolyMat | None]:
    """Does H exist with A == H @ F?  F must be square nonsingular.
    Tests divisibility of A @ adj(F) by det(F), entrywise and exactly."""
    d = F.det()
    if d.is_zero:
        raise ValueError("F is singular")
    B = A @ F.adjugate()
    out = []
    for row in B.entries:
        hrow = []
        for e in row:
            q, r = divmod(e, d)
            if not r.is_zero:
                return False, None
            hrow.append(q)
        out.append(hrow)
    H = PolyMat(out)
    return True, H


# -- constant-rank tests over a region --------------------------------------------

REGION_ALL_C = "all-C"
REGION_CLOSED_RHP = "closed-rhp"


@dataclass(frozen=True)
class FullRankResult:
    """Outcome of a constant-rank test.  `witnesses` are points in the region
    where the rank drops; `robust` is False when the verdict flips under a
    tenfold wider axis band (callers should then report inconclusive)."""
    ok: bool
    witnesses: tuple[complex, ...]
    robust: bool


def fullrank_everywhere(M: PolyMat, region: str,
                        tol: Tolerance = DEFAULT_TOL) -> FullRankResult:
    """Does M(z) keep full row rank for every z in the region?

    Exact reduction: the rank drops exactly at the roots of the gcd of the
    maximal minors.  The gcd is computed exactly; only locating its roots and
    classifying them against the axis band is numeric.
    """
    g = minor_gcd(M)
    if g.is_zero:
        raise ValueError("rank deficient")
    return rank_drops(g, region, tol)


def rank_drops(g: Poly, region: str,
               tol: Tolerance = DEFAULT_TOL) -> FullRankResult:
    """`fullrank_everywhere` of a matrix M with full row normalrank, from
    its nonzero g = minor_gcd(M), so a caller that has read the
    deficiency from a zero g does not sweep M again."""
    if g.degree == 0:
        return FullRankResult(True, (), True)
    if region == REGION_ALL_C:
        return FullRankResult(False, tuple(numeric_roots(g)), True)
    if region != REGION_CLOSED_RHP:
        raise ValueError(f"unknown region {region!r}")
    bad, robust = closed_rhp(numeric_roots(g), tol)
    return FullRankResult(not bad, tuple(bad), robust)
