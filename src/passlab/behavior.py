"""Behavior-level constructions for P(d/dt) i = Q(d/dt) v.

`decompose` splits the behavior into a controllable part (image of the
operator pair (M, N)) and an autonomous part (driven by the kernel of F),
producing nine polynomial matrices tied together by two exact identities:

    P = F Ptil,  Q = F Qtil                                     (factor)
    [[Ptil, -Qtil], [U, V]] @ [[X, M], [Y, N]] = I = (swapped)  (inverse)

Both identities are verified exactly before a Decomposition is returned;
the matrices themselves are unique only up to unimodular freedom.

`passive_partition` selects, for a positive-real pair, which external
variable of each port acts as an input so that the re-arranged pair is a
proper input-output system with the same power product.  The selection
follows the max-degree term in the column expansion of det(P + Q), read
from the constant leading row-coefficient matrix of [P -Q].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .numeric import DEFAULT_TOL, Tolerance
from .poly import Poly
from .polymatrix import (PolyMat, _frank, _leading_rows, column_echelon,
                         divisible_on_right, row_reduced, syzygy_basis,
                         unimodular_inverse)
from .prpair import PASS, PRPairVerdict, check_pair


class DecompositionError(Exception):
    """The pair has deficient normalrank; no controllable/autonomous split."""


class NotPositiveRealError(Exception):
    """Operation requires a positive-real pair and the check failed."""


@dataclass(frozen=True)
class Decomposition:
    F: PolyMat
    Ptil: PolyMat
    Qtil: PolyMat
    M: PolyMat
    N: PolyMat
    U: PolyMat
    V: PolyMat
    X: PolyMat
    Y: PolyMat

    def __post_init__(self):
        n = self.F.rows
        eye2n = PolyMat.identity(2 * n)
        What = PolyMat.block([[self.Ptil, -self.Qtil], [self.U, self.V]])
        W = PolyMat.block([[self.X, self.M], [self.Y, self.N]])
        if not (What @ W == eye2n and W @ What == eye2n):
            raise AssertionError("double inverse identity violated")

    def factor_identity_holds(self, P: PolyMat, Q: PolyMat) -> bool:
        return (self.F @ self.Ptil == P) and (self.F @ self.Qtil == Q)


def decompose(P: PolyMat, Q: PolyMat) -> Decomposition:
    """Controllable/autonomous decomposition via a lower column echelon form
    of [P -Q].  When P and Q are already left coprime, F is normalised to I."""
    n = P.rows
    if not (P.is_square and Q.is_square and Q.rows == n):
        raise ValueError("P and Q must be square of the same size")
    res = column_echelon(P.hstack(-Q))  # [P -Q] @ W == [F 0]
    if res.rank < n:
        raise DecompositionError("normalrank deficient")
    W, F = res.U, res.E
    What = unimodular_inverse(W)
    idx_top = range(n)
    idx_bot = range(n, 2 * n)
    X = W.submatrix(idx_top, idx_top)
    M = W.submatrix(idx_top, idx_bot)
    Y = W.submatrix(idx_bot, idx_top)
    N = W.submatrix(idx_bot, idx_bot)
    Ptil = What.submatrix(idx_top, idx_top)
    Qtil = -What.submatrix(idx_top, idx_bot)
    U = What.submatrix(idx_bot, idx_top)
    V = What.submatrix(idx_bot, idx_bot)

    detF = F.det()
    if detF.degree == 0:
        # coprime pair: absorb the unimodular F into (Ptil, Qtil)
        Finv = unimodular_inverse(F)
        X, Y = X @ Finv, Y @ Finv
        Ptil, Qtil = P, Q
        F = PolyMat.identity(n)

    dec = Decomposition(F=F, Ptil=Ptil, Qtil=Qtil, M=M, N=N, U=U, V=V, X=X, Y=Y)
    if not dec.factor_identity_holds(P, Q):
        raise AssertionError("factor identity P = F Ptil, Q = F Qtil violated")
    return dec


def coupling_condition_direct(dec: Decomposition) -> bool:
    """Divisibility form of the coupling condition on the decomposition:
    every syzygy row b* of M*N + N*M must give b*(M*Y + N*X) divisible on
    the right by F.  Equivalent to the syzygy test in `prpair` (their
    agreement is a property exercised by the test suite)."""
    Psi = dec.M.star() @ dec.N + dec.N.star() @ dec.M
    Vb = syzygy_basis(Psi)
    if Vb is None:
        return True
    target = Vb @ (dec.M.star() @ dec.Y + dec.N.star() @ dec.X)
    ok, _ = divisible_on_right(target, dec.F)
    return ok


# -- passive input-output partition ------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Permutation-derived selectors and the re-arranged proper pair.

    T1 picks the ports driven by their i-variable (input current), T2 the
    ports driven by their v-variable; u = col(T1 i, T2 v), y = col(T1 v, T2 i).
    """
    T1: PolyMat
    T2: PolyMat
    S1: PolyMat
    Pio: PolyMat
    Qio: PolyMat

    @property
    def input_ports_current(self) -> tuple[int, ...]:
        """Port indices whose current enters the input vector."""
        return tuple(j for j in range(self.T1.cols)
                     if any(self.T1[i, j] == Poly.one()
                            for i in range(self.T1.rows)))


def passive_partition(P: PolyMat, Q: PolyMat, tol: Tolerance = DEFAULT_TOL,
                      verdict: PRPairVerdict | None = None) -> Partition:
    """Select input/output roles per port so the pair becomes proper.

    det(P+Q) expands by column multilinearity into 2^n determinants, each
    choosing column j from P or from Q; a maximal-degree term dictates the
    selection (T1 = ports whose column came from Q).  Ties break to the
    lexicographically smallest choice bitmask (bit j = column j from P).

    The degrees are read from constants, not from the 2^n determinants.
    Each term is, up to sign, a maximal minor of [P -Q].  With E a row
    reduced form of [P -Q] and L its leading row-coefficient matrix, such
    a minor has degree delta([P -Q]) = sum of E's row degrees exactly when
    the matching n x n minor of L is nonzero (predictable degree, Forney,
    SIAM J. Control 13, 1975; see `delta`).  So the first mask whose
    minor of L is nonsingular is the first of maximal degree.  When no
    mask is, the partitioned pair cannot be proper.

    The chosen pair is proper by the same reading.  With E = U [P -Q],
    U [Pio -Qio] = E S1 has E's row degrees and the leading matrix L S1,
    whose Qio block is, up to sign and column order, the nonsingular minor
    of L just found (Kailath, Linear Systems, 1980, Lemma 6.3-11).
    """
    n = P.rows
    if verdict is None:
        verdict = check_pair(P, Q, tol)
    if verdict.overall != PASS:
        raise NotPositiveRealError("not a positive-real pair")

    try:
        E = row_reduced(P.hstack(-Q)).E
    except ValueError:
        raise NotPositiveRealError("det(P+Q) vanishes identically") from None
    _, lead = _leading_rows(E.entries)
    for mask in itertools.product((0, 1), repeat=n):
        sel = [j if mask[j] else n + j for j in range(n)]
        if _frank([[row[c] for c in sel] for row in lead]) == n:
            break
    else:
        # every mask's degree falls short of delta([P -Q])
        raise AssertionError("partitioned pair is not proper")

    from_q = [j for j in range(n) if mask[j] == 0]
    from_p = [j for j in range(n) if mask[j] == 1]
    T1 = _selector(from_q, n)
    T2 = _selector(from_p, n)

    Pio = P.select_columns(from_q).hstack(-Q.select_columns(from_p))
    Qio = Q.select_columns(from_q).hstack(-P.select_columns(from_p))

    k, kp = len(from_q), len(from_p)
    S1 = PolyMat.block([
        [T1.T, PolyMat.zeros(n, kp), PolyMat.zeros(n, k), T2.T],
        [PolyMat.zeros(n, k), T2.T, T1.T, PolyMat.zeros(n, kp)],
    ])
    return Partition(T1=T1, T2=T2, S1=S1, Pio=Pio, Qio=Qio)


def _selector(idx: list[int], n: int) -> PolyMat:
    return PolyMat([[Poly.one() if j == k else Poly.zero() for k in range(n)]
                    for j in idx], cols=n)

