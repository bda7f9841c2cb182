"""Decision procedure for positive-real pairs (P, Q).

Three conditions are decided, each with a re-verified witness on failure:

  1. P(lam) Q(lam)^H + Q(lam) P(lam)^H  is PSD on the closed right half-plane,
  2. [P -Q](lam) has full row rank on the closed right half-plane,
  3. the coupling condition: any polynomial row p with p^T (P Q* + Q P*) = 0
     and p(lam)^T [P -Q](lam) = 0 must have p(lam) = 0.

Condition 1 is decided exactly on the boundary and extended inward by
analyticity instead of by a 2-D region search: with the Cayley-transformed
pair (Phat, Qhat) = (P - Q, P + Q), the half-plane PSD condition holds iff

  (s1) PQ* + QP* is PSD along the whole imaginary axis (every coefficient
       E_k of its characteristic polynomial det(tI - PQ* - QP*), the sum of
       its k x k principal minors and an exact even polynomial, is
       nonnegative on the reals), and
  (s2) det(P + Q) has no zeros in the closed right half-plane,

because s2 makes H = Qhat^-1 Phat analytic there, s1 makes it a contraction
on the axis (hence proper), and the maximum principle pushes the contraction
bound into the open half-plane.  s1 alone refutes condition 1; s1 and s2
together prove it; an s2 failure refutes it only when condition 2 holds
(the left kernel of (P+Q) then gives a strictly negative energy direction),
so with condition 2 failed an s2 failure leaves condition 1 undecided and
the verdict is reported as inconclusive for that condition alone.

`check_pair` and `check_condition1` decide s1 first, in one place.  Only
when it passes is det(P + Q) built, and `numeric.zeros_left_of_band` asks
for an exact proof, on integers, that every zero lies left of the tenfold
axis band: a fraction-free Routh-Hurwitz test of det(P + Q) shifted past
the band.  When it holds, s2 holds, and so does condition 2: by
Cauchy-Binet, det(P + Q) = det([P -Q] [I; -I]) is a combination of the
maximal minors of [P -Q], so their gcd divides it, and [P -Q] loses rank
only at zeros of det(P + Q).  Both conditions then pass with no float root
and no `minor_gcd` sweep.  Every other pair (det(P + Q) = 0, a zero pivot,
a zero in or near the band, a shift too wide for the test, any s1 failure)
decides condition 2 on its own, and condition 1 from the float zeros of
det(P + Q) under the band rule, which also place every witness.  Condition 2
first builds det P and det Q, two maximal minors of [P -Q]: when
`shown_coprime` proves them coprime, by a gcd modulo one prime that keeps
the degree of any common integer factor (Gauss's lemma), the gcd of all the
minors is constant and condition 2 passes with no sweep.  Only the pairs
left (a zero determinant, a common factor, or a prime that divides both
leading coefficients or the resultant) run the `minor_gcd` sweep, which
places the rank-drop witnesses.

The E_k come from one division-free Berkowitz pass, in place of the 2^n - 1
principal minors.  When some E_k goes negative the principal minors are
still scanned, smallest first: the witness point w* and the report name
the first minor negative somewhere on the axis, which E_k does not give.

Condition 3 uses the symbolic test: with V a syzygy basis of PQ* + QP*,
the condition holds iff V(lam)[P -Q](lam) keeps full row rank on all of C.
(The matching divisibility form on the controllable/autonomous decomposition
lives in `behavior.coupling_condition_direct`; the two are proven equivalent
and cross-checked in the test suite.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .numeric import (COUPLING_ROW_FLOOR, DEFAULT_TOL, WITNESS_RTOL, Tolerance,
                      closed_rhp, hermitian_psd, rank_cut, region_of,
                      zeros_left_of_band)
from .numeric import roots as numeric_roots
from .poly import Poly, _lowest, find_negative_point, shown_coprime
from .polymatrix import (REGION_ALL_C, REGION_CLOSED_RHP, PolyMat, _int_polys,
                         charpoly, minor_gcd, rank_drops, syzygy_basis)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Concrete violation datum; `reverified` is set by the construction."""
    kind: str  # "rank-drop" | "axis-indefinite" | "rhp-direction" | "coupling"
    lam: complex | None = None
    vector: tuple[complex, ...] | None = None
    polyrow: tuple[tuple[complex, ...], ...] | None = None  # coeffs, low to high
    value: float | None = None
    reverified: bool = False
    detail: str = ""


@dataclass(frozen=True)
class CondVerdict:
    status: str
    witnesses: tuple[Witness, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class PRPairVerdict:
    cond1: CondVerdict
    cond2: CondVerdict
    cond3: CondVerdict

    @property
    def overall(self) -> str:
        stats = (self.cond1.status, self.cond2.status, self.cond3.status)
        if any(s == FAIL for s in stats):
            return FAIL
        if all(s == PASS for s in stats):
            return PASS
        return INCONCLUSIVE

    def all_witnesses(self) -> list[Witness]:
        return [w for c in (self.cond1, self.cond2, self.cond3) for w in c.witnesses]


def _validate_pair(P: PolyMat, Q: PolyMat) -> int:
    if not (P.is_square and Q.is_square and P.rows == Q.rows):
        raise ValueError("P and Q must be square of the same size")
    return P.rows


def pr_form(P: PolyMat, Q: PolyMat, lam: complex) -> np.ndarray:
    """The Hermitian matrix P(lam) Q(lam)^H + Q(lam) P(lam)^H."""
    Pv = P.eval_complex(lam)
    Qv = Q.eval_complex(lam)
    return Pv @ Qv.conj().T + Qv @ Pv.conj().T


def _pr_density(P: PolyMat, Q: PolyMat) -> PolyMat:
    """PQ* + QP*, which conditions 1 and 3 both read.  It is X + X* with
    X = PQ*, since (PQ*)* = QP*, so only one product is built, on integers:
    each row of P and Q is scaled once over the lcm of its denominators, and
    X_ij = sum_k P_ik(s) Q_jk(-s) is a sum of integer convolutions.  Entry
    (i, j) is X_ij + X_ji(-s), brought to lowest terms once, and entry (j, i)
    is its star, since PQ* + QP* is para-Hermitian."""
    n = P.rows
    ps = [_int_polys(row) for row in P.entries]
    qs = [_int_polys(row) for row in Q.entries]
    dp = [lcm(*(e.den for e in row)) for row in P.entries]
    dq = [lcm(*(e.den for e in row)) for row in Q.entries]
    X = [[_star_products(pi, qj) for qj in qs] for pi in ps]
    Phi = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, da = X[i][j], dp[i] * dq[j]
            b, db = X[j][i], dp[j] * dq[i]
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = [x * fa for x in a] + [0] * (len(b) - len(a))
            for k, y in enumerate(b):
                out[k] += -y * fb if k & 1 else y * fb
            Phi[i][j] = _lowest(out, da * fa)
            Phi[j][i] = Phi[i][j].star()
    return PolyMat(Phi, cols=n)


def _star_products(p: list[list[int]], q: list[list[int]]) -> list[int]:
    """sum_k p_k(s) q_k(-s) on integer coefficient lists, low to high."""
    out: list[int] = []
    for a, b in zip(p, q):
        if not (a and b):
            continue
        if len(out) < len(a) + len(b) - 1:
            out += [0] * (len(a) + len(b) - 1 - len(out))
        for i, y in enumerate(b):
            if y:
                if i & 1:
                    y = -y
                for k, x in enumerate(a, i):
                    out[k] += x * y
    return out


# -- condition 2 -------------------------------------------------------------


def check_condition2(P: PolyMat, Q: PolyMat,
                     tol: Tolerance = DEFAULT_TOL) -> CondVerdict:
    """Full row rank of [P -Q] everywhere on the closed right half-plane.

    det P and (-1)^n det Q are two of the maximal minors of [P -Q], so the
    gcd of those minors divides both, and the rank drops only at its zeros
    (Kailath, Linear Systems, 1980).  So when `shown_coprime` proves det P
    and det Q coprime, by a gcd modulo one prime whose soundness rests on
    Gauss's lemma, the gcd is constant, the rank never drops, and condition
    2 passes with no `minor_gcd` sweep.  Otherwise one sweep decides: a zero
    gcd is normalrank deficiency, and otherwise the rank drops at its
    roots.  Where the float [P -Q] does not confirm a drop at a closed-RHP
    root, the exact and float views disagree, and the verdict is
    inconclusive, with the root and the smallest singular value shown."""
    _validate_pair(P, Q)
    if shown_coprime(P.det(), Q.det()):
        return CondVerdict(PASS)
    PQ = P.hstack(-Q)
    g = minor_gcd(PQ)
    if g.is_zero:
        w = Witness(kind="rank-drop", lam=0j,
                    reverified=_rank_drop_reverifies(PQ, 0j),
                    detail="normalrank of [P -Q] is deficient; rank drops at "
                           "every point (shown at lambda = 0)")
        return CondVerdict(FAIL, (w,), "normalrank([P -Q]) < n")
    res = rank_drops(g, REGION_CLOSED_RHP, tol)
    if not res.robust:
        return CondVerdict(INCONCLUSIVE, (),
                           "rank-drop points straddle the axis band")
    if res.ok:
        return CondVerdict(PASS)
    views = [(z, *_rank_drop_view(PQ, z)) for z in res.witnesses]
    unseen = [f"at lambda = {z:.6g} the float smallest singular value of "
              f"[P -Q] is {sv:.6g}, above its cut {cut:.6g}"
              for z, sv, cut in views if not sv <= cut]
    if unseen:
        # the exact gcd vanishes there, but floats do not confirm the drop
        return CondVerdict(INCONCLUSIVE, (),
                           "exact rank drop not visible numerically at the "
                           "closed-RHP zeros of the maximal-minor gcd: "
                           + "; ".join(unseen))
    return CondVerdict(FAIL, tuple(Witness(kind="rank-drop", lam=z, reverified=True)
                                   for z, _, _ in views))


def _rank_drop_view(PQ: PolyMat, lam: complex) -> tuple[float, float]:
    """(smallest singular value of [P -Q](lam), its rank cut): the cut at
    the fixed WITNESS_RTOL, like the other witness re-checks, not a
    Tolerance field."""
    sv = np.linalg.svd(PQ.eval_complex(lam), compute_uv=False)
    return float(sv[-1]), float(rank_cut(sv, WITNESS_RTOL))


def _rank_drop_reverifies(PQ: PolyMat, lam: complex) -> bool:
    """[P -Q](lam) is numerically rank deficient (see `_rank_drop_view`)."""
    sv, cut = _rank_drop_view(PQ, lam)
    return sv <= cut


# -- condition 1 -------------------------------------------------------------


def _even_poly_to_real_axis(g: Poly) -> Poly:
    """For para-Hermitian scalar g (g(-s) == g(s)), the real polynomial
    h(w) = g(jw)."""
    try:
        return g.real_on_axis()
    except ValueError:
        raise AssertionError("principal minor of a para-Hermitian matrix, "
                             "or a sum of them, must be even") from None


def _first_negative(minors) -> tuple[tuple[int, ...], Poly, Fraction] | None:
    """(subset, h, w*) for the first (subset, minor) pair whose real
    polynomial h(w) = minor(jw) is negative somewhere, with h(w*) < 0; None
    when there is none."""
    for subset, minor in minors:
        if minor.is_zero:
            continue
        h = _even_poly_to_real_axis(minor)
        wstar = find_negative_point(h)
        if wstar is not None:
            return subset, h, wstar
    return None


def _axis_violation(Phi: PolyMat
                    ) -> tuple[tuple[int, ...], Poly, Fraction] | None:
    """(subset, h, w*) for the first principal minor of the para-Hermitian
    Phi, smallest subsets first, whose real polynomial h(w) = minor(jw) is
    negative somewhere, with h(w*) < 0; None when there is none.  Every
    earlier minor is nonnegative on the whole axis, so this minor is also
    the first one negative at w*.

    The diagonal (the 1 x 1 minors) is scanned first; for n = 1 that is the
    whole test.  Then Phi(jw) is PSD for every real w iff each E_k(jw) >= 0
    there, where E_k, the sum of the k x k principal minors, is read off
    det(tI - Phi) by `charpoly` (E_1 is the trace, already nonnegative).
    Only when some E_k goes negative are the minors of size 2 and up
    scanned, to name the same first minor and w* as the full scan."""
    if not (Phi.star() == Phi):
        raise ValueError("matrix is not para-Hermitian")
    n = Phi.rows
    found = _first_negative(((i,), Phi[i, i]) for i in range(n))
    if found is not None or n < 2:
        return found
    E = [-c if k & 1 else c for k, c in enumerate(charpoly(Phi))]
    if all(find_negative_point(_even_poly_to_real_axis(e)) is None
           for e in E[2:] if not e.is_zero):
        return None
    return _first_negative((subset, Phi.submatrix(subset, subset).det())
                           for size in range(2, n + 1)
                           for subset in itertools.combinations(range(n), size))


def axis_psd(Phi: PolyMat) -> tuple[bool, Fraction | None]:
    """Exact test: Phi(jw) PSD for every real w, for para-Hermitian Phi.

    A Hermitian matrix is PSD iff every coefficient E_k of its
    characteristic polynomial, the sum of its k x k principal minors, is
    nonnegative.  E_k(Phi(jw)) = E_k(Phi)(jw), and E_k(Phi) is an exact even
    polynomial, so each check is one exact nonnegativity decision on the
    reals.  Returns (False, w*) with a rational w* where some principal
    minor is negative (see `_axis_violation`).
    """
    found = _axis_violation(Phi)
    if found is None:
        return True, None
    return False, found[2]


def _sci(q: Fraction) -> str:
    """An exact rational to 6 significant digits, at any magnitude."""
    return f"{Context(prec=6).divide(Decimal(q.numerator), Decimal(q.denominator)):g}"


def _axis_inconclusive(subset: tuple[int, ...], h: Poly, wstar: Fraction,
                       H: np.ndarray, reason: str) -> CondVerdict:
    """The exact axis test found the principal minor `subset` of Phi(jw*)
    negative, h(w*) < 0, but the float view H of Phi(jw*) does not confirm
    it: report both views, decide nothing."""
    value = h(wstar)
    eig = (f"{np.linalg.eigvalsh((H + H.conj().T) / 2.0)[0]:.6g}"
           if np.all(np.isfinite(H)) else "not finite")
    return CondVerdict(INCONCLUSIVE, (),
                       f"{reason}: at w* = {_sci(wstar)} the exact principal "
                       f"minor {list(subset)} of PQ*+QP* is {_sci(value)}, the "
                       f"float smallest eigenvalue of PQ*+QP* is {eig}")


def check_condition1(P: PolyMat, Q: PolyMat,
                     tol: Tolerance = DEFAULT_TOL) -> CondVerdict:
    """PSD of PQ^H + QP^H on the closed right half-plane, via boundary +
    analyticity (see module docstring for the soundness argument).  An exact
    axis violation that floats cannot confirm at w* is inconclusive."""
    _validate_pair(P, Q)
    return _conditions12(P, Q, _pr_density(P, Q), tol)[0]


def _conditions12(P: PolyMat, Q: PolyMat, Phi: PolyMat, tol: Tolerance
                  ) -> tuple[CondVerdict, CondVerdict]:
    """(condition 1, condition 2) of a validated pair with Phi = PQ* + QP*.
    The exact axis test s1 runs first.  When it passes and
    `zeros_left_of_band` shows every zero of det(P + Q) left of the tenfold
    axis band, both pass with no float root and no `minor_gcd` sweep (see
    the module docstring).  Otherwise condition 2 is decided, then the rest
    of condition 1."""
    found, dpq = _axis_violation(Phi), None
    if found is None:
        dpq = (P + Q).det()
        if dpq and zeros_left_of_band(dpq, tol):
            return CondVerdict(PASS), CondVerdict(PASS)
    cond2 = check_condition2(P, Q, tol)
    return _condition1(P, Q, Phi, tol, cond2, found, dpq), cond2


def _condition1(P: PolyMat, Q: PolyMat, Phi: PolyMat, tol: Tolerance,
                cond2: CondVerdict, found, dpq: Poly | None) -> CondVerdict:
    """`check_condition1` on a validated pair with Phi = PQ* + QP*, given
    what the exact axis test s1 found (`_axis_violation`) and, when it found
    nothing, dpq = det(P + Q)."""
    if found is not None:
        subset, h, wstar = found
        lam = complex(0.0, float(wstar))
        H = Phi.eval_complex(lam)
        psd, vec = hermitian_psd(H, tol) if np.all(np.isfinite(H)) else (True, None)
        if psd or vec is None:
            return _axis_inconclusive(
                subset, h, wstar, H, "exact axis violation not visible numerically")
        val = float(np.real(vec.conj() @ H @ vec))
        if not val < 0:
            return _axis_inconclusive(
                subset, h, wstar, H, "axis witness failed re-verification")
        w = Witness(kind="axis-indefinite", lam=lam, vector=tuple(vec),
                    value=val, reverified=True,
                    detail=f"PQ*+QP* indefinite at s = j{float(wstar):g}")
        return CondVerdict(FAIL, (w,))

    if dpq.is_zero:
        # singular everywhere; pick one point
        bad = [(complex(1.0, 0.0), "det(P+Q) identically zero")]
        robust = True
    else:
        hits, robust = closed_rhp(numeric_roots(dpq), tol)
        bad = [(z, region_of(z, tol)) for z in hits]

    if not robust:
        return CondVerdict(INCONCLUSIVE, (),
                           "zeros of det(P+Q) straddle the axis band")
    if not bad:
        # condition 2 has passed too: a rank drop of [P -Q] at lam gives
        # v^T P(lam) = v^T Q(lam) = 0, so lam is a zero of det(P + Q)
        return CondVerdict(PASS)
    if cond2.status != PASS:
        state = "already fails" if cond2.status == FAIL else "is undecided"
        return CondVerdict(
            INCONCLUSIVE, (),
            "det(P+Q) vanishes on the closed right half-plane where the rank "
            f"condition {state}; condition 1 is not decided separately")
    # s1 decided PQ* + QP* PSD on the whole axis, so a witness can only lie
    # strictly right of it; a zero tagged axis may sit just left of it
    wit = _rhp_direction_witness(P, Q, [z for z, _ in bad if z.real > 0])
    if wit is None:
        # the near-axis policy: no float witness at the tagged zeros, so
        # report them and decide nothing
        zeros = ", ".join(f"{z:.6g} ({tag})" for z, tag in bad)
        return CondVerdict(INCONCLUSIVE, (),
                           "no strictly negative direction at the closed-RHP "
                           f"zeros of det(P+Q): {zeros}")
    return CondVerdict(FAIL, (wit,))


def _rhp_direction_witness(P: PolyMat, Q: PolyMat, bad_roots) -> Witness | None:
    """From an open-RHP zero mu of det(P+Q), build (lam, z) with
    z^H (P(lam)Q(lam)^H + Q(lam)P(lam)^H) z < 0, lam in the open RHP."""
    best = None
    for mu in bad_roots:
        S = (P + Q).eval_complex(mu)
        U, _, _ = np.linalg.svd(S)
        u = U[:, -1]  # u^H S ~ 0
        for lam in (np.conj(mu), mu):
            for z in (np.conj(u), u):
                val = float(np.real(z.conj() @ pr_form(P, Q, lam) @ z))
                if best is None or val < best[0]:
                    best = (val, lam, z)
    if best is None or best[0] >= 0:
        return None
    val, lam, z = best
    return Witness(kind="rhp-direction", lam=complex(lam), vector=tuple(z),
                   value=val, reverified=True,
                   detail="kernel direction of (P+Q) in the closed RHP")


# -- condition 3 -------------------------------------------------------------


def check_condition3(P: PolyMat, Q: PolyMat,
                     tol: Tolerance = DEFAULT_TOL) -> CondVerdict:
    """Coupling condition via the syzygy of PQ* + QP*."""
    _validate_pair(P, Q)
    return _condition3(P, Q, _pr_density(P, Q), tol)


def _condition3(P: PolyMat, Q: PolyMat, Phi: PolyMat,
                tol: Tolerance) -> CondVerdict:
    """`check_condition3` on a validated pair with Phi = PQ* + QP*."""
    V = syzygy_basis(Phi)
    if V is None:
        return CondVerdict(PASS, detail="PQ*+QP* has full normalrank; "
                                        "the syzygy is trivial")
    g = minor_gcd(V @ P.hstack(-Q))
    if g.is_zero:
        wit = _coupling_witness(P, Q, V, 0j)
        return CondVerdict(FAIL, (wit,),
                           "V [P -Q] is normalrank deficient (drops everywhere)")
    res = rank_drops(g, REGION_ALL_C, tol)
    if res.ok:
        return CondVerdict(PASS)
    wits = tuple(_coupling_witness(P, Q, V, z) for z in res.witnesses)
    if not all(w.reverified for w in wits):
        raise AssertionError("coupling witness failed re-verification")
    return CondVerdict(FAIL, wits)


def _coupling_witness(P: PolyMat, Q: PolyMat, V: PolyMat, lam: complex
                      ) -> Witness:
    """Build the violating polynomial row p = V^T g: p^T (PQ*+QP*) == 0 exactly
    (g combines syzygy rows), p(lam)^T [P -Q](lam) ~ 0, p(lam) != 0."""
    PQ = P.hstack(-Q)
    Mv = (V @ PQ).eval_complex(lam)
    U, _, _ = np.linalg.svd(Mv)
    g = np.conj(U[:, -1])  # g^T Mv ~ 0
    # polynomial row p^T = g^T V, coefficients per entry
    maxdeg = max(int(V[i, j].degree) if not V[i, j].is_zero else 0
                 for i in range(V.rows) for j in range(V.cols))
    prow = []
    for j in range(V.cols):
        coeffs = [complex(sum(g[i] * complex(V[i, j].coeff(k))
                              for i in range(V.rows)))
                  for k in range(maxdeg + 1)]
        prow.append(tuple(coeffs))
    p_at = np.array([sum(c * lam ** k for k, c in enumerate(entry))
                     for entry in prow])
    res_rank = np.linalg.norm(p_at @ PQ.eval_complex(lam))
    scale = 1.0 + np.linalg.norm(PQ.eval_complex(lam)) * np.linalg.norm(p_at)
    ok = bool(res_rank <= WITNESS_RTOL * scale
              and np.linalg.norm(p_at) > COUPLING_ROW_FLOOR)
    return Witness(kind="coupling", lam=lam, vector=tuple(g), polyrow=tuple(prow),
                   value=float(res_rank), reverified=ok,
                   detail="p^T = g^T V annihilates PQ*+QP* exactly and "
                          "[P -Q](lambda) numerically, with p(lambda) != 0")


# -- the aggregate ------------------------------------------------------------


def check_pair(P: PolyMat, Q: PolyMat,
               tol: Tolerance = DEFAULT_TOL) -> PRPairVerdict:
    """Run all three conditions, 1 and 2 through `_conditions12` (no
    short-circuit); PQ* + QP* is built once for conditions 1 and 3."""
    _validate_pair(P, Q)
    Phi = _pr_density(P, Q)
    c1, c2 = _conditions12(P, Q, Phi, tol)
    return PRPairVerdict(cond1=c1, cond2=c2, cond3=_condition3(P, Q, Phi, tol))
