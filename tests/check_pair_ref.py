"""`check_pair` as it was before the exact pass path, kept as the tests'
reference: condition 2's `minor_gcd` sweep first, then condition 1 (the
exact axis test s1, then the float zeros of det(P + Q) and the band rule),
then condition 3.  The pass path must give the same verdicts, details and
witnesses, and raise where this raises.  Condition 2 is its own copy of the
sweep, `check_condition2_ref`, so a wrong shortcut in
`prpair.check_condition2` shows here too.
"""

from __future__ import annotations

import numpy as np

from passlab.numeric import (DEFAULT_TOL, Tolerance, closed_rhp, hermitian_psd,
                             region_of)
from passlab.numeric import roots as numeric_roots
from passlab.polymatrix import (REGION_CLOSED_RHP, PolyMat, minor_gcd,
                                rank_drops)
from passlab.prpair import (FAIL, INCONCLUSIVE, PASS, CondVerdict,
                            PRPairVerdict, Witness, _axis_inconclusive,
                            _axis_violation, _condition3, _pr_density,
                            _rank_drop_reverifies, _rhp_direction_witness,
                            _validate_pair)


def check_pair_ref(P: PolyMat, Q: PolyMat,
                   tol: Tolerance = DEFAULT_TOL) -> PRPairVerdict:
    """Run all three conditions (order 2, 1, 3; no short-circuit); PQ* + QP*
    is built once for conditions 1 and 3."""
    _validate_pair(P, Q)
    Phi = _pr_density(P, Q)
    c2 = check_condition2_ref(P, Q, tol)
    c1 = _condition1(P, Q, Phi, tol, c2)
    c3 = _condition3(P, Q, Phi, tol)
    return PRPairVerdict(cond1=c1, cond2=c2, cond3=c3)


def check_condition2_ref(P: PolyMat, Q: PolyMat,
                         tol: Tolerance = DEFAULT_TOL) -> CondVerdict:
    """Full row rank of [P -Q] on the closed right half-plane, by the
    `minor_gcd` sweep alone: a zero gcd is normalrank deficiency, and
    otherwise the rank drops at its roots."""
    _validate_pair(P, Q)
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
    wits = tuple(
        Witness(kind="rank-drop", lam=z,
                reverified=_rank_drop_reverifies(PQ, z))
        for z in res.witnesses)
    if not all(w.reverified for w in wits):
        raise AssertionError("rank-drop witness failed re-verification")
    return CondVerdict(FAIL, wits)


def _condition1(P: PolyMat, Q: PolyMat, Phi: PolyMat, tol: Tolerance,
                cond2: CondVerdict) -> CondVerdict:
    """`check_condition1` on a validated pair with Phi = PQ* + QP*."""
    found = _axis_violation(Phi)
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

    dpq = (P + Q).det()
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
        return CondVerdict(
            INCONCLUSIVE, (),
            "det(P+Q) vanishes on the closed right half-plane where the rank "
            "condition already fails; condition 1 is not decided separately")
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
