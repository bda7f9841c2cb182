"""Kernel equality by row Hermite forms, kept as the tests' reference for
the round trip of `statespace.realize_statespace`.

`realize_statespace` once re-realized its output with `realize_behavior`
and compared the two pairs with this function.  It now certifies the
observer form by constant matrices (`statespace._certify_observer_form`),
and the tests check that both accept the same realizations.
"""

from __future__ import annotations

from passlab.polymatrix import PolyMat, _hermite


def unimodularly_equivalent(R1: PolyMat, R2: PolyMat) -> bool:
    """Do R1 and R2 define the same kernel, i.e. R1 == U @ R2 for unimodular U?
    Both must have full row normalrank.  The row Hermite form is canonical
    under left unimodular equivalence (Kailath, Linear Systems, 1980, sec.
    6.3), so the kernels agree exactly when the forms do.  Only the forms
    are compared, so `_hermite` builds no transform."""
    if (R1.rows, R1.cols) != (R2.rows, R2.cols):
        return False
    forms = [[list(row) for row in R.entries] for R in (R1, R2)]
    for a in forms:
        _hermite(a)
    return forms[0] == forms[1]
