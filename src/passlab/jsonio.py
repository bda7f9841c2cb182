"""JSON formats shared by the CLI and the test fixtures.

One input schema covers both system representations:

    {"kind": "pair", "P": [[poly, ...], ...], "Q": [[poly, ...], ...]}
    {"kind": "ss", "A": [[num, ...], ...], "B": ..., "C": ..., "D": ...}

A static system (d = 0) has "A": [], "B": [] and "C": [[], ...], one empty
row per port.  A polynomial is an array of coefficients, lowest power
first; scalar entries are JSON numbers or exact-rational strings "num/den".  Output is
deterministic: keys sorted, exact rationals rendered "num/den", floats
rounded through 12 significant digits.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .poly import Poly
from .polymatrix import PolyMat
from .statespace import StateSpace


class InputError(Exception):
    """Malformed input document (maps to CLI exit code 2)."""


def parse_scalar(v) -> Fraction:
    try:
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, bool):
            raise InputError(f"boolean is not a number: {v!r}")
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, float):
            return Fraction(v)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise InputError(f"bad rational entry {v!r}: {e}") from None
    raise InputError(f"bad scalar entry {v!r}")


def parse_poly(obj) -> Poly:
    if isinstance(obj, (int, float, str)):
        return Poly.constant(parse_scalar(obj))
    if not isinstance(obj, list):
        raise InputError(f"polynomial must be a coefficient array, got {obj!r}")
    return Poly([parse_scalar(c) for c in obj])


def parse_polymat(obj, what: str = "matrix") -> PolyMat:
    if not (isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj)):
        raise InputError(f"{what} must be a non-empty nested array")
    try:
        return PolyMat([[parse_poly(e) for e in row] for row in obj])
    except ValueError as e:
        raise InputError(f"{what}: {e}") from None


def parse_matrix(obj, what: str = "matrix") -> list[list[Fraction]]:
    if not isinstance(obj, list):
        raise InputError(f"{what} must be an array")
    rows = obj if not obj or isinstance(obj[0], list) else [obj]
    if not all(isinstance(row, list) for row in rows):
        raise InputError(f"{what} must be an array of rows")
    return [[parse_scalar(e) for e in row] for row in rows]


def parse_pair(doc) -> tuple[PolyMat, PolyMat]:
    try:
        P = parse_polymat(doc["P"], "P")
        Q = parse_polymat(doc["Q"], "Q")
    except KeyError as e:
        raise InputError(f"pair document missing key {e}") from None
    if not (P.is_square and Q.is_square and P.rows == Q.rows):
        raise InputError("P and Q must be square with equal size")
    return P, Q


def parse_ss(doc) -> StateSpace:
    try:
        grids = {k: parse_matrix(doc[k], k) for k in ("A", "B", "C", "D")}
    except KeyError as e:
        raise InputError(f"state-space document missing key {e}") from None
    try:
        ss = StateSpace.from_arrays(grids["A"], grids["B"], grids["C"], grids["D"])
    except ValueError as e:
        raise InputError(str(e)) from None
    if ss.n == 0:
        raise InputError("state-space system has no ports: D is empty")
    return ss


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def load_system(path: str):
    """Returns ("pair", (P, Q)) or ("ss", StateSpace)."""
    doc = load_document(path)
    kind = doc.get("kind")
    if kind == "pair":
        return "pair", parse_pair(doc)
    if kind == "ss":
        return "ss", parse_ss(doc)
    raise InputError(f"{path}: kind must be 'pair' or 'ss', got {kind!r}")


def parse_float_matrix(obj, what: str) -> np.ndarray:
    grid = parse_matrix(obj, what)
    if len({len(row) for row in grid}) > 1:
        raise InputError(f"{what}: ragged rows")
    try:
        return np.array([[float(e) for e in row] for row in grid])
    except OverflowError:
        raise InputError(f"{what}: entry too large for a float") from None


def parse_cert(doc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        X = parse_float_matrix(doc["X"], "X")
        L = parse_float_matrix(doc["L"], "L") \
            if doc["L"] else np.zeros((0, X.shape[0]))
        W = parse_float_matrix(doc["W"], "W") if doc["W"] else np.zeros((0, 0))
    except KeyError as e:
        raise InputError(f"certificate document missing key {e}") from None
    return X, L, W


# -- serialization --------------------------------------------------------------


def fnum(x: float):
    """Round a float through 12 significant digits for stable output."""
    return float(f"{float(x):.12g}") + 0.0  # +0.0 normalizes -0.0


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_json(p: Poly) -> list[str]:
    return [frac_str(c) for c in p.coeffs]


def polymat_json(M: PolyMat) -> list:
    return [[poly_json(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def matrix_json(M: np.ndarray) -> list:
    M = np.atleast_2d(M)
    return [[fnum(v) for v in row] for row in M.tolist()]


def complex_json(z: complex) -> dict:
    return {"im": fnum(z.imag), "re": fnum(z.real)}


def witness_json(w) -> dict:
    out = {"kind": w.kind, "detail": w.detail, "reverified": bool(w.reverified)}
    if w.lam is not None:
        out["lambda"] = complex_json(w.lam)
    if w.vector is not None:
        out["vector"] = [complex_json(z) for z in w.vector]
    if w.value is not None:
        out["value"] = fnum(w.value)
    if w.polyrow is not None:
        out["polyrow"] = [[complex_json(c) for c in entry] for entry in w.polyrow]
    return out


def verdict_json(v, include_witnesses: bool = True) -> dict:
    def cond(c):
        out = {"status": c.status}
        if c.detail:
            out["detail"] = c.detail
        if include_witnesses and c.witnesses:
            out["witnesses"] = [witness_json(w) for w in c.witnesses]
        return out

    doc = {"cond1": cond(v.cond1), "cond2": cond(v.cond2),
           "cond3": cond(v.cond3), "overall": v.overall}
    if include_witnesses:
        doc["witnesses"] = [witness_json(w) for w in v.all_witnesses()]
    return doc


def rational_matrix_json(R) -> dict:
    """den, and each entry of the coefficient stack num without its
    trailing coefficients that are exactly zero ([0.0] for a zero entry)."""
    _, rows, cols = R.num.shape
    return {"den": [fnum(c) for c in R.den],
            "num": [[[fnum(c) for c in np.trim_zeros(R.num[:, i, j], "b")]
                     or [0.0] for j in range(cols)] for i in range(rows)]}


def certificate_json(cert) -> dict:
    return {
        "L": matrix_json(cert.L) if cert.L.size else [],
        "W": matrix_json(cert.W) if cert.W.size else [],
        "X": matrix_json(cert.X),
        "psd_margin": fnum(cert.psd_margin),
        "residuals": {k: fnum(v) for k, v in cert.residuals.items()},
        "Z": rational_matrix_json(cert.Z),
        "spectral": {
            "factor_residual": fnum(cert.spectral["factor_residual"]),
            "full_rank_rhp": bool(cert.spectral["full_rank_rhp"]),
            "ok": bool(cert.spectral["ok"]),
            "rhp_poles": [complex_json(z) for z in cert.spectral["rhp_poles"]],
        },
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
