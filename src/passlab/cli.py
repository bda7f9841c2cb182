"""Command-line front end.

Exit codes: 0 positive verdict / success, 1 negative verdict (witnesses in
the report), 2 input error, 3 inconclusive or unsupported, and also an
internal error: any other exception is reported as
{"status": "internal-error", "error": "<Type>: <message>"} on stdout, with
no traceback.  A stdout that the reader has closed also exits 3, with
nothing more written.  Reports are deterministic for identical inputs and
flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .behavior import (DecompositionError, NotPositiveRealError,
                       coupling_condition_direct, decompose, passive_partition)
from .certificate import (CertificateVerificationError, FactorizationError,
                          FactorStepError, UnsupportedFactorizationError,
                          certificate_status_exit, construct_certificate,
                          spectral_factor_poly, verify_certificate)
from .jsonio import (InputError, certificate_json, dumps, fnum, frac_str,
                     load_document, load_system, matrix_json, parse_cert,
                     parse_polymat, parse_ss, polymat_json, rational_matrix_json,
                     verdict_json)
from .numeric import DEFAULT_TOL, Tolerance
from .poly import Poly
from .polymatrix import PolyMat
from .prpair import FAIL, PASS, check_pair
from .signals import parse_signal_vector
from .statespace import (RealizationError, StateSpace, realize_behavior,
                         realize_statespace, simulate)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _tol_from_args(args) -> Tolerance:
    try:
        return Tolerance(axis_band=args.tol_axis, psd_tol=args.tol_psd,
                         residual_tol=args.tol_residual)
    except ValueError as e:
        raise InputError(str(e)) from None


def _emit(args, payload: dict, text_lines: list[str] | None = None):
    if args.format == "json":
        print(dumps(payload))
    else:
        for line in (text_lines or [dumps(payload)]):
            print(line)


def _require_kind(kind_got: str, kind_want: str, path: str):
    if kind_got != kind_want:
        raise InputError(f"{path}: expected kind '{kind_want}', got '{kind_got}'")


def cmd_check_pair(args) -> int:
    tol = _tol_from_args(args)
    kind, payload = load_system(args.input)
    if kind == "ss":
        P, Q = realize_behavior(payload)
    else:
        P, Q = payload
    verdict = check_pair(P, Q, tol)
    doc = verdict_json(verdict, include_witnesses=verdict.overall != PASS)
    if args.cross_check and verdict.cond2.status == PASS:
        try:
            direct = coupling_condition_direct(decompose(P, Q))
            agree = direct == (verdict.cond3.status == PASS)
            doc["cross_check"] = {"direct_coupling": direct, "agrees": agree}
        except DecompositionError as e:
            doc["cross_check"] = {"error": str(e)}
    _emit(args, doc, [f"cond1: {verdict.cond1.status}",
                      f"cond2: {verdict.cond2.status}",
                      f"cond3: {verdict.cond3.status}",
                      f"overall: {verdict.overall}"])
    return {PASS: EXIT_OK, FAIL: EXIT_NEGATIVE}.get(verdict.overall,
                                                    EXIT_INCONCLUSIVE)


def cmd_decompose(args) -> int:
    kind, payload = load_system(args.input)
    _require_kind(kind, "pair", args.input)
    P, Q = payload
    try:
        dec = decompose(P, Q)
    except DecompositionError as e:
        _emit(args, {"error": str(e)})
        return EXIT_NEGATIVE
    doc = {name: polymat_json(getattr(dec, name))
           for name in ("F", "Ptil", "Qtil", "M", "N", "U", "V", "X", "Y")}
    _emit(args, doc)
    return EXIT_OK


def cmd_partition(args) -> int:
    tol = _tol_from_args(args)
    kind, payload = load_system(args.input)
    _require_kind(kind, "pair", args.input)
    P, Q = payload
    try:
        part = passive_partition(P, Q, tol)
    except NotPositiveRealError as e:
        _emit(args, {"error": str(e)})
        return EXIT_NEGATIVE
    doc = {
        "Pio": polymat_json(part.Pio),
        "Qio": polymat_json(part.Qio),
        "S1": polymat_json(part.S1),
        "T1": polymat_json(part.T1) if part.T1.rows else [],
        "T2": polymat_json(part.T2) if part.T2.rows else [],
        "input_ports_current": list(part.input_ports_current),
    }
    _emit(args, doc)
    return EXIT_OK


def cmd_realize(args) -> int:
    kind, payload = load_system(args.input)
    if args.direction and args.direction != kind:
        raise InputError(f"--from {args.direction} but input has kind '{kind}'")
    if kind == "ss":
        P, Q = realize_behavior(payload)
        _emit(args, {"P": polymat_json(P), "Q": polymat_json(Q), "kind": "pair"})
        return EXIT_OK
    P, Q = payload
    try:
        ss = realize_statespace(P, Q)
    except RealizationError as e:
        _emit(args, {"error": str(e)})
        return EXIT_NEGATIVE
    _emit(args, {"A": matrix_json(ss.A), "B": matrix_json(ss.B),
                 "C": matrix_json(ss.C), "D": matrix_json(ss.D), "kind": "ss"})
    return EXIT_OK


def cmd_certify(args) -> int:
    tol = _tol_from_args(args)
    kind, payload = load_system(args.input)
    _require_kind(kind, "ss", args.input)
    res = construct_certificate(payload, tol)
    doc = {"status": res.status}
    if res.message:
        doc["message"] = res.message
    if res.verdict is not None:
        doc["pair_verdict"] = verdict_json(res.verdict)
    if res.certificate is not None:
        doc["certificate"] = certificate_json(res.certificate)
    _emit(args, doc, [f"status: {res.status}"] +
          ([f"message: {res.message}"] if res.message else []))
    return certificate_status_exit(res.status)


def cmd_verify_cert(args) -> int:
    tol = _tol_from_args(args)
    ss = parse_ss(load_document(args.ss))
    X, L, W = parse_cert(load_document(args.cert))
    try:
        cert = verify_certificate(ss, X, L, W, tol)
    except CertificateVerificationError as e:
        _emit(args, {"verified": False, "error": str(e)})
        return EXIT_NEGATIVE
    except np.linalg.LinAlgError:
        raise
    except ValueError as e:  # X, L, W do not fit the system's shape
        raise InputError(f"certificate does not fit the system: {e}") from None
    _emit(args, {"verified": True, "certificate": certificate_json(cert)})
    return EXIT_OK


def cmd_simulate(args) -> int:
    ss = parse_ss(load_document(args.ss))
    try:
        u = parse_signal_vector(args.input)
    except ValueError as e:
        raise InputError(f"bad --input signal: {e}") from None
    try:
        x0 = [float(v) for v in args.x0.split(",")] if args.x0 else [0.0] * ss.d
    except ValueError as e:
        raise InputError(f"bad --x0: {e}") from None
    if len(x0) != ss.d:
        raise InputError(f"--x0 needs {ss.d} entries, got {len(x0)}")
    if len(u) != ss.n:
        raise InputError(f"--input needs {ss.n} channels, got {len(u)}")
    if not all(map(math.isfinite, (args.t0, args.t1, args.h))):
        raise InputError("--t0, --t1 and --h must be finite")
    if args.h <= 0:
        raise InputError("--h must be positive")
    if args.t1 < args.t0:
        raise InputError("--t1 must be >= --t0")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        traj = simulate(ss, x0, u, args.t0, args.t1, args.h)
    if not (np.isfinite(traj.x).all() and np.isfinite(traj.energy).all()):
        raise InputError(f"the trajectory overflows with --h {args.h:g} on "
                         f"[{args.t0:g}, {args.t1:g}]: take a smaller --h or "
                         "a shorter horizon")
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    try:
        cols = (["t"] + [f"u{i+1}" for i in range(ss.n)]
                + [f"y{i+1}" for i in range(ss.n)]
                + [f"x{i+1}" for i in range(ss.d)] + ["energy"])
        out.write(",".join(cols) + "\n")
        for k in range(len(traj.t)):
            row = ([traj.t[k]] + list(traj.u[k]) + list(traj.y[k])
                   + list(traj.x[k]) + [traj.energy[k]])
            out.write(",".join(f"{fnum(v):.12g}" for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_specfact(args) -> int:
    """--poly factors H directly; --ss prints the factor Z of certify's
    certificate, or certify's verdict where there is none."""
    tol = _tol_from_args(args)
    if (args.poly is None) == (args.ss is None):
        raise InputError("specfact needs exactly one of --poly or --ss")
    if args.ss:
        res = construct_certificate(parse_ss(load_document(args.ss)), tol)
        cert = res.certificate
        _emit(args, _factor_doc(cert.Z, cert.L.shape[0], cert.spectral) if cert
              else {"error": res.message, "status": res.status,
                    "pair_verdict": verdict_json(res.verdict)})
        return certificate_status_exit(res.status)
    try:
        doc = load_document(args.poly)
        H = parse_polymat(doc.get("H", doc.get("poly")), "H")
        if not H.star() == H:
            raise InputError(f"{args.poly}: H is not para-Hermitian")
        sf = spectral_factor_poly(H, tol)
    except UnsupportedFactorizationError as e:
        _emit(args, {"error": str(e), "status": "unsupported"})
        return EXIT_INCONCLUSIVE
    except FactorStepError as e:  # a float step failed: no verdict on H
        _emit(args, {"error": str(e), "status": e.status})
        return EXIT_INCONCLUSIVE
    except FactorizationError as e:  # the exact premise fails, with a witness
        _emit(args, {"error": str(e), "status": "not-factorizable",
                     "witnesses": [{
                         "kind": "axis-indefinite", "reverified": True,
                         "detail": "det H(jw)[subset, subset] = value < 0",
                         "subset": list(e.subset), "w": frac_str(e.wstar),
                         "value": frac_str(e.value)}]})
        return EXIT_NEGATIVE
    _emit(args, _factor_doc(sf.Z, sf.r, sf.diagnostics))
    return EXIT_OK


def _factor_doc(Z, rank: int, diagnostics: dict) -> dict:
    return {"Z": rational_matrix_json(Z), "rank": rank,
            "diagnostics": {
                "factor_residual": fnum(diagnostics["factor_residual"]),
                "full_rank_rhp": bool(diagnostics["full_rank_rhp"]),
                "ok": bool(diagnostics["ok"])}}


def cmd_selftest(args) -> int:
    """A fixed smoke battery; PASSLAB_SEED fixes the randomized checks."""
    import random

    try:
        seed = int(os.environ.get("PASSLAB_SEED", "0"))
    except ValueError:
        raise InputError("PASSLAB_SEED must be an integer") from None
    rng = random.Random(seed)
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    s = Poly.x()
    rc = StateSpace.from_arrays([[-1]], [[1]], [[1]], [[1]])
    res = construct_certificate(rc)
    check("rc-certificate", res.status == "certified"
          and abs(res.certificate.X[0, 0] - (3 - 2 * math.sqrt(2))) < 1e-8)
    f = s * s + 1
    v = check_pair(PolyMat([[f * (s + 1)]]), PolyMat([[f * s]]))
    check("uncontrollable-oscillator-fails", v.overall == FAIL)
    for trial in range(3):
        a = -rng.uniform(0.5, 3.0)
        sys_ = StateSpace.from_arrays([[a]], [[1]], [[1]], [[1]])
        r = construct_certificate(sys_)
        check(f"random-stable-{trial}", r.status == "certified")
    return EXIT_OK if not failures else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="passlab",
        description="Passivity certification for LTI systems: positive-real "
                    "pairs, Lur'e certificates, spectral factors.")
    ap.add_argument("--version", action="version", version=f"passlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-axis", type=float, default=DEFAULT_TOL.axis_band,
                        help="relative axis classification band")
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_tol,
                        help="relative PSD floor")
    common.add_argument("--tol-residual", type=float,
                        default=DEFAULT_TOL.residual_tol,
                        help="relative residual tolerance")
    common.add_argument("--format", choices=("json", "text"), default="json")

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pair", parents=[common],
                       help="decide the three positive-real-pair conditions")
    p.add_argument("input")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the divisibility form of the coupling test")
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser("decompose", parents=[common],
                       help="controllable/autonomous decomposition of a pair")
    p.add_argument("input")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("partition", parents=[common],
                       help="passive input-output partition of a pair")
    p.add_argument("input")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("realize", parents=[common],
                       help="convert between pair and state-space forms")
    p.add_argument("input")
    p.add_argument("--from", dest="direction", choices=("pair", "ss"),
                   help="assert the input kind")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("certify", parents=[common],
                       help="construct a Lur'e certificate for a state-space system")
    p.add_argument("input")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-cert", parents=[common],
                       help="verify a supplied certificate")
    p.add_argument("--ss", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate a state-space system, CSV output")
    p.add_argument("--ss", required=True)
    p.add_argument("--input", required=True,
                   help='signal per channel, ";"-separated, e.g. "sin(t)"')
    p.add_argument("--x0", default="", help="comma-separated initial state")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("specfact", parents=[common],
                       help="spectral factor of a para-Hermitian density")
    p.add_argument("--poly", help="JSON with a para-Hermitian polynomial matrix H")
    p.add_argument("--ss", help="state-space JSON; the factor Z of G + G* "
                                "from certify's certificate")
    p.set_defaults(func=cmd_specfact)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the built-in smoke battery")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the report is lost, so the verdict is
        # not delivered.  Point stdout at devnull, so that neither a report
        # nor the interpreter's final flush writes to the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INCONCLUSIVE
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        import logging  # only here: the import costs every call otherwise
        logging.getLogger("passlab").debug("internal error", exc_info=True)
        _emit(args, {"status": "internal-error",
                     "error": f"{type(e).__name__}: {e}"})
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
