import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction

import pytest

import passlab.certificate
from passlab.cli import build_parser, main
from passlab.jsonio import parse_polymat
from passlab.numeric import Tolerance
from passlab.poly import Poly


@pytest.fixture()
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return {
        "rc": write("rc.json", {"kind": "ss", "A": [[-1]], "B": [[1]],
                                "C": [[1]], "D": [[1]]}),
        "uncont": write("uncont_osc.json", {
            "kind": "ss", "A": [[0, 0, 1], [0, 0, 1], [0, -1, 0]],
            "B": [[1], [0], [0]], "C": [[1, 1, 0]], "D": [[1]]}),
        "uncont_pair": write("uncont_pair.json", {
            "kind": "pair", "P": [[["1", "1", "1", "1"]]],
            "Q": [[["0", "1", "0", "1"]]]}),
        "good_pair": write("good_pair.json", {
            "kind": "pair", "P": [[["1", "1"]]], "Q": [[["0", "1"]]]}),
        "transformer": write("transformer.json", {
            "kind": "pair", "P": [[["0"], ["0"]], [["2"], ["1"]]],
            "Q": [[["1"], ["-2"]], [["0"], ["0"]]]}),
        "cert": write("cert.json", {"X": [[3 - 2 * math.sqrt(2)]],
                                    "L": [[2 - math.sqrt(2)]],
                                    "W": [[math.sqrt(2)]]}),
        "bad": write("bad.json", {"kind": "nope"}),
        "notjson": write("notjson.json", "не{json"),
        "density": write("density.json", {"kind": "poly",
                                          "H": [[["4", "0", "-2"]]]}),
        "tmp": tmp_path,
    }


class TestExitCodes:
    def test_check_pair_pass(self, files, capsys):
        assert main(["check-pair", files["good_pair"]]) == 0

    def test_check_pair_fail(self, files, capsys):
        assert main(["check-pair", files["uncont_pair"]]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "fail"
        lam = out["cond2"]["witnesses"][0]["lambda"]
        assert abs(abs(lam["im"]) - 1.0) < 1e-6
        # every reported witness on a negative verdict has re-verified
        assert out["witnesses"] and all(w["reverified"] for w in out["witnesses"])

    def test_check_pair_accepts_ss_input(self, files):
        assert main(["check-pair", files["uncont"]]) == 1

    def test_certify_pass_and_value(self, files, capsys):
        assert main(["certify", files["rc"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "certified"
        assert abs(out["certificate"]["X"][0][0] - (3 - 2 * math.sqrt(2))) < 1e-8

    def test_certify_not_passive(self, files):
        assert main(["certify", files["uncont"]]) == 1

    def test_verify_cert(self, files, capsys):
        assert main(["verify-cert", "--ss", files["rc"],
                     "--cert", files["cert"]]) == 0

    def test_decompose_and_partition(self, files):
        assert main(["decompose", files["good_pair"]]) == 0
        assert main(["partition", files["transformer"]]) == 0

    def test_realize_round(self, files, capsys):
        assert main(["realize", files["uncont"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "pair"

    @pytest.mark.parametrize("pair, ss, back", [
        # P = s^2 + 5s + 6, Q = s^2 + 4s + 3 share the hidden mode s + 3
        ({"P": [[["6", "5", "1"]]], "Q": [[["3", "4", "1"]]]}, None, None),
        # P = 3s + 4, Q = 3s + 1: A = -1/3 has no exact 12-digit float, and
        # the pair comes back with Q monic
        ({"P": [[["4", "3"]]], "Q": [[["1", "3"]]]},
         {"A": [["-1/3"]], "B": [["3"]], "C": [["1/3"]], "D": [["1"]]},
         {"P": [[["4/3", "1"]]], "Q": [[["1/3", "1"]]]}),
    ], ids=["hidden-mode", "thirds"])
    def test_realize_pair_with_hidden_mode_round_trips(self, tmp_path, capsys,
                                                       pair, ss, back):
        pair = dict(pair, kind="pair")
        p = tmp_path / "hidden.json"
        p.write_text(json.dumps(pair))
        assert main(["realize", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "ss"
        if ss is not None:
            assert out == dict(ss, kind="ss")
        p.write_text(json.dumps(out))
        assert main(["realize", str(p)]) == 0
        assert json.loads(capsys.readouterr().out) == (
            pair if back is None else dict(back, kind="pair"))

    @pytest.mark.parametrize("P, Q, reason", [
        ([[["0", "1"]]], [[["1"]]], "improper"),  # the inductor
        ([[["1"]]], [[[]]], "Q singular"),
    ])
    def test_realize_pair_without_realization_exits_1(self, tmp_path, capsys,
                                                      P, Q, reason):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps({"kind": "pair", "P": P, "Q": Q}))
        assert main(["realize", str(p)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "no state-space realization (input-output form "
                     "violated): " + reason}

    def test_realize_from_pair_on_state_space_exits_2(self, files, capsys):
        assert main(["realize", "--from", "pair", files["rc"]]) == 2
        assert "--from pair but input has kind 'ss'" in capsys.readouterr().err

    def test_specfact_poly(self, files, capsys):
        assert main(["specfact", "--poly", files["density"]]) == 0
        out = json.loads(capsys.readouterr().out)
        z = out["Z"]["num"][0][0]
        assert abs(z[1] - math.sqrt(2)) < 1e-9

    def test_specfact_poly_not_para_hermitian_exits_2(self, tmp_path, capsys):
        # H = s is not para-Hermitian: malformed input, not a verdict
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"kind": "poly", "H": [[["0", "1"]]]}))
        assert main(["specfact", "--poly", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "H is not para-Hermitian" in captured.err

    def test_specfact_poly_coupled_density_unsupported(self, tmp_path, capsys):
        # H = [[2, 1], [1, 2 - s^2]] is positive definite on the axis, but
        # its coupled factor is beyond the scalar and diagonal cases
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"kind": "poly", "H": [[["2"], ["1"]],
                                                       [["1"], ["2", "0", "-1"]]]}))
        assert main(["specfact", "--poly", str(p)]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "status": "unsupported",
            "error": "unsupported: matrix spectral factorization beyond the "
                     "scalar and diagonal cases"}

    def test_specfact_poly_premise_failure_exits_1(self, tmp_path, capsys):
        # H = -1 is negative on the whole axis: the exact premise fails
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"kind": "poly", "H": [[["-1"]]]}))
        assert main(["specfact", "--poly", str(p)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "not-factorizable"
        assert "fails PSD-on-axis premise" in out["error"]
        assert out["witnesses"] == [{
            "kind": "axis-indefinite", "reverified": True,
            "detail": "det H(jw)[subset, subset] = value < 0",
            "subset": [0], "w": "0", "value": "-1"}]

    @pytest.mark.parametrize("H, subset", [
        # the diagonal 1 and 2 - s^2 is positive, the 2 x 2 minor is not
        ([[["1"], ["2"]], [["2"], ["2", "0", "-1"]]], [0, 1]),
        # diag(1 - s^2, s^2 - 5): the second diagonal entry is -5 - w^2
        ([[["1", "0", "-1"], []], [[], ["-5", "0", "1"]]], [1]),
    ])
    def test_specfact_poly_witness_is_exact(self, tmp_path, capsys, H, subset):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"kind": "poly", "H": H}))
        assert main(["specfact", "--poly", str(p)]) == 1
        (w,) = json.loads(capsys.readouterr().out)["witnesses"]
        assert w["subset"] == subset and w["reverified"] is True
        Hm = parse_polymat(H, "H")
        minor = Hm.submatrix(subset, subset).det().real_on_axis()
        assert minor(Fraction(w["w"])) == Fraction(w["value"]) < 0

    def test_specfact_poly_witness_that_fails_to_reverify_is_discrepancy(
            self, files, capsys, monkeypatch):
        # H = 4 - 2 s^2 is positive on the axis: a minor named negative
        # there must not read as a verdict on H
        monkeypatch.setattr(passlab.certificate, "_axis_violation",
                            lambda H: ((0,), None, Fraction(3)))
        assert main(["specfact", "--poly", files["density"]]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "discrepancy"
        assert "failed re-verification" in out["error"]

    def test_specfact_poly_axis_band_contradiction_inconclusive(self, tmp_path,
                                                                capsys):
        # H = 10^-24 - s^2 has H(jw) = 10^-24 + w^2 > 0 and the factor
        # 10^-12 + s, but the axis band tags its roots +-10^-12 as axis roots
        # of odd multiplicity: the exact and float views disagree
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"kind": "poly", "H": [[[
            "1/1000000000000000000000000", "0", "-1"]]]}))
        assert main(["specfact", "--poly", str(p)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "inconclusive"
        assert "exact PSD-on-axis premise holds" in out["error"]
        assert "-1e-12+0j, 1e-12+0j" in out["error"]

    @pytest.mark.parametrize("target, fake, message", [
        ("numeric_roots", lambda p: [], "root split is inconsistent"),
        ("_poly_spectral_check", lambda Z, H, tol: {"ok": False},
         "failed re-verification"),
    ])
    def test_specfact_poly_failed_float_step_is_discrepancy(
            self, files, capsys, monkeypatch, target, fake, message):
        monkeypatch.setattr(passlab.certificate, target, fake)
        assert main(["specfact", "--poly", files["density"]]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "discrepancy" and message in out["error"]

    def test_tolerance_flag_defaults_are_the_policy_defaults(self):
        args = build_parser().parse_args(["selftest"])
        assert (args.tol_axis, args.tol_psd, args.tol_residual) == \
            astuple(Tolerance())

    def test_input_errors_exit_2(self, files, capsys):
        assert main(["check-pair", files["bad"]]) == 2
        assert main(["check-pair", files["notjson"]]) == 2
        assert main(["check-pair", str(files["tmp"] / "missing.json")]) == 2

    def test_simulate_csv(self, files, capsys):
        rc = main(["simulate", "--ss", files["uncont"], "--input", "sin(t)",
                   "--x0", "0,0,-1", "--t1", str(math.pi), "--h", "0.01"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,u1,y1,x1")
        last = lines[-1].split(",")
        assert abs(float(last[0]) - math.pi) < 1e-9
        # -int u y over one period with the literal initial state
        assert abs(-float(last[-1]) - (math.pi / 2 - 2)) < 1e-4

    def test_simulate_bad_signal_exit_2(self, files):
        assert main(["simulate", "--ss", files["rc"], "--input", "tan(t)",
                     "--t1", "1.0"]) == 2

    def test_simulate_csv_to_file(self, files, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--ss", files["rc"], "--input", "cos(t)",
                     "--t1", "2.0", "--h", "0.01", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,u1,y1,x1,energy"
        assert len(lines) == 202  # header + 201 grid points

    def test_simulate_t1_equal_t0_prints_one_row(self, files, capsys):
        assert main(["simulate", "--ss", files["rc"], "--input", "sin(t)",
                     "--x0", "1", "--t0", "2", "--t1", "2", "--h", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,u1,y1,x1,energy"
        assert len(lines) == 2
        t, u, y, x, e = map(float, lines[1].split(","))
        assert (t, x, e) == (2.0, 1.0, 0.0)
        assert abs(u - math.sin(2.0)) < 1e-11 and abs(y - (1.0 + u)) < 1e-11

    def test_witness_flag_is_an_argparse_error(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-pair", files["good_pair"], "--witness"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --witness" in capsys.readouterr().err

    def test_cross_check_agrees(self, files, capsys):
        assert main(["check-pair", files["good_pair"], "--cross-check"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cross_check"]["agrees"] is True

    def test_text_format(self, files, capsys):
        assert main(["check-pair", files["good_pair"], "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out

    def test_selftest(self, files, monkeypatch):
        monkeypatch.setenv("PASSLAB_SEED", "7")
        assert main(["selftest"]) == 0

    def test_inconclusive_exit_3(self, files, tmp_path):
        a = "5/1000000000"
        # (s^2 + 2as + a^2+1)(s+1) and (same)(s): zeros straddle the band
        import json as _json
        from fractions import Fraction
        from passlab.poly import Poly
        from passlab.polymatrix import PolyMat
        from passlab.jsonio import polymat_json
        s = Poly.x()
        av = Fraction(a)
        g = s * s + 2 * av * s + (av * av + 1)
        doc = {"kind": "pair",
               "P": polymat_json(PolyMat([[g * (s + 1)]])),
               "Q": polymat_json(PolyMat([[g * s]]))}
        p = tmp_path / "nearaxis.json"
        p.write_text(_json.dumps(doc))
        assert main(["check-pair", str(p)]) == 3

    def test_near_axis_certify_exit_3(self, tmp_path, capsys):
        # exactly unstable (a = 1e-12 > 0) but float-indistinguishable from
        # the axis: inconclusive with both views reported, not a crash
        p = tmp_path / "near_axis.json"
        p.write_text(json.dumps({"kind": "ss", "A": [["1e-12"]], "B": [["1"]],
                                 "C": [["1"]], "D": [["1"]]}))
        assert main(["certify", str(p)]) == 3
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["status"] == "inconclusive"
        detail = out["pair_verdict"]["cond1"]["detail"]
        assert "not visible numerically" in detail and "w* = 0" in detail
        assert "Traceback" not in captured.err

    def test_near_axis_specfact_ss_exit_3(self, tmp_path, capsys):
        # G(0) + G(0)* = 2 (1 - 10^12) < 0 exactly, but no float witness
        # shows it: every route reports both views and refutes nothing
        p = tmp_path / "near_axis.json"
        p.write_text(json.dumps({"kind": "ss", "A": [["1e-12"]], "B": [["1"]],
                                 "C": [["1"]], "D": [["1"]]}))
        assert main(["check-pair", str(p)]) == 3
        pair = json.loads(capsys.readouterr().out)
        assert main(["certify", str(p)]) == 3
        cert = json.loads(capsys.readouterr().out)
        assert main(["specfact", "--ss", str(p)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": cert["message"], "status": "inconclusive",
                       "pair_verdict": cert["pair_verdict"]}
        assert cert["pair_verdict"] == pair
        detail = pair["cond1"]["detail"]
        assert "not visible numerically" in detail and "w* = 0" in detail

    def test_capacitor_factor_has_rank_0(self, tmp_path, capsys):
        # the lossless capacitor G = 1/s: G + G* = 0, as H = [[0]] is, so
        # both routes print a factor with no rows
        ss = tmp_path / "capacitor.json"
        ss.write_text(json.dumps({"kind": "ss", "A": [[0]], "B": [[1]],
                                  "C": [[1]], "D": [[0]]}))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"kind": "poly", "H": [[[]]]}))
        for argv in (["--ss", str(ss)], ["--poly", str(zero)]):
            assert main(["specfact"] + argv) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["rank"] == 0 and out["Z"]["num"] == []
            assert out["diagnostics"]["ok"]

    @pytest.mark.parametrize("D, code", [
        ([[1]], 0),                # static-resistor
        ([[1, 0], [0, 2]], 0),     # static-2port
        ([[-1]], 1),               # neg-resistor
    ])
    def test_static_systems_load(self, tmp_path, capsys, D, code):
        p = tmp_path / "static.json"
        p.write_text(json.dumps({"kind": "ss", "A": [], "B": [],
                                 "C": [[] for _ in D], "D": D}))
        assert main(["certify", str(p)]) == code

    def test_verify_cert_empty_L_W(self, files, tmp_path, capsys):
        import json as _json
        ss = tmp_path / "osc.json"
        ss.write_text(_json.dumps({"kind": "ss", "A": [[0, 1], [-1, 0]],
                                   "B": [[0], [1]], "C": [[0, 1]], "D": [[0]]}))
        cert = tmp_path / "osc_cert.json"
        cert.write_text(_json.dumps({"X": [[1, 0], [0, 1]], "L": [], "W": []}))
        assert main(["verify-cert", "--ss", str(ss), "--cert", str(cert)]) == 0


class TestDeterminism:
    def test_byte_identical_reports(self, files, capsys):
        main(["check-pair", files["uncont_pair"]])
        first = capsys.readouterr().out
        main(["check-pair", files["uncont_pair"]])
        second = capsys.readouterr().out
        assert first == second

    def test_certify_deterministic(self, files, capsys):
        main(["certify", files["rc"]])
        first = capsys.readouterr().out
        main(["certify", files["rc"]])
        second = capsys.readouterr().out
        assert first == second


# passive (C = B^T, A < 0, D = 1): the pair passes exactly, but its entries
# overflow the float kernels of the certificate
HUGE_SS = {"kind": "ss", "A": [["-1e300"]], "B": [["1e300"]],
           "C": [["1e300"]], "D": [["1"]]}


# the same system scaled to 1e-300: det(P+Q) has an axis-tagged zero with
# no negative direction, which condition 1 leaves undecided
TINY_SS = {"kind": "ss", "A": [["-1e-300"]], "B": [["1e-300"]],
           "C": [["1e-300"]], "D": [["1"]]}


class TestErrorExitCodes:
    def test_tiny_entries_are_inconclusive(self, tmp_path, capsys):
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(TINY_SS))
        assert main(["check-pair", str(p)]) == 3
        captured = capsys.readouterr()
        pair = json.loads(captured.out)
        assert main(["certify", str(p)]) == 3
        captured_cert = capsys.readouterr()
        cert = json.loads(captured_cert.out)
        assert pair["overall"] == "inconclusive"
        assert cert["status"] == "inconclusive"
        assert cert["pair_verdict"] == pair
        assert pair["cond1"] == {
            "detail": "no strictly negative direction at the closed-RHP zeros "
                      "of det(P+Q): -1e-300+0j (axis)",
            "status": "inconclusive"}
        assert "Traceback" not in captured.err + captured_cert.err

    def test_huge_entries_pass_exactly(self, tmp_path, capsys):
        # the zero of det(P + Q), of degree 1, is shown left of the axis
        # band on integers (a shift 2^j with j = 1968), so no float sees 1e300
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(HUGE_SS))
        assert main(["check-pair", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "pass"

    @pytest.mark.parametrize("argv, key", [
        (["certify"], "message"),
        (["specfact", "--ss"], "error"),
    ])
    def test_huge_entries_exit_3_without_traceback(self, tmp_path, capsys,
                                                   argv, key):
        # the pair passes, and the float construction overflows
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(HUGE_SS))
        assert main(argv + [str(p)]) == 3
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["status"] == "discrepancy"
        assert out["pair_verdict"]["overall"] == "pass"
        assert out[key].startswith("positive-real check passed but the "
                                   "construction failed")
        assert "Traceback" not in captured.err

    def test_invisible_rank_drop_is_inconclusive(self, tmp_path, capsys):
        # P = h (q s + 1), Q = h (s + 1), h = q s - q - 1, q = 2^31 - 1: the
        # exact minor gcd h vanishes at (q + 1)/q, where the float [P -Q]
        # has a row of norm about 1, so condition 2 is inconclusive
        q = 2**31 - 1
        S = Poly.x()
        h = q * S - q - 1
        coeffs = lambda p: [[[str(c) for c in p.coeffs]]]
        f = tmp_path / "wide.json"
        f.write_text(json.dumps({"kind": "pair", "P": coeffs(h * (q * S + 1)),
                                 "Q": coeffs(h * (S + 1))}))
        assert main(["check-pair", str(f)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "inconclusive"
        assert out["cond2"]["status"] == "inconclusive"
        assert "internal-error" not in json.dumps(out)

    def test_any_exception_is_reported(self, files, capsys, monkeypatch):
        import passlab.cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(passlab.cli, "check_pair", boom)
        assert main(["check-pair", files["good_pair"]]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "RuntimeError: boom", "status": "internal-error"}

    @pytest.mark.parametrize("flag", ["--tol-axis=-1", "--tol-psd=nan",
                                      "--tol-axis=inf", "--tol-psd=inf"])
    def test_bad_tolerance_is_input_error(self, files, capsys, flag):
        assert main(["check-pair", files["good_pair"], flag]) == 2
        assert "tolerances must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--t1", "1", "--h", "0"],
                                       ["--t1", "-1"],
                                       ["--t1", "inf"]])
    def test_bad_simulate_grid_is_input_error(self, files, extra):
        assert main(["simulate", "--ss", files["rc"], "--input", "sin(t)"]
                    + extra) == 2

    def test_overflowing_simulation_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "stiff.json"
        p.write_text(json.dumps({"kind": "ss", "A": [[-1e6]], "B": [[1]],
                                 "C": [[1]], "D": [[0]]}))
        assert main(["simulate", "--ss", str(p), "--input", "sin(t)",
                     "--h", "0.01", "--t1", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--h 0.01" in captured.err and "[0, 1]" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("cert", [
        {"X": [[1, 0], [0, 1]], "L": [[1, 1]], "W": [[1]]},  # wrong shape
        {"X": [[1], [1, 2]], "L": [], "W": []},              # ragged
        {"X": 1, "L": [], "W": []},
        {"X": [["1e400"]], "L": [], "W": []},
    ])
    def test_malformed_certificate_is_input_error(self, files, tmp_path, cert):
        p = tmp_path / "cert2.json"
        p.write_text(json.dumps(cert))
        assert main(["verify-cert", "--ss", files["rc"], "--cert", str(p)]) == 2

    @pytest.mark.parametrize("A", [[[1], 2], [["-1e400"]]])
    def test_malformed_state_space_is_input_error(self, tmp_path, A):
        p = tmp_path / "bad_ss.json"
        p.write_text(json.dumps({"kind": "ss", "A": A, "B": [[1]],
                                 "C": [[1]], "D": [[1]]}))
        assert main(["check-pair", str(p)]) == 2

    @pytest.mark.parametrize("argv", [["check-pair"], ["certify"], ["realize"],
                                      ["specfact", "--ss"],
                                      ["verify-cert", "--cert", None, "--ss"]])
    @pytest.mark.parametrize("doc", [
        {"kind": "ss", "A": [[-1]], "B": [[]], "C": [], "D": []},
        {"kind": "ss", "A": [], "B": [], "C": [], "D": []},
    ])
    def test_system_without_ports_is_input_error(self, tmp_path, capsys,
                                                 argv, doc):
        p = tmp_path / "no_ports.json"
        p.write_text(json.dumps(doc))
        cert = tmp_path / "cert0.json"
        cert.write_text(json.dumps({"X": [[1]] if doc["A"] else [],
                                    "L": [], "W": []}))
        argv = [str(cert) if a is None else a for a in argv]
        assert main(argv + [str(p)]) == 2
        captured = capsys.readouterr()
        assert "state-space system has no ports" in captured.err
        assert "Traceback" not in captured.err


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import contextlib, io, json, sys
from passlab.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy"),
                  "numpy": any(m in sys.modules
                               for m in ("numpy._core", "numpy.core"))}))
"""


def _fresh_run(argvs):
    """Exit codes, loaded scipy modules and whether numpy was loaded, of
    `argvs` run in order in one fresh interpreter.  A lazily imported numpy
    is in sys.modules before it loads, so its core module (numpy.core
    before numpy 2) is what shows the load."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout)
    return res["codes"], set(res["scipy"]), res["numpy"]


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["certify", "check-pair"])
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_reader_exits_3_without_traceback(self, files, command,
                                                      unbuffered):
        # the reader closes its end before the report is written, so every
        # write to stdout fails with EPIPE, buffered or not
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "passlab.cli", command, files["uncont"]],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 3
        assert err == ""


class TestLazyScipy:
    def test_import_loads_no_scipy(self):
        assert _fresh_run([])[:2] == ([], set())

    def test_exact_commands_load_no_scipy(self, files):
        codes, scipy, _ = _fresh_run([
            ["check-pair", files["good_pair"]],
            ["check-pair", files["rc"]],
            ["partition", files["transformer"]],
            ["decompose", files["good_pair"]],
            ["realize", files["rc"]],
            ["realize", files["good_pair"]],
            ["specfact", "--ss", files["rc"]],
        ])
        assert codes == [0] * 7
        assert scipy == set()

    def test_riccati_certify_loads_no_scipy(self, files):
        # D + D^T > 0: the Riccati route certifies, and verify-cert checks it
        codes, scipy, _ = _fresh_run([
            ["certify", files["rc"]],
            ["verify-cert", "--ss", files["rc"], "--cert", files["cert"]],
        ])
        assert codes == [0, 0]
        assert scipy == set()

    def test_certify_loads_linalg_only(self, files):
        # an axis mode: its lossless storage needs the spectral split
        cap = files["tmp"] / "capacitor.json"
        cap.write_text(json.dumps({"kind": "ss", "A": [[0]], "B": [[1]],
                                   "C": [[1]], "D": [[0]]}))
        codes, scipy, _ = _fresh_run([["certify", str(cap)]])
        assert codes == [0]
        assert "scipy.linalg" in scipy
        assert not any(m.startswith("scipy.integrate") for m in scipy)


class TestLazyNumpy:
    def test_import_loads_no_numpy(self):
        assert _fresh_run([]) == ([], set(), False)

    def test_exact_commands_load_no_numpy(self, files):
        codes, _, numpy = _fresh_run([
            ["check-pair", files["good_pair"]],
            ["check-pair", files["rc"]],
            ["partition", files["transformer"]],
            ["decompose", files["good_pair"]],
            ["realize", files["rc"]],
            ["realize", files["good_pair"]],
        ])
        assert codes == [0] * 6
        assert numpy is False

    @pytest.mark.parametrize("command, code", [
        (["check-pair", "uncont_pair"], 1),  # the witness is a float point
        (["certify", "rc"], 0),
        (["specfact", "--ss", "rc"], 0),
    ])
    def test_float_commands_load_numpy(self, files, command, code):
        # so that the test above cannot pass for want of a numpy probe
        codes, _, numpy = _fresh_run([command[:-1] + [files[command[-1]]]])
        assert codes == [code]
        assert numpy is True
