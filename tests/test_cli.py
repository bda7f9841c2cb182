import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from passlab.cli import main


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

    def test_specfact_poly(self, files, capsys):
        assert main(["specfact", "--poly", files["density"]]) == 0
        out = json.loads(capsys.readouterr().out)
        z = out["Z"]["num"][0][0]
        assert abs(z[1] - math.sqrt(2)) < 1e-9

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

    def test_witness_flag_includes_witnesses_on_pass(self, files, capsys):
        assert main(["check-pair", files["good_pair"], "--witness"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "witnesses" in out

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

    def test_near_axis_specfact_ss_exit_1(self, tmp_path, capsys):
        # G(0) + G(0)* = 2 (1 - 10^12) < 0: no spectral factor exists
        p = tmp_path / "near_axis.json"
        p.write_text(json.dumps({"kind": "ss", "A": [["1e-12"]], "B": [["1"]],
                                 "C": [["1"]], "D": [["1"]]}))
        assert main(["specfact", "--ss", str(p)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "not factorizable: fails PSD-on-axis premise "
                                "at w = 0", "status": "not-factorizable"}

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


# passive (C = B^T, A < 0, D = 1), but its entries overflow the float kernels
HUGE_SS = {"kind": "ss", "A": [["-1e300"]], "B": [["1e300"]],
           "C": [["1e300"]], "D": [["1"]]}


class TestErrorExitCodes:
    @pytest.mark.parametrize("argv, error", [
        (["check-pair"], "OverflowError: "),
        (["certify"], "OverflowError: "),
        (["specfact", "--ss"], "LinAlgError: "),
    ])
    def test_huge_entries_exit_3_without_traceback(self, tmp_path, capsys,
                                                   argv, error):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(HUGE_SS))
        assert main(argv + [str(p)]) == 3
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["status"] == "internal-error"
        assert out["error"].startswith(error)
        assert "Traceback" not in captured.err

    def test_any_exception_is_reported(self, files, capsys, monkeypatch):
        import passlab.cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(passlab.cli, "check_pair", boom)
        assert main(["check-pair", files["good_pair"]]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "RuntimeError: boom", "status": "internal-error"}

    @pytest.mark.parametrize("flag", ["--tol-axis=-1", "--tol-psd=nan"])
    def test_bad_tolerance_is_input_error(self, files, capsys, flag):
        assert main(["check-pair", files["good_pair"], flag]) == 2
        assert "tolerances must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--t1", "1", "--h", "0"],
                                       ["--t1", "-1"],
                                       ["--t1", "inf"]])
    def test_bad_simulate_grid_is_input_error(self, files, extra):
        assert main(["simulate", "--ss", files["rc"], "--input", "sin(t)"]
                    + extra) == 2

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
                                  if m.split(".")[0] == "scipy")}))
"""


def _fresh_run(argvs):
    """Exit codes and loaded scipy modules of `argvs`, run in order in one
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout)
    return res["codes"], set(res["scipy"])


class TestLazyScipy:
    def test_import_loads_no_scipy(self):
        assert _fresh_run([]) == ([], set())

    def test_exact_commands_load_no_scipy(self, files):
        codes, scipy = _fresh_run([
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

    def test_certify_loads_linalg_only(self, files):
        codes, scipy = _fresh_run([["certify", files["rc"]]])
        assert codes == [0]
        assert "scipy.linalg" in scipy
        assert not any(m.startswith("scipy.integrate") for m in scipy)
