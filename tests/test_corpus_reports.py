"""Golden reports: the CLI output on the fixture corpus must not change.

`tests/data/corpus_reports.json` holds stdout and the exit code of
`passlab.cli.main` for `certify`, `check-pair`, `realize` and
`specfact --ss` on the 30 `conftest.corpus()` systems, and for `decompose`
and `partition` on the 30 pairs that `realize` prints for them.  A change
that alters any report on purpose regenerates the file, from the repo root:

    PYTHONPATH=src python tests/test_corpus_reports.py

which rewrites `tests/data/corpus_reports.json` and lists the changed keys,
grouped by command, on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from conftest import corpus

from passlab.certificate import construct_certificate
from passlab.cli import main
from passlab.jsonio import frac_str

GOLDEN = pathlib.Path(__file__).parent / "data" / "corpus_reports.json"

SS_COMMANDS = (["certify"], ["check-pair"], ["realize"], ["specfact", "--ss"])
PAIR_COMMANDS = (["decompose"], ["partition"])


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _write_ss(workdir, name, ss) -> pathlib.Path:
    """ss as an exact state-space document in workdir."""
    path = pathlib.Path(workdir) / f"{name}.ss.json"
    doc = {"kind": "ss"}
    for key, grid in zip("ABCD", (ss.A_exact, ss.B_exact,
                                  ss.C_exact, ss.D_exact)):
        doc[key] = [[frac_str(x) for x in row] for row in grid]
    path.write_text(json.dumps(doc))
    return path


def corpus_reports(workdir) -> dict:
    """Map "<command> <system>" to {"exit": code, "stdout": text}."""
    workdir = pathlib.Path(workdir)
    reports = {}
    for name, ss in corpus():
        ss_path = _write_ss(workdir, name, ss)
        for cmd in SS_COMMANDS:
            reports[f"{' '.join(cmd)} {name}"] = _run(cmd + [str(ss_path)])
        pair_path = workdir / f"{name}.pair.json"
        pair_path.write_text(reports[f"realize {name}"]["stdout"])
        for cmd in PAIR_COMMANDS:
            reports[f"{' '.join(cmd)} {name}"] = _run(cmd + [str(pair_path)])
    return reports


def test_corpus_reports_unchanged(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    reports = corpus_reports(tmp_path)
    assert sorted(reports) == sorted(golden)
    changed = [key for key in golden if reports[key] != golden[key]]
    assert not changed, changed


def test_specfact_ss_prints_the_certificate_factor(tmp_path):
    """On a certified system, `specfact --ss` prints the certificate's Z,
    the row count of its L as the rank, and its spectral fields."""
    certified = 0
    for name, ss in corpus():
        res = construct_certificate(ss)
        if res.status != "certified":
            continue
        path = str(_write_ss(tmp_path, name, ss))
        fact = json.loads(_run(["specfact", "--ss", path])["stdout"])
        cert = json.loads(_run(["certify", path])["stdout"])["certificate"]
        assert fact == {
            "Z": cert["Z"], "rank": res.certificate.L.shape[0],
            "diagnostics": {k: cert["spectral"][k]
                            for k in ("factor_residual", "full_rank_rhp", "ok")}
        }, name
        certified += 1
    assert certified == 20


def test_specfact_ss_exits_as_certify_with_witnesses():
    """`specfact --ss` exits as `certify` does on every corpus system, and
    each exit 1 carries the pair verdict's re-verified witnesses; read from
    the golden reports, which test_corpus_reports_unchanged holds to the
    live output."""
    golden = json.loads(GOLDEN.read_text())
    refuted = 0
    for name, _ in corpus():
        report = golden[f"specfact --ss {name}"]
        assert report["exit"] == golden[f"certify {name}"]["exit"], name
        if report["exit"] == 1:
            witnesses = json.loads(report["stdout"])["pair_verdict"]["witnesses"]
            assert witnesses and all(w["reverified"] for w in witnesses), name
            refuted += 1
    assert refuted == 10


def regenerate() -> None:
    """Rewrite GOLDEN; print its changed keys, grouped by command, to stderr,
    with the exit code where that changed too."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        reports = corpus_reports(work)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    changed: dict[str, list[str]] = {}
    for key in sorted(set(old) | set(reports)):
        was, now = old.get(key), reports.get(key)
        if was == now:
            continue
        command, _, name = key.rpartition(" ")
        codes = [r["exit"] if r else None for r in (was, now)]
        if codes[0] != codes[1]:
            name += f" (exit {codes[0]} -> {codes[1]})"
        changed.setdefault(command, []).append(name)
    for command, names in changed.items():
        print(f"{command} ({len(names)}): {', '.join(names)}", file=sys.stderr)
    print(f"{sum(map(len, changed.values()))} of {len(reports)} reports changed",
          file=sys.stderr)


if __name__ == "__main__":
    regenerate()
