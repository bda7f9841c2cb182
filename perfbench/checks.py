"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/checks.py

Spans nest and self times add up to the root span; every wrapper is
restored; inputs are deterministic per seed; tiny runs pass the correctness
gate and end with the documented JSON result line.  Named so that a plain
`pytest` over the repository does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class StepClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _tree_sums(t: tr.Tracer) -> list[tuple[float, float]]:
    """(root duration, sum of self times in its tree) for every root span."""
    selfs = t.self_times()
    root_of = []
    for name, parent, _, _ in t.spans:
        root_of.append(root_of[parent] if parent >= 0 else len(root_of))
    sums = {}
    for i, r in enumerate(root_of):
        sums[r] = sums.get(r, 0.0) + selfs[i]
    return [(t.spans[r][3] - t.spans[r][2], s) for r, s in sums.items()]


def _bindings(obj) -> list[tuple[object, str]]:
    return [(ns, attr) for ns in tr._passlab_namespaces()
            for attr, val in list(vars(ns).items()) if val is obj]


def test_synthetic_spans_nest_and_self_times_add_up():
    t = tr.Tracer(clock=StepClock())
    with t.span("op", "x"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    assert [s[1] for s in t.spans] == [-1, 0, 1, 0]
    assert t.self_times() == [3.0, 2.0, 1.0, 1.0]
    assert _tree_sums(t) == [(7.0, 7.0)]
    assert t.labels == {0: "x"}


def test_traced_passlab_spans_nest_and_add_up():
    import passlab

    t = tr.Tracer()
    t.install()
    try:
        for a in (-1, 2):
            with t.span(tr.ROOT_SPAN):
                ss = passlab.StateSpace.from_arrays([[a]], [[1]], [[1]], [[1]])
                passlab.construct_certificate(ss)
    finally:
        t.restore()
    names = {s[0] for s in t.spans}
    assert {"certificate.construct_certificate", "prpair.check_pair",
            "polymatrix.row_echelon", "perfbench.hook"} <= names
    for name, parent, start, end in t.spans:
        assert start <= end
        if parent >= 0:
            assert t.spans[parent][2] <= start and end <= t.spans[parent][3]
    assert all(s >= -1e-9 for s in t.self_times())
    sums = _tree_sums(t)
    assert len(sums) == 2
    for dur, total in sums:
        assert total == pytest.approx(dur, rel=1e-9, abs=1e-12)
    assert t.counts["poly.Poly.__mul__"] > 0
    values = tr.layer_values(t, 1, 2)
    assert values["polymatrix.row_echelon.max_coeff_bits"] > 0
    assert values["prpair.axis_psd.calls_per_op"] > 0


def test_every_binding_is_wrapped_then_restored():
    import passlab.cli  # noqa: F401  (loads every layer)

    targets = tr.SPAN_TARGETS + tr.COUNT_TARGETS
    before = {t: (tr.resolve(t), _bindings(tr.resolve(t))) for t in targets}
    assert all(binds for _, binds in before.values())
    t = tr.Tracer()
    t.install()
    try:
        for orig, binds in before.values():
            for ns, attr in binds:
                assert vars(ns)[attr] is not orig
                assert vars(ns)[attr].__wrapped__ is orig
    finally:
        t.restore()
    for orig, binds in before.values():
        for ns, attr in binds:
            assert vars(ns)[attr] is orig
    from passlab.poly import Poly
    assert Poly.__rmul__ is Poly.__mul__
    assert len(_bindings(tr.resolve("numeric.roots"))) >= 4  # roots and numeric_roots


def test_generators_are_deterministic_per_seed(tmp_path):
    for name, w in wl.WORKLOADS.items():
        first = [it.inputs for it in w.build(7, tmp_path / "a")]
        again = [it.inputs for it in w.build(7, tmp_path / "a")]
        other = [it.inputs for it in w.build(8, tmp_path / "b")]
        assert first == again, name
        assert first != other, name
        assert sum(it.headline for it in w.build(7, tmp_path / "a")) >= 1, name
        assert [it.inputs for it in w.probe(7)] == [it.inputs for it in w.probe(7)], name


def test_corpus_data_matches_the_fixture():
    conftest = ROOT / "tests" / "conftest.py"
    if not conftest.is_file():
        pytest.skip("tests/conftest.py not present")
    sys.path.insert(0, str(ROOT))
    from tests.conftest import corpus

    data = json.loads((HERE / "data" / "corpus.json").read_text())
    fixture = corpus()
    assert [r["name"] for r in data] == [name for name, _ in fixture]
    for rec, (_, ss) in zip(data, fixture):
        for k in "ABCD":
            assert [[Fraction(x) for x in row] for row in rec[k]] == \
                [list(row) for row in getattr(ss, f"{k}_exact")]


def test_small_items_pass_the_gate(tmp_path, monkeypatch):
    """Smallest items of every workload: no result contradicts the truth."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # CLI calls run elsewhere
    for name, w in wl.WORKLOADS.items():
        items = w.build(3, tmp_path / name)
        small = min(it.size for it in items)
        records = [worker.timed_op(it, None) for it in items if it.size == small]
        assert records, name
        assert all(r["kind"] in (wl.OK, wl.UNDECIDED) for r in records), \
            (name, [r for r in records if r["kind"] not in (wl.OK, wl.UNDECIDED)])


def test_probe_counts_only_the_known_defects_as_hits():
    """The near-axis probe hits the known defect and nothing else; any other
    exception, or a wrong result, still counts as failed."""
    out = worker.run_probe(wl.near_axis_probe(3))
    assert out["probed"] == 2 * len(wl.NEAR_AXIS_EXPONENTS)
    assert out["kinds"].get(wl.KNOWN, 0) >= 1
    assert set(out["kinds"]) <= {wl.OK, wl.KNOWN}

    def raises(_tracer):
        raise AssertionError("something else")

    other = wl.Item("other", 1, raises, lambda raw: wl.Outcome(wl.OK), "")
    wrong = wl.Item("wrong", 1, lambda _t: None, lambda raw: wl.Outcome(wl.WRONG), "")
    assert worker.run_probe([other, wrong])["kinds"] == {wl.RAISED: 1, wl.WRONG: 1}


def test_samples_beyond_the_tail_percentile():
    xs = [float(i) for i in range(1, 41)]
    assert worker.percentile(xs, 75) == 30.0
    assert worker.beyond(40, 75) == 10
    assert worker.beyond(30, 66) == 10
    assert worker.beyond(29, 66) == 9
    assert worker.beyond(1, 50) == 0


def test_reference_scales_to_the_reference_host():
    ref = reference.Reference()
    ref.top_up(0.2)
    assert sum(ref.chunks) >= reference.REF_SHARE * 0.2
    ref.chunks = [reference.REF_NOMINAL_S] * 3 + [2 * reference.REF_NOMINAL_S] * 2
    assert ref.speed(3) == 0.5
    assert ref.speed() == pytest.approx(5 / 7)
    assert reference.Reference().speed() == 1.0


def _traced_worker(tmp_path: Path, seconds: float) -> dict:
    env = {**os.environ, **run.PINNED_THREADS, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "corpus-certify",
         "--seed", "3", "--seconds", str(seconds), "--trace", "1",
         "--work", str(tmp_path / f"work-{seconds}")],
        env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_per_layer_counts_do_not_depend_on_run_length(tmp_path):
    """Counts are per traced pass, so a longer run reports the same ones."""
    short, long = _traced_worker(tmp_path, 0), _traced_worker(tmp_path, 4)
    assert short["passes"] == 1 < long["passes"]
    counted = [name for name, unit in tr.per_layer_units().items()
               if unit.startswith("count")]
    assert {k: short["layers"][k] for k in counted} == \
        {k: long["layers"][k] for k in counted}
    assert short["layers"]["certificate.construct_certificate.calls"] == 30
    assert short["layers"]["known_defect.count"] == long["layers"]["known_defect.count"] > 0


def test_importtime_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.linalg._x",
        "import time:        40 |         45 |     scipy.linalg",
        "import time:         7 |        100 |   passlab.numeric",
        "import time:         3 |        110 | passlab",
    ])
    assert run.importtime_split(stderr) == (110e-6, 75e-6)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    units = tr.per_layer_units()
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(units.items())
    summary = worker.summarize(
        [{"latency": 1.0, "cpu": 1.0, "kind": wl.OK, "headline": True, "label": "x",
          "detail": "", "status": None}], 1, 50, external=False)
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert "setup_s" in e2e and e2e - {"setup_s"} <= set(summary["metrics"])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "corpus-certify",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
