"""passlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the sources under src/ and needs
nothing built.  Workloads, metrics and bounds are listed in BENCHMARK.json;
perfbench/README.md explains them.

With --trace 0 it reports the end-to-end metrics: set-up is timed over
several fresh worker interpreters (median, scaled to the reference host of
reference.py), then one worker measures whole passes over the workload for S
seconds.  Either way the worker then runs the workload's known-defect probe
once, untimed (see workloads.py); its hits are printed and recorded, and only
its other failures count in `failed`.  With --trace 1 it reports the
per-layer metrics from a traced worker, plus interpreter and import probes.
Metric lines go to stdout first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  The full record (environment,
tail percentile, failures, the host's speed and the times as measured before
scaling to the reference host) goes to .perfbench/results/, and a traced run's
spans next to it.  Exits non-zero, printing no result, when passlab's
sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 3  # timed set-ups per run, after one untimed
SETUP_REF_SHARE = 0.25  # reference chunks per second of set-up
PROBE_REPEATS = 3
WORKER_TIMEOUT_S = 150
PINNED_THREADS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def time_setup(cmd: list[str], env: dict) -> float:
    """Fresh interpreter until the worker reports its inputs built."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up worker failed with exit code {proc.returncode}")
    return elapsed


def importtime_split(stderr: str) -> tuple[float, float]:
    """(import passlab, outermost scipy imports) in seconds, from -X importtime."""
    passlab_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    # lines are in post-order; reversed, each module follows its importer
    for line in reversed(stderr.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or not parts[1].strip().isdigit():
            continue
        cumulative, field = int(parts[1]), parts[2]
        depth, name = len(field) - len(field.lstrip()), field.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "passlab":
            passlab_us = cumulative
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for _, n in stack):
            scipy_us += cumulative
        stack.append((depth, name))
    return passlab_us / 1e6, scipy_us / 1e6


def probes(env: dict) -> dict[str, float]:
    """Bare interpreter start and passlab import cost, as a CLI call pays them."""
    starts, imports, scipys = [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import passlab"],
                              env=env, capture_output=True, text=True, check=True)
        passlab_s, scipy_s = importtime_split(proc.stderr)
        imports.append(passlab_s)
        scipys.append(scipy_s)
    return {"cli.interp_start_s": statistics.median(starts),
            "cli.import_s": statistics.median(imports),
            "cli.import_scipy_s": statistics.median(scipys)}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu}


def run(args, bench: dict, env: dict, work: Path, results: Path) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--work", str(work)]
    extra = {}
    if args.trace:
        extra = probes(env)
    else:
        time_setup(base + ["--setup-only"], env)  # untimed: warms the file cache
        ref, setups = Reference(SETUP_REF_SHARE), []
        for _ in range(SETUP_REPEATS):
            t = time_setup(base + ["--setup-only"], env)
            mark = len(ref.chunks)
            ref.top_up(t)
            setups.append((t, t * ref.speed(mark)))
        # scaled to the reference host by the chunks run after each set-up
        extra["setup_s"] = statistics.median(scaled for _, scaled in setups)
        extra["setup_s_as_measured"] = statistics.median(t for t, _ in setups)
    spans = results / f"{tag}-spans.json"
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {**out["layers"], **extra} if args.trace else {**out["metrics"], **extra}
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    kinds, probe = out["kinds"], out["probe"]
    wrong = kinds.get("wrong", 0) + probe["kinds"].get("wrong", 0)
    failed = wrong + kinds.get("raised", 0) + probe["kinds"].get("raised", 0)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "passes": out["passes"],
        "samples": out["samples"], "op_tail_pct": out["tail_pct"],
        "op_tail_beyond": out["tail_beyond"],
        "outcomes": kinds, "problems": out["problems"], "probe": probe,
        "end_to_end_all": out["metrics"], "extra": extra,
        "host_speed": out.get("speed"), "as_measured": out.get("as_measured"),
        "warnings": proc.stderr[-4000:], "ops": out["ops"],
        "result": {"correct": wrong == 0,
                   "attempted": out["samples"] + probe["probed"], "failed": failed,
                   "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                               for m in declared}},
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "passlab" / "__init__.py").is_file():
        print(f"perfbench: no passlab sources under {src}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(src),
           "PYTHONHASHSEED": "0"}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        record = run(args, bench, env, work, results)
    except (BenchError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_info = record["environment"]
    print(f"# {args.workload} seed={args.seed} passes={record['passes']} "
          f"samples={record['samples']} op_tail_s=p{record['op_tail_pct']} "
          f"({record['op_tail_beyond']} beyond) "
          f"outcomes={record['outcomes']}")
    print("# " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    if not args.trace:
        print(f"# this host ran at {record['host_speed']:.3f} of the reference "
              f"host's speed")
        measured = {"setup_s": record["extra"]["setup_s_as_measured"]}
        measured.update((k, record["as_measured"][k]) for k in (
            "ops_per_s", "op_p50_s", "op_tail_s", "max_size_op_s", "cpu_s_per_op"))
        print("# as measured, before scaling to the reference host: "
              + " ".join(f"{k}={v:.6g}" for k, v in measured.items()))
    probe = record["probe"]
    if probe["probed"]:
        print(f"# known-defect probe, untimed: {probe['probed']} inputs, "
              f"outcomes={probe['kinds']}")
    for problem, count in sorted({**record["problems"], **probe["problems"]}.items()):
        print(f"# {count} x {problem}")
    shown = record["end_to_end_all"] if not args.trace else {}
    for name, m in record["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in shown.items():
        if name not in record["result"]["metrics"]:
            print(f"{name} = {value:.6g} (not bounded)")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
