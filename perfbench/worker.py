"""One measuring process: build a workload's inputs, warm up, run timed
passes, gate every result, and print one JSON summary as its last line.

Started by run.py in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  With --setup-only it prints "ready" once the inputs are built and
exits; run.py times that to get setup_s.

A pass runs every item once, in order; measurement stops at the first pass
boundary after --seconds, so every workload's mix of sizes is the same in
every run.  Reference chunks run between the operations, and each pass's
times are scaled to the reference host by the chunks' speed in that pass
(see reference.py).  A traced run (--trace 1) alternates untraced and traced passes
for --seconds; the per-layer metrics come from the traced ones, per pass.
Either way the workload's known-defect probe runs last, once and untimed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import Reference  # noqa: E402
from tracer import OUTCOMES, ROOT_SPAN, Tracer, layer_values  # noqa: E402
from workloads import (KNOWN, KNOWN_DEFECTS, RAISED, UNDECIDED, WORKLOADS,  # noqa: E402
                       WRONG, Outcome)

MIN_BEYOND = 10  # samples that must lie beyond the op_tail_s percentile


def cpu_seconds(external: bool) -> float:
    if external:
        t = os.times()
        return t.children_user + t.children_system
    return time.process_time()


def timed_op(item, tracer: Tracer | None) -> dict:
    cpu0 = cpu_seconds(item.external)
    t0 = time.perf_counter()
    try:
        with tracer.span(ROOT_SPAN, item.label) if tracer else nullcontext():
            raw = item.run(tracer)
        error = None
    except Exception as e:  # an operation that raised is counted, not fatal
        error = f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - t0
    cpu = cpu_seconds(item.external) - cpu0
    if error is not None:
        outcome = Outcome(RAISED, None, error)
    else:
        with tracer.paused() if tracer else nullcontext():
            outcome = item.check(raw)
    return {"label": item.label, "headline": item.headline, "latency": latency,
            "cpu": cpu, "kind": outcome.kind, "status": outcome.status,
            "detail": outcome.detail}


def run_pass(items, tracer: Tracer | None = None,
             ref: Reference | None = None) -> list[dict]:
    records = []
    for item in items:
        records.append(timed_op(item, tracer))
        if ref is not None:
            ref.top_up(records[-1]["latency"])
    return records


def calibrated_pass(items, ref: Reference) -> tuple[list[dict], list[dict]]:
    """One pass, as measured and scaled to the reference host by the speed
    of the reference chunks run in between its operations."""
    mark = len(ref.chunks)
    raw = run_pass(items, ref=ref)
    speed = ref.speed(mark)
    return raw, [{**r, "latency": r["latency"] * speed, "cpu": r["cpu"] * speed}
                 for r in raw]


def percentile(xs: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted samples: always one measured value,
    so a median never averages across the gap between two operation sizes."""
    return xs[max(math.ceil(pct / 100 * len(xs)) - 1, 0)]


def beyond(n: int, pct: int) -> int:
    """How many of n samples lie beyond their nearest-rank pct percentile."""
    return n - max(math.ceil(pct / 100 * n), 1)


def summarize(records: list, per_pass: int, tail_pct: int, external: bool) -> dict:
    """End-to-end metrics of whole passes of `per_pass` operations each.

    The host's speed drifts between runs and within one, so p50 and the
    largest-size latency are averaged over passes: a median across the whole
    run would report whichever speed held for most of it."""
    lat = [r["latency"] for r in records]
    pass_p50 = [percentile(sorted(lat[i:i + per_pass]), 50)
                for i in range(0, len(lat), per_pass)]
    top = [r["latency"] for r in records if r["headline"]]
    kinds = Counter(r["kind"] for r in records)
    n = len(records)
    rusage = resource.getrusage(resource.RUSAGE_CHILDREN if external
                                else resource.RUSAGE_SELF)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_s": statistics.fmean(pass_p50),
        "op_tail_s": percentile(sorted(lat), tail_pct),
        "max_size_op_s": statistics.fmean(top),
        "cpu_s_per_op": sum(r["cpu"] for r in records) / n,
        "fail_frac": (kinds[WRONG] + kinds[RAISED]) / n,
        "undecided_frac": kinds[UNDECIDED] / n,
        "decided_frac": 1.0 - kinds[UNDECIDED] / n,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }
    problems = Counter(f"{r['kind']}: {r['label']}: {r['detail']}"
                       for r in records if r["kind"] in (WRONG, RAISED))
    return {"metrics": metrics, "tail_pct": tail_pct,
            "tail_beyond": beyond(n, tail_pct), "samples": n,
            "kinds": dict(kinds), "problems": dict(problems),
            "ops": [[r["label"], r["latency"], r["cpu"], r["kind"]] for r in records]}


def run_probe(items) -> dict:
    """Each known-defect input once, untimed, through the same gate.  Raising
    one of KNOWN_DEFECTS is a hit; any other exception or wrong result counts
    as failed, as in the timed passes."""
    kinds, problems = Counter(), Counter()
    for item in items:
        r = timed_op(item, None)
        kind = r["kind"]
        if kind == RAISED and r["detail"] in KNOWN_DEFECTS:
            kind = KNOWN
        kinds[kind] += 1
        if kind in (KNOWN, WRONG, RAISED):
            problems[f"{kind}: {r['label']}: {r['detail']}"] += 1
    return {"probed": len(items), "kinds": dict(kinds), "problems": dict(problems)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measuring time; unused with --setup-only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True,
                    help="working directory for input files and spans")
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    items = wl.build(args.seed, args.work)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    external = items[0].external
    for item in wl.warmup(items):
        timed_op(item, None)

    start = time.perf_counter()
    if not args.trace:
        ref = Reference()
        records, raw = [], []
        # past --seconds, whole passes go on until op_tail_s has MIN_BEYOND
        # samples beyond it, so every run reports the same percentile
        while (not records or time.perf_counter() - start < args.seconds
               or beyond(len(records), wl.tail_pct) < MIN_BEYOND):
            measured, scaled = calibrated_pass(items, ref)
            raw += measured
            records += scaled
        out = summarize(records, len(items), wl.tail_pct, external)
        out["speed"] = ref.speed()
        out["as_measured"] = summarize(raw, len(items), wl.tail_pct, external)["metrics"]
        out["passes"] = len(records) // len(items)
        out["probe"] = run_probe(wl.probe(args.seed))
        print(json.dumps(out))
        return 0

    # untraced and traced passes alternate, so drift in host speed cancels
    # out of trace.overhead_frac
    plain, traced = [], []
    tracer = Tracer()
    while not traced or time.perf_counter() - start < args.seconds:
        plain += run_pass(items)
        if not external:
            tracer.install()
        try:
            traced += run_pass(items, tracer)
        finally:
            tracer.restore()
    out = summarize(plain + traced, len(items), wl.tail_pct, external)
    passes = len(traced) // len(items)
    # counts and times are per traced pass: every pass runs every item once,
    # so they do not depend on how many passes fitted into --seconds
    layers = layer_values(tracer, passes, len(items))
    statuses = Counter(r["status"] for r in traced)
    for status in OUTCOMES:
        layers[f"certificate.outcome.{status}.count"] = statuses[status] / passes
    layers["trace.overhead_frac"] = (sum(r["latency"] for r in traced)
                                     / sum(r["latency"] for r in plain) - 1.0)
    out["probe"] = run_probe(wl.probe(args.seed))
    layers["known_defect.count"] = out["probe"]["kinds"].get(KNOWN, 0)
    if args.spans:
        args.spans.write_text(json.dumps(tracer.export()))
    out.update(layers=layers, passes=passes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
