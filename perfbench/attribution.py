"""Where the time of a traced run went, from its spans file.

    python3 perfbench/attribution.py SPANS_JSON [--ops PREFIX] [--within NAME]

Considers the operations whose label starts with PREFIX (all by default) and
prints, per traced function, its inclusive time (outermost spans only, so
recursion is not counted twice) and its self time, each as a share of those
operations' total time.  With --within NAME, inclusive times count only what
runs inside NAME's spans, which splits one function's cost by caller.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def attribute(doc: dict, prefix: str = "", within: str | None = None) -> dict:
    tracer = Tracer()
    tracer.spans = doc["spans"]
    spans, selfs = tracer.spans, tracer.self_times()
    roots = {int(i) for i, label in doc["labels"].items() if label.startswith(prefix)}
    total = sum(spans[i][3] - spans[i][2] for i in roots)
    inclusive: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, parent, start, end) in enumerate(spans):
        chain, p = [], parent
        while p >= 0:
            chain.append(p)
            p = spans[p][1]
        if (chain[-1] if chain else i) not in roots:
            continue
        if within is not None and not any(spans[a][0] == within for a in chain):
            continue
        self_s[name] += selfs[i]
        if all(spans[a][0] != name for a in chain):
            inclusive[name] += end - start
    return {"ops": len(roots), "total_s": total,
            "rows": [(name, inclusive[name], self_s[name]) for name in
                     sorted(inclusive, key=inclusive.get, reverse=True)]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spans", type=Path)
    ap.add_argument("--ops", default="", help="operation label prefix")
    ap.add_argument("--within", help="count only time inside this span name")
    args = ap.parse_args()
    res = attribute(json.loads(args.spans.read_text()), args.ops, args.within)
    total = res["total_s"]
    print(f"{res['ops']} operations, {total:.4f} s")
    print(f"{'span':48s} {'incl s':>9s} {'incl':>6s} {'self s':>9s} {'self':>6s}")
    for name, incl, own in res["rows"]:
        print(f"{name:48s} {incl:9.4f} {incl / total:6.1%} {own:9.4f} {own / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
