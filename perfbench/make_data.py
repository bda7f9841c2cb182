"""Regenerate the benchmark's committed inputs under perfbench/data/.

    PYTHONPATH=src python3 perfbench/make_data.py

Needs the repository's tests/ directory (for the fixture corpus and the
random-pair generator).  Writes:

* data/corpus.json: the 30 fixture systems of tests/conftest.corpus(), exact
  entries as "num/den" strings, each with its ground truth (the first 20 are
  passive, the last 10 are not).
* data/pairs.json: a pool of random full-rank pairs, n = 2..4, with the
  verdict passlab gives each today.  Runs draw their random pairs from this
  pool and must reproduce the recorded verdict.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
PAIRS_PER_SIZE = 16
PAIR_SIZES = (2, 3, 4)
PAIR_MAX_DEG = 2
PASSIVE_CORPUS = 20  # tests/conftest.corpus() lists its passive members first


def grid_json(rows) -> list:
    return [[str(x) for x in row] for row in rows]


def poly_json(p) -> list:
    return [str(c) for c in p.coeffs] or ["0"]


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from passlab import check_pair
    from tests.conftest import corpus, rand_fullrank_pair

    systems = [{"name": name, "passive": i < PASSIVE_CORPUS,
                "A": grid_json(ss.A_exact), "B": grid_json(ss.B_exact),
                "C": grid_json(ss.C_exact), "D": grid_json(ss.D_exact)}
               for i, (name, ss) in enumerate(corpus())]
    pairs = []
    for n in PAIR_SIZES:
        rng = random.Random(1000 + n)
        for _ in range(PAIRS_PER_SIZE):
            P, Q = rand_fullrank_pair(rng, n, PAIR_MAX_DEG)
            v = check_pair(P, Q)
            pairs.append({
                "n": n,
                "P": [[poly_json(P[i, j]) for j in range(n)] for i in range(n)],
                "Q": [[poly_json(Q[i, j]) for j in range(n)] for i in range(n)],
                "verdict": [v.cond1.status, v.cond2.status, v.cond3.status]})
    DATA.mkdir(exist_ok=True)
    for name, doc in (("corpus.json", systems), ("pairs.json", pairs)):
        (DATA / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
