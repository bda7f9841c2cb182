"""The four seeded workloads: inputs, the timed operation, the correctness gate.

Every workload is a closed loop: one process, one operation at a time.  An
operation's inputs come only from the seed (and the committed data under
data/).  Each `Item` has a timed `run` and an untimed `check` that compares
the result with ground truth known by construction, or with the committed
reference verdict, and re-verifies every certificate and witness.

The inputs that hit passlab's known axis-witness defect (KNOWN_DEFECTS) are
not timed: they form a workload's known-defect probe, which every run
executes once, untimed, after its timed passes, through the same gate.

passlab is imported inside the build functions, so the cli-cold worker, which only
starts `python -m passlab.cli` processes, never imports it itself.  Timed code
calls passlab through module attributes, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
SHIM = HERE / "cli_shim.py"

OK, UNDECIDED, WRONG, RAISED = "ok", "undecided", "wrong", "raised"
KNOWN = "known-defect"  # a probe input raised one of KNOWN_DEFECTS

# check_condition1 finds an exact axis violation at w*, then re-checks it in
# floats at s = jw*.  Near the axis the float test sees nothing; at the Cauchy
# bound (|w*| ~ 1e14..1e20) Phi(jw*) overflows.  Either way it raises one of:
KNOWN_DEFECTS = (
    "AssertionError: exact axis violation not visible numerically",
    "AssertionError: axis witness failed re-verification",
)

SIM_T1, SIM_H = 5.0, 0.01  # 500 RK4 steps per simulated system
SISO_DIMS = range(4, 9)
# systems per d.  As many lie below d = 6 as above it, so the median operation
# is a d = 6 system; seven there make op_p50_s the median of seven systems'
# costs, which varies less with the seed than one of three
SISO_COUNTS = {4: 3, 5: 3, 6: 7, 7: 3, 8: 3}
SISO_TOP = 3  # entries p/q with |p|, q <= SISO_TOP
SISO_PROBE_PER_DIM = 3  # D = -1 siblings per d in the known-defect probe
NPORT_SIZES = range(2, 6)
NEAR_AXIS_EXPONENTS = range(6, 15)


@dataclass(frozen=True)
class Outcome:
    kind: str  # ok | undecided | wrong | raised
    status: str | None = None  # construct_certificate status, when one ran
    detail: str = ""


@dataclass(frozen=True)
class Item:
    label: str
    size: int  # state order d, or port count n
    run: Callable  # run(tracer or None) -> raw result; this is what is timed
    check: Callable[[object], Outcome]  # untimed correctness gate
    inputs: str  # canonical text of the operation's inputs
    headline: bool = False  # counts toward max_size_op_s
    external: bool = False  # runs in a child process


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list]
    warmup: Callable[[list], list]
    tail_pct: int  # op_tail_s percentile; a run goes on until 10 samples lie beyond it
    probe: Callable[[int], list] = lambda seed: []  # known-defect inputs, untimed


# -- shared gates --------------------------------------------------------------


def _witness_outcome(witnesses, status: str | None) -> Outcome:
    if not witnesses:
        return Outcome(WRONG, status, "negative verdict without a witness")
    if not all(w.reverified for w in witnesses):
        return Outcome(WRONG, status, "witness not re-verified")
    return Outcome(OK, status)


def certify_outcome(ss, passive: bool, res) -> Outcome:
    """Gate for one construct_certificate result against the known truth."""
    import passlab
    from passlab.certificate import CertificateVerificationError

    if res.status == "certified":
        if not passive:
            return Outcome(WRONG, res.status, "certified a non-passive system")
        c = res.certificate
        try:
            again = passlab.verify_certificate(ss, c.X, c.L, c.W)
        except CertificateVerificationError as e:
            return Outcome(WRONG, res.status, f"re-verification failed: {e}")
        if again.spectral is not None and not again.spectral["ok"]:
            return Outcome(WRONG, res.status, "Z is not a spectral factor")
        return Outcome(OK, res.status)
    if res.status == "not-passive":
        if passive:
            return Outcome(WRONG, res.status, "refuted a passive system")
        return _witness_outcome(res.verdict.all_witnesses(), res.status)
    return Outcome(UNDECIDED, res.status, res.message)


def _ss(A, B, C, D):
    import passlab
    return passlab.StateSpace.from_arrays(A, B, C, D)


def _ss_text(ss) -> str:
    return repr((ss.A_exact, ss.B_exact, ss.C_exact, ss.D_exact))


def _rat(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


# -- corpus-certify --------------------------------------------------------------


def _corpus_item(label: str, ss, passive: bool, rng: random.Random) -> Item:
    import passlab

    x0 = [rng.uniform(-1.0, 1.0) for _ in range(ss.d)]
    exprs = [f"{rng.uniform(0.5, 2.0):.4f}*sin({rng.uniform(0.5, 3.0):.4f}t)"
             for _ in range(ss.n)]

    def run(_tracer):
        res = passlab.construct_certificate(ss)
        sc = None
        if ss.d:  # every dynamic system is simulated; certified ones also checked
            u = [passlab.parse_signal(e) for e in exprs]
            traj = passlab.simulate(ss, x0, u, 0.0, SIM_T1, SIM_H)
            if res.status == "certified":
                c = res.certificate
                sc = passlab.storage_check(ss, c.X, c.L, c.W, traj)
        return res, sc

    def check(out):
        res, sc = out
        o = certify_outcome(ss, passive, res)
        if o.kind == OK and sc is not None and not sc.ok:
            return Outcome(WRONG, res.status, f"storage check failed: {sc}")
        return o

    return Item(label, ss.d, run, check, f"{_ss_text(ss)} x0={x0} u={exprs}")


def build_corpus(seed: int, _work: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for rec in json.loads((DATA / "corpus.json").read_text()):
        ss = _ss(*([[Fraction(x) for x in row] for row in rec[k]] for k in "ABCD"))
        items.append(_corpus_item(rec["name"], ss, rec["passive"], rng))
    top = max(it.size for it in items)
    return [Item(it.label, it.size, it.run, it.check, it.inputs, headline=it.size == top)
            for it in items]


def near_axis_probe(seed: int) -> list[Item]:
    """The near-axis stratum: A = [[a]], B = C = D = 1, |a| = m * 10^-e with
    m in [1, 10); passive iff a < 0.  For 0 < a <~ 1e-10 it raises the first
    of KNOWN_DEFECTS."""
    rng = random.Random(seed)
    items = []
    for e in NEAR_AXIS_EXPONENTS:
        for sign in (1, -1):
            a = sign * Fraction(rng.randint(100, 999), 100) / 10 ** e
            items.append(_corpus_item(f"near-axis a={float(a):+.2e}",
                                      _ss([[a]], [[1]], [[1]], [[1]]), sign < 0, rng))
    return items


# -- siso-sweep ---------------------------------------------------------------------


def _siso_item(ss, d: int, feed: int, rep: int) -> Item:
    import passlab

    def run(_tracer):
        return passlab.construct_certificate(ss)

    return Item(f"siso d={d} D={feed:+d} #{rep}", d, run,
                lambda res: certify_outcome(ss, feed > 0, res), _ss_text(ss),
                headline=d == SISO_DIMS[-1] and feed > 0)


def _siso_systems(seed: int, feed: int, per_dim: dict[int, int]) -> list[Item]:
    """A = -(M M^T + I) + S - S^T, C = B^T: passive with D = 1 (X = I solves
    the KYP inequality); the D = -1 sibling has G + G* -> -2, so it is not.
    The first per_dim[d] systems at each d, with D = feed."""
    rng = random.Random(seed)
    items = []
    for d in SISO_DIMS:
        for rep in range(SISO_COUNTS[d]):
            M = [[_rat(rng, SISO_TOP) for _ in range(d)] for _ in range(d)]
            S = [[_rat(rng, SISO_TOP) for _ in range(d)] for _ in range(d)]
            B = [[_rat(rng, SISO_TOP)] for _ in range(d)]
            if rep >= per_dim[d]:
                continue
            A = [[-(sum(M[i][k] * M[j][k] for k in range(d)) + (i == j))
                  + S[i][j] - S[j][i] for j in range(d)] for i in range(d)]
            C = [[B[i][0] for i in range(d)]]
            items.append(_siso_item(_ss(A, B, C, [[feed]]), d, feed, rep))
    return items


def build_siso(seed: int, _work: Path) -> list[Item]:
    return _siso_systems(seed, 1, SISO_COUNTS)


def sibling_probe(seed: int) -> list[Item]:
    """The D = -1 siblings of the first SISO_PROBE_PER_DIM systems at each d.
    Their exact witness w* sits at the Cauchy bound, where Phi(jw*) overflows
    in floats, and one of KNOWN_DEFECTS is raised: on most seeds at d = 7..8,
    on some at d = 6."""
    return _siso_systems(seed, -1, {d: SISO_PROBE_PER_DIM for d in SISO_DIMS})


# -- nport-pairs ---------------------------------------------------------------------


def _chain_item(label: str, ss, headline: bool) -> Item:
    """realize_behavior -> check_pair -> passive_partition -> realize_statespace
    -> construct_certificate on a system that is passive by construction."""
    import passlab

    def run(_tracer):
        P, Q = passlab.realize_behavior(ss)
        verdict = passlab.check_pair(P, Q)
        if verdict.overall != "pass":
            return verdict, None, None
        part = passlab.passive_partition(P, Q, verdict=verdict)
        ss2 = passlab.realize_statespace(part.Pio, part.Qio)
        return verdict, ss2, passlab.construct_certificate(ss2)

    def check(out):
        verdict, ss2, res = out
        if verdict.overall == "fail":
            return Outcome(WRONG, None, "pair of a passive system refuted")
        if res is None:
            return Outcome(UNDECIDED, None, "pair verdict inconclusive")
        return certify_outcome(ss2, True, res)

    return Item(label, ss.n, run, check, _ss_text(ss), headline=headline)


def _pair_item(rec: dict) -> Item:
    import passlab

    n = rec["n"]
    P, Q = (passlab.PolyMat([[passlab.Poly([Fraction(c) for c in e]) for e in row]
                             for row in rec[k]]) for k in "PQ")
    want = tuple(rec["verdict"])

    def run(_tracer):
        return passlab.check_pair(P, Q)

    def check(v):
        got = (v.cond1.status, v.cond2.status, v.cond3.status)
        if got != want:
            return Outcome(WRONG, None, f"verdict {got}, reference {want}")
        if v.overall == "fail":
            return _witness_outcome(v.all_witnesses(), None)
        return Outcome(OK if v.overall == "pass" else UNDECIDED)

    return Item(f"random pair n={n}", n, run, check, json.dumps(rec, sort_keys=True))


def build_nport(seed: int, _work: Path) -> list[Item]:
    """Diagonal RC n-ports (B = C = D = I) and symmetrically coupled ones
    (B = C = K = I + (J - I)/4, D = I, so G = K diag(1/(s + a_k)) K + I is
    positive real by congruence), plus the random pairs of the reference pool."""
    rng = random.Random(seed)
    items = []
    top = NPORT_SIZES[-1]
    for n in NPORT_SIZES:
        a = [Fraction(k, 2) for k in rng.sample(range(1, 13), n)]
        A = [[-a[i] if i == j else 0 for j in range(n)] for i in range(n)]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        K = [[Fraction(1) if i == j else Fraction(1, 4) for j in range(n)]
             for i in range(n)]
        items.append(_chain_item(f"diagonal RC n={n}", _ss(A, eye, eye, eye), False))
        items.append(_chain_item(f"coupled RC n={n}", _ss(A, K, K, eye), n == top))
    # the whole pool, in an order drawn from the seed: the median operation is
    # a random pair, so a seeded sample of the pool would make it follow the seed
    pool = json.loads((DATA / "pairs.json").read_text())
    rng.shuffle(pool)
    return items + [_pair_item(rec) for rec in pool]


# -- cli-cold -------------------------------------------------------------------------


EXIT_CODES = (0, 1, 2, 3)  # the CLI's documented exit codes


def _cli_item(label: str, size: int, argv: list[str], want_code: int,
              verdict: Callable[[dict], bool], work: Path, headline=False) -> Item:
    def run(tracer):
        if tracer is None:
            return subprocess.run([sys.executable, "-m", "passlab.cli", *argv],
                                  capture_output=True, text=True, cwd=work)
        spans = work / "spans.json"
        spans.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, str(SHIM), str(spans), *argv],
                              capture_output=True, text=True, cwd=work)
        if spans.exists():
            rec = json.loads(spans.read_text())
            tracer.merge(rec["spans"], rec["counts"], rec["maxima"])
        return proc

    def check(proc):
        if proc.returncode not in EXIT_CODES:
            return Outcome(WRONG, None, f"undocumented exit code {proc.returncode}")
        if proc.returncode != want_code:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return Outcome(WRONG, None, f"exit {proc.returncode}, want {want_code}: "
                                        f"{tail[0]}")
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return Outcome(WRONG, None, "report is not JSON")
        try:
            agrees = verdict(doc)
        except (KeyError, TypeError):
            agrees = False  # the report lacks the fields the verdict is read from
        if not agrees:
            return Outcome(WRONG, None, "report contradicts the expected verdict")
        return Outcome(OK, doc.get("status"))

    inputs = repr([(a, (work / a).read_text() if (work / a).is_file() else None)
                   for a in argv])
    return Item(label, size, run, check, inputs, headline=headline, external=True)


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _pos(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def build_cli(seed: int, work: Path) -> list[Item]:
    """Small JSON inputs whose verdicts are known by construction."""
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        (work / name).write_text(json.dumps(doc))
        return name

    def ss_doc(A, B, C, D):
        return {"kind": "ss", **{k: [[_fr(Fraction(x)) for x in row] for row in M]
                                 for k, M in zip("ABCD", (A, B, C, D))}}

    a, c = _pos(rng), _pos(rng)
    rc = write("rc.json", ss_doc([[-a]], [[1]], [[c]], [[1]]))  # 1 + c/(s + a)
    # G(0) = 1 - c'/a < 0 with c' = a (2 + r)
    neg = write("neg.json", ss_doc([[-a]], [[1]], [[-a * (2 + _pos(rng))]], [[1]]))
    d = 3
    M = [[_rat(rng, 3) for _ in range(d)] for _ in range(d)]
    S = [[_rat(rng, 3) for _ in range(d)] for _ in range(d)]
    B = [[_rat(rng, 3)] for _ in range(d)]
    A = [[-(sum(M[i][k] * M[j][k] for k in range(d)) + (i == j)) + S[i][j] - S[j][i]
          for j in range(d)] for i in range(d)]
    sys3 = write("sys3.json", ss_doc(A, B, [[b[0] for b in B]], [[1]]))
    p1, p2 = rng.sample(range(1, 9), 2)
    rc2 = write("rc2.json", ss_doc([[-p1, 0], [0, -p2]], [[1, 0], [0, 1]],
                                   [[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    # the same 2-port as a pair: P = diag(s + a_k + 1), Q = diag(s + a_k)
    pair2 = write("pair2.json", {
        "kind": "pair",
        "P": [[[str(p1 + 1), "1"], ["0"]], [["0"], [str(p2 + 1), "1"]]],
        "Q": [[[str(p1), "1"], ["0"]], [["0"], [str(p2), "1"]]]})

    def witnessed(doc):
        wits = doc.get("witnesses", [])
        return doc["overall"] == "fail" and bool(wits) and all(
            w["reverified"] for w in wits)

    return [
        _cli_item("check-pair passive", 1, ["check-pair", rc], 0,
                  lambda doc: doc["overall"] == "pass", work),
        _cli_item("check-pair not passive", 1, ["check-pair", neg], 1, witnessed, work),
        _cli_item("certify d=3", d, ["certify", sys3], 0,
                  lambda doc: doc["status"] == "certified", work, headline=True),
        _cli_item("partition n=2", 2, ["partition", pair2], 0,
                  lambda doc: len(doc["input_ports_current"])
                  + len(doc["T2"]) == 2, work),
        _cli_item("realize ss->pair", 2, ["realize", rc2], 0,
                  lambda doc: doc["kind"] == "pair", work),
        _cli_item("specfact --ss", 1, ["specfact", "--ss", rc], 0,
                  lambda doc: doc["diagnostics"]["ok"] is True, work),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("corpus-certify", build_corpus, lambda items: items, 95, near_axis_probe),
    Workload("siso-sweep", build_siso,
             lambda items: [it for it in items if it.size == SISO_DIMS[0]], 75,
             sibling_probe),
    Workload("nport-pairs", build_nport,
             lambda items: [it for it in items if it.size == NPORT_SIZES[0]], 80),
    Workload("cli-cold", build_cli, lambda items: items[:1], 66),
)}
