"""Span tracer that wraps passlab's public functions from outside.

`Tracer.install()` replaces each target function with a wrapper in every
passlab namespace that binds it (module globals, re-exports and aliases such
as `numeric_roots`, and class attributes such as `Poly.__rmul__`), and
`Tracer.restore()` puts every original back.  A span is `[name, parent,
start, end]`; its index in `Tracer.spans` is its id.  Spans stay in memory
until the run writes them out.  Self time is a span's duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

SPAN_TARGETS = (
    "poly.find_negative_point",
    "polymatrix.PolyMat.det",
    "polymatrix.PolyMat.adjugate",
    "polymatrix.row_echelon",
    "polymatrix.delta",
    "polymatrix.normalrank",
    "polymatrix.syzygy_basis",
    "polymatrix.minor_gcd",
    "polymatrix.fullrank_everywhere",
    "numeric.roots",
    "numeric.hermitian_psd",
    "numeric.lyapunov_solve",
    "numeric.lossless_lyap_solve",
    "numeric.stable_unstable_split",
    "prpair.check_pair",
    "prpair.check_condition1",
    "prpair.check_condition2",
    "prpair.check_condition3",
    "prpair.axis_psd",
    "behavior.passive_partition",
    "statespace.realize_behavior",
    "statespace.realize_statespace",
    "statespace.staircase",
    "statespace.simulate",
    "statespace.storage_check",
    "certificate.construct_certificate",
    "certificate.build_zx",
    "certificate.spectral_factor_poly",
    "certificate.remark61_solve",
    "certificate.verify_certificate",
    "signals.parse_signal",
    "jsonio.load_system",
    "jsonio.dumps",
    "cli.main",
)
COUNT_TARGETS = ("poly.Poly.__mul__", "poly.Poly.__divmod__")
HOOK_SPAN = "perfbench.hook"  # time the tracer spends in its own hooks
ROOT_SPAN = "op"


def resolve(target: str):
    """The object a target names: `module.func` or `module.Class.method`."""
    mod_name, *attrs = target.split(".")
    obj = importlib.import_module(f"passlab.{mod_name}")
    for i, attr in enumerate(attrs):
        # class attributes are read raw, so the function itself is patched
        obj = obj.__dict__[attr] if inspect.isclass(obj) else getattr(obj, attr)
        if i < len(attrs) - 1 and not inspect.isclass(obj):
            raise ValueError(f"{target}: {attr} is not a class")
    return obj


def _passlab_namespaces():
    """Every passlab module and every class defined in passlab."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "passlab" or name.startswith("passlab.")]
    classes = {}
    for m in mods:
        for v in vars(m).values():
            if inspect.isclass(v) and v.__module__.startswith("passlab"):
                classes[id(v)] = v
    return mods + list(classes.values())


def coeff_bits(M) -> int:
    """Largest numerator or denominator bit length in a PolyMat."""
    best = 0
    for row in M.entries:
        for p in row:
            for c in p.coeffs:
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _echelon_bits(tracer: "Tracer", args, result):
    bits = max(coeff_bits(m) for m in (result.U, result.E) if m is not None)
    tracer.maxima["polymatrix.row_echelon.max_coeff_bits"] = max(
        tracer.maxima["polymatrix.row_echelon.max_coeff_bits"], bits)


def _sim_steps(tracer: "Tracer", args, result):
    tracer.counts["statespace.simulate.steps"] += len(result.t) - 1


HOOKS = {"polymatrix.row_echelon": _echelon_bits,
         "statespace.simulate": _sim_steps}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.labels: dict[int, str] = {}  # root span id -> operation label
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.clock(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[3] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str | None = None):
        rec = self._open(name)
        if label is not None:
            self.labels[len(self.spans) - 1] = label
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Run code (such as a correctness gate) without recording it."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _span_wrapper(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                with self.span(HOOK_SPAN):
                    hook(self, args, out)
            return out
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every target at every binding; restore() undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("passlab.cli")  # load every layer
        namespaces = _passlab_namespaces()
        try:
            for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                                  (COUNT_TARGETS, self._count_wrapper)):
                for target in targets:
                    orig = resolve(target)
                    if not self._rebind(namespaces, orig, make(target, orig)):
                        raise RuntimeError(f"{target}: no binding found")
        except BaseException:
            self.restore()
            raise

    def _rebind(self, namespaces, orig, new) -> int:
        found = 0
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, attr, new)
                    self._patches.append((ns, attr, orig))
                    found += 1
        return found

    def restore(self):
        while self._patches:
            ns, attr, orig = self._patches.pop()
            setattr(ns, attr, orig)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, start, end) in enumerate(self.spans)]

    def merge(self, spans: list[list], counts: dict, maxima: dict):
        """Append spans recorded in another process (parents re-indexed)."""
        base = len(self.spans)
        parent_of = self._stack[-1] if self._stack else -1
        for name, parent, start, end in spans:
            self.spans.append([name, parent + base if parent >= 0 else parent_of,
                               start, end])
        self.counts.update(counts)
        for k, v in maxima.items():
            self.maxima[k] = max(self.maxima[k], v)

    def export(self) -> dict:
        return {"spans": self.spans, "labels": self.labels,
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


# -- the per-layer metrics a traced run reports --------------------------------

OUTCOMES = ("certified", "not-passive", "inconclusive", "unsupported", "discrepancy")
PROBES = ("cli.interp_start_s", "cli.import_s", "cli.import_scipy_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for t in SPAN_TARGETS:
        units[f"{t}.calls"] = "count/pass"
        units[f"{t}.self_s"] = "s/pass"
    for t in COUNT_TARGETS:
        units[f"{t}.calls"] = "count/pass"
    units.update({
        "polymatrix.row_echelon.max_coeff_bits": "bits",
        "behavior.passive_partition.det_calls_per_call": "count/call",
        "prpair.axis_psd.calls_per_op": "count/op",
        "statespace.simulate.steps_per_s": "1/s",
    })
    units.update({p: "s" for p in PROBES})
    units.update({f"certificate.outcome.{o}.count": "count/pass" for o in OUTCOMES})
    units["trace.overhead_frac"] = "fraction"
    units["known_defect.count"] = "count"  # probe inputs that raised a known defect
    return units


def layer_values(tracer: Tracer, passes: int, ops_per_pass: int) -> dict[str, float]:
    """calls/self_s per target, per pass of `ops_per_pass` operations, plus
    the derived ratios, from the spans of `passes` traced passes."""
    selfs = tracer.self_times()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, _, _, _), st in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += st
    out = {}
    for t in SPAN_TARGETS:
        out[f"{t}.calls"] = calls[t] / passes
        out[f"{t}.self_s"] = self_s[t] / passes
    for t in COUNT_TARGETS:
        out[f"{t}.calls"] = tracer.counts[t] / passes
    out["polymatrix.row_echelon.max_coeff_bits"] = \
        tracer.maxima["polymatrix.row_echelon.max_coeff_bits"]
    pp = "behavior.passive_partition"
    direct_dets = sum(1 for name, parent, _, _ in tracer.spans
                      if name == "polymatrix.PolyMat.det" and parent >= 0
                      and tracer.spans[parent][0] == pp)
    out[f"{pp}.det_calls_per_call"] = direct_dets / calls[pp] if calls[pp] else 0.0
    out["prpair.axis_psd.calls_per_op"] = \
        calls["prpair.axis_psd"] / (passes * ops_per_pass)
    sim_s = sum(e - s for name, _, s, e in tracer.spans
                if name == "statespace.simulate")
    out["statespace.simulate.steps_per_s"] = \
        tracer.counts["statespace.simulate.steps"] / sim_s if sim_s else 0.0
    return out
