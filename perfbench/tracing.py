"""The traced run: spans at the martkit layer boundaries, per-layer metrics.

Nothing here is imported by a timed run.  The wrappers replace the
cross-module names each martkit module imported (``montecarlo.generator_for``,
``applications.brentq``, the ``bounds``/``gaussian`` names that ``cli`` and
``applications`` use, ...) for the length of one traced cycle and are taken
out again before the next untraced one.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import metrics
from metrics import Span
from workloads import (MC_PATHS, CliMain, McTail, Op, PathReplay, Sample,
                       VerifySweep, attempt, child_env, judge)

LAYERS = ("gaussian", "bounds", "martingales", "montecarlo", "applications",
          "cli")
IMPORT_TARGETS = {"scipy.stats": "scipy_stats",
                  "scipy.optimize": "scipy_optimize",
                  **{f"martkit.{m}": m for m in LAYERS}}
FAMILIES = ("selfnorm", "varswitch", "regress3", "rademacher")
REPLAYED = ("simulate_path", "simulate_tilted_path", "conjugate_stats",
            "lemma_checks", "bolthausen_augment", "path_to_csv")
WORKLOAD_NAMES = ("mc-tail", "verify-sweep", "cli-main", "path-replay")

# name -> (unit, better); BENCHMARK.json lists the same names
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "python.startup_s": ("s", "lower"),
    **{f"{b}.import_s": ("s", "lower") for b in IMPORT_TARGETS.values()},
    "cli.launch_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"montecarlo.{e}.{f}.path_steps_per_s": ("1/s", "higher")
       for e in ("is", "plain", "verify") for f in FAMILIES},
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.chunks_drawn": ("count", "lower"),
    "montecarlo.verify.sweeps_per_call": ("count", "lower"),
    "montecarlo.verify.w2_speedup": ("ratio", "higher"),
    **{f"montecarlo.is.ess_ratio.{f}": ("ratio", "higher") for f in FAMILIES},
    "montecarlo.verify.stat_violations": ("count", "lower"),
    "montecarlo.enumeration.leaves": ("count", "lower"),
    "montecarlo.enumeration.busy_s": ("s", "lower"),
    **{f"martingales.{m}.{w}": (u, b)
       for w in ("mc-tail", "verify-sweep")
       for m, u, b in (("philox_draw_s", "s", "lower"),
                       ("philox_bytes", "B", "lower"),
                       ("draw_share", "ratio", "higher"))},
    **{f"martingales.{f}.us_per_call": ("us", "lower") for f in REPLAYED},
    "martingales.verify_A1.busy_s": ("s", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.busy_s": ("s", "lower"),
    "gaussian.calls": ("count", "lower"),
    "gaussian.busy_s": ("s", "lower"),
    "applications.busy_s": ("s", "lower"),
    "applications.brentq_calls": ("count", "lower"),
    **{f"trace.overhead_ratio.{w}": ("ratio", "lower")
       for w in WORKLOAD_NAMES},
}


class Tracer:
    """Spans of one workload's traced cycles, kept in memory.

    Worker threads start with an empty stack; their spans take the span
    open on the main thread (the call that fanned out) as parent.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.draws: List[tuple] = []   # (op, key, method, args, kwargs)
        self.op: Optional[int] = None
        self.op_ids = itertools.count()
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, layer: str, name: str, **info):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, layer, name, start, end, parent,
                                   self.op, info))


class _RecordingGenerator:
    """A Philox generator whose draws are spanned and logged for replay."""

    def __init__(self, rng, key, tracer: Tracer):
        self._rng, self._key, self._tracer = rng, key, tracer

    def _draw(self, method, args, kwargs):
        with self._tracer.span("martingales", f"philox.{method}"):
            out = getattr(self._rng, method)(*args, **kwargs)
        self._tracer.draws.append((self._tracer.op, self._key, method, args,
                                   kwargs))
        return out

    def random(self, *args, **kwargs):
        return self._draw("random", args, kwargs)

    def binomial(self, *args, **kwargs):
        return self._draw("binomial", args, kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _wrapped(fn, tracer: Tracer, layer: str, name: str, caller: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer, name, caller=caller):
            return fn(*args, **kwargs)
    return wrapper


def _generator_wrapper(fn, tracer: Tracer, caller: str):
    @functools.wraps(fn)
    def wrapper(seed, stream, index):
        with tracer.span("martingales", "generator_for", caller=caller):
            rng = fn(seed, stream, index)
        return _RecordingGenerator(rng, (seed, stream, index), tracer)
    return wrapper


def _enumeration_wrapper(fn, tracer: Tracer, support):
    @functools.wraps(fn)
    def wrapper(model, lam):
        with tracer.span("montecarlo.enumeration", fn.__name__,
                         leaves=support(model) or 0):
            return fn(model, lam)
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every cross-module martkit function name; restore on exit."""
    saved = []

    def put(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for caller in LAYERS:
            mod = sys.modules.get(f"martkit.{caller}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, owner = obj.__module__.rpartition(".")
                if package != "martkit" or owner == caller:
                    continue
                if attr == "generator_for":
                    put(mod, attr, _generator_wrapper(obj, tracer, caller))
                else:
                    put(mod, attr, _wrapped(obj, tracer, owner, attr, caller))
            if callable(getattr(mod, "brentq", None)):
                put(mod, "brentq", _wrapped(mod.brentq, tracer, "scipy",
                                            "brentq", caller))
        mc = sys.modules.get("martkit.montecarlo")
        if mc is not None and hasattr(mc, "_enumeration_atoms"):
            put(mc, "_enumeration_atoms", _enumeration_wrapper(
                mc._enumeration_atoms, tracer, mc.enumeration_support))
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# alternating untraced and traced cycles


class Pass:
    """Untraced and traced cycles of one workload's operation list."""

    def __init__(self, wl, ops, tracer: Optional[Tracer] = None):
        self.wl, self.ops = wl, ops
        self.tracer = tracer or Tracer()
        self.untraced: List[Sample] = []
        self.traced: List[Sample] = []
        self.cycles = 0

    def _traced_op(self, op):
        tracer = self.tracer
        tracer.op = next(tracer.op_ids)
        with tracer.span(op.layer, op.name, key=op.key, **op.info):
            return op.call(tracer.span)

    def run(self, budget: float) -> None:
        """Alternate one untraced and one traced cycle within ``budget``."""
        start = perf_counter()
        while self.cycles == 0 or perf_counter() - start < budget:
            self.untraced += [attempt(self.wl, op) for op in self.ops]
            with installed(self.tracer):
                self.traced += [attempt(self.wl, op, self._traced_op)
                                for op in self.ops]
            self.cycles += 1

    def spans(self, layer=None, name=None) -> List[Span]:
        return [s for s in self.tracer.spans
                if (layer is None or s.layer == layer)
                and (name is None or s.name == name)]

    def per_cycle(self, value: float) -> float:
        return value / self.cycles

    def overhead(self) -> float:
        return (statistics.median(s.latency for s in self.traced)
                / statistics.median(s.latency for s in self.untraced) - 1.0)

    def cycle_time(self) -> float:
        """Untraced time of one cycle: the median latency of each key."""
        by_key: Dict[str, List[float]] = {}
        for s in self.untraced:
            by_key.setdefault(s.key, []).append(s.latency)
        return sum(statistics.median(v) for v in by_key.values())

    def self_time(self, layer: str) -> float:
        own = metrics.self_times(self.tracer.spans)
        return sum(own[s.sid] for s in self.spans(layer))

    def path_steps_per_s(self) -> Dict[str, float]:
        """(estimator.family) -> requested path-steps per second of call."""
        steps: Dict[str, float] = {}
        time: Dict[str, float] = {}
        for s in self.spans("montecarlo"):
            if "estimator" in s.info:
                k = f"{s.info['estimator']}.{s.info['family']}"
                steps[k] = steps.get(k, 0.0) + s.info["path_steps"]
                time[k] = time.get(k, 0.0) + s.duration
        return {k: steps[k] / time[k] for k in steps}

    def philox(self) -> Tuple[float, int]:
        """(seconds, bytes) of one cycle's draws, replayed directly."""
        mg = sys.modules["martkit.martingales"]
        first_cycle = set(range(len(self.ops)))
        draws = [d for d in self.tracer.draws if d[0] in first_cycle]
        total = 0.0
        nbytes = 0
        for _, key, method, args, kwargs in draws:
            t0 = perf_counter()
            out = getattr(mg.generator_for(*key), method)(*args, **kwargs)
            total += perf_counter() - t0
            if method == "random":
                nbytes += 8 * out.size
        return total, nbytes


def _runs(argv: Sequence[str], count: int) -> List[Tuple[float, str]]:
    out = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), timeout=120, check=True)
        out.append((perf_counter() - t0, proc.stderr))
    return out


def import_breakdown(repeats: int = 3) -> Dict[str, float]:
    py = sys.executable
    found = {f"{b}.import_s": [] for b in IMPORT_TARGETS.values()}
    for _, err in _runs([py, "-X", "importtime", "-c", "import martkit.cli"],
                        repeats):
        buckets = metrics.import_buckets(metrics.parse_importtime(err),
                                         list(IMPORT_TARGETS))
        for module, bucket in IMPORT_TARGETS.items():
            found[f"{bucket}.import_s"].append(buckets[module])
    out = {k: statistics.median(v) for k, v in found.items()}
    out["python.startup_s"] = statistics.median(
        t for t, _ in _runs([py, "-c", "pass"], 5))
    return out


def traced_run(seed: int, seconds: float, workdir: Path):
    """(metrics, attempted, failed, errors, spans) of the traced run."""
    found = import_breakdown()
    slice_s = seconds / 8.0   # untraced + traced cycles of four workloads
    attempted = failed = 0
    errors: List[str] = []
    dump = []

    def account(wl, p: Pass):
        nonlocal attempted, failed
        a, f, e = judge(wl, p.untraced + p.traced)
        attempted += a
        failed += f
        errors.extend(e)
        dump.extend((wl.name, s) for s in p.tracer.spans)

    # mc-tail: kernels, IS weights, Philox share
    wl = McTail(seed, workdir)
    p = Pass(wl, wl.ops())
    p.run(slice_s)
    account(wl, p)
    rates = p.path_steps_per_s()
    for f in FAMILIES:
        for e in ("is", "plain"):
            found[f"montecarlo.{e}.{f}.path_steps_per_s"] = rates[f"{e}.{f}"]
        keys = [k for k in wl.ess if k.startswith(f"{f}/")]
        found[f"montecarlo.is.ess_ratio.{f}"] = statistics.mean(
            wl.ess[k] for k in keys)
    found["montecarlo.self_s"] = p.per_cycle(p.self_time("montecarlo"))
    draw_s, draw_b = p.philox()
    found["martingales.philox_draw_s.mc-tail"] = draw_s
    found["martingales.philox_bytes.mc-tail"] = draw_b
    found["martingales.draw_share.mc-tail"] = draw_s / p.cycle_time()
    found["trace.overhead_ratio.mc-tail"] = p.overhead()

    # verify-sweep: sweeps per call, statistical verdicts, thread scaling
    wl = VerifySweep(seed, workdir)
    p = Pass(wl, wl.ops())
    p.run(slice_s)
    verify_calls = p.spans("montecarlo", "run_verification_suite")
    chunks = [sum(1 for s in p.spans("martingales", "generator_for")
                  if s.op == call.op and s.info["caller"] == "montecarlo")
              for call in verify_calls]
    found["montecarlo.chunks_drawn"] = p.per_cycle(sum(chunks))
    found["montecarlo.verify.sweeps_per_call"] = statistics.mean(
        c / call.info["chunks_per_sweep"]
        for c, call in zip(chunks, verify_calls))
    # one cycle holds one call per README model
    found["montecarlo.verify.stat_violations"] = sum(
        wl.stat_violations.values())
    found["martingales.verify_A1.busy_s"] = (
        sum(s.duration for s in p.spans("martingales", "verify_A1"))
        / len(verify_calls))
    draw_s, draw_b = p.philox()
    found["martingales.philox_draw_s.verify-sweep"] = draw_s
    found["martingales.philox_bytes.verify-sweep"] = draw_b
    found["martingales.draw_share.verify-sweep"] = draw_s / p.cycle_time()
    found["trace.overhead_ratio.verify-sweep"] = p.overhead()
    rates = p.path_steps_per_s()
    # verify on the other two criterion-4 families, one traced call each
    models = McTail(seed, workdir).models
    extra = Pass(wl, [wl.verify_op(f, models[f], MC_PATHS, wl.workers)
                      for f in ("regress3", "rademacher")], p.tracer)
    extra.run(0.0)
    rates.update(extra.path_steps_per_s())
    for f in FAMILIES:
        found[f"montecarlo.verify.{f}.path_steps_per_s"] = rates[f"verify.{f}"]
    # the same call on one and on two workers, alternated
    family = "selfnorm"
    pair = [wl.verify_op(family, wl.models[family], wl.paths[family], w)
            for w in (1, 2)]
    scaling = [attempt(wl, op) for op in pair * 2]
    found["montecarlo.verify.w2_speedup"] = (
        statistics.median(s.latency for s in scaling[0::2])
        / statistics.median(s.latency for s in scaling[1::2]))
    p.untraced += extra.untraced + scaling
    p.traced += extra.traced
    account(wl, p)

    # cli-main: split main(argv) by layer
    wl = CliMain(seed, workdir)
    p = Pass(wl, wl.ops())
    p.run(slice_s)
    # the cold launch a CLI user waits for; its output must match main's
    launch = Op("bound", "bound", 0, "process", "python -m martkit.cli",
                lambda span: wl.launch(wl.argv("bound")))
    cold = [attempt(wl, launch) for _ in range(3)]
    found["cli.launch_s"] = statistics.median(s.latency for s in cold)
    p.untraced += cold
    account(wl, p)
    found["cli.self_s"] = p.per_cycle(p.self_time("cli"))
    for layer in ("bounds", "gaussian"):
        found[f"{layer}.calls"] = p.per_cycle(len(p.spans(layer)))
        found[f"{layer}.busy_s"] = p.per_cycle(
            metrics.layer_busy(p.tracer.spans, layer))
    found["applications.busy_s"] = p.per_cycle(
        metrics.layer_busy(p.tracer.spans, "applications"))
    found["applications.brentq_calls"] = p.per_cycle(
        len(p.spans("scipy", "brentq")))
    enum = p.spans("montecarlo.enumeration")
    found["montecarlo.enumeration.leaves"] = p.per_cycle(
        sum(s.info["leaves"] for s in enum))
    found["montecarlo.enumeration.busy_s"] = p.per_cycle(
        sum(s.duration for s in enum))
    found["trace.overhead_ratio.cli-main"] = p.overhead()

    # path-replay: per-path martingales calls
    wl = PathReplay(seed, workdir)
    p = Pass(wl, wl.ops())
    p.run(slice_s)
    account(wl, p)
    for f in REPLAYED:
        spans = p.spans("martingales", f)
        found[f"martingales.{f}.us_per_call"] = (
            1e6 * sum(s.duration for s in spans) / len(spans))
    found["trace.overhead_ratio.path-replay"] = p.overhead()

    return found, attempted, failed, errors, dump


def write_spans(path: Path, dump) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for workload, s in dump:
            f.write(json.dumps({"workload": workload, "sid": s.sid,
                                "layer": s.layer, "name": s.name,
                                "start": s.start, "end": s.end,
                                "parent": s.parent, "op": s.op,
                                "info": s.info}, default=str) + "\n")
