"""martkit benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-tail --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --workload mc-tail --seed 1 --trace 1

Workloads (BENCHMARK.json lists the two the benchmark is judged on,
``mc-tail`` and ``verify-sweep``, and says why each was chosen; the other
two run here on request and in every traced run):

- ``mc-tail``: plain-grid and importance-sampled tail estimates on the
  four criterion-4 families, in process, one worker.
- ``verify-sweep``: ``run_verification_suite`` on the README models, one
  worker thread (the output is re-checked at two after the timed loop).
- ``cli-main``: the README commands through ``martkit.cli.main`` in
  process; interpreter start and imports are its ``setup_s``.
- ``path-replay``: the per-path ``martingales`` API on fixed path batches.

With ``--trace 0`` a run prints, per workload, ``setup_s`` (median of
three fresh set-ups: interpreter start, importing martkit, generating the
inputs), ``op_p50_s`` and ``op_p90_s`` (the median over operation types
of each type's 50th and 90th percentile latency, so that a run which stops
part of the way through a cycle does not tilt them), ``op_tail_s`` (the
latency at the highest percentile with ten samples beyond it),
``paths_per_s`` (requested paths per second of operation time, each type
at its 90th percentile latency), ``fail_ratio`` and ``peak_rss_mb``.
Latencies come from the operations after one untimed warm-up cycle.  The
JSON result carries the metrics BENCHMARK.json judges (``END_TO_END``);
``op_p50_s`` and ``fail_ratio`` are printed only, the latter being carried
by ``attempted`` and ``failed``.  An operation fails on
an exception, a non-zero exit, a hard per-path violation, or an output
that differs from its earlier repeats or from an independent reference
computed after the timed loop.  With ``--workload all`` the workloads
share one process, so ``peak_rss_mb`` is that process's peak so far.

With ``--trace 1`` the run covers every workload whatever ``--workload``
names: it alternates untraced and traced cycles, wraps the cross-module
names of martkit only during the traced ones, and reports the per-layer
metrics listed in ``tracing.PER_LAYER``; spans go to
``.perfbench-out/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from metrics import by_type, tail_point
from workloads import ROOT, SRC, WORKLOADS, child_env, judge, measure

SETUP_REPEATS = 3
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
         "op_tail_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB"}
# The metrics BENCHMARK.json judges.  op_p50_s is printed, not judged: on
# a host that lends a few shared cores, the speed switches between a busy
# and a quiet state for spells of tens of seconds, and a run's median
# flips with whichever state held half of it; the 90th percentile and the
# tail sit in the busy state, which is present in nearly every run.
END_TO_END = ("setup_s", "op_p90_s", "op_tail_s", "paths_per_s",
              "peak_rss_mb")


def _require_source() -> None:
    if not (SRC / "martkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no martkit sources under {SRC}; run from the "
                 "root of a martkit checkout")
    sys.path.insert(0, str(SRC))
    import martkit
    if Path(martkit.__file__).resolve().parent != SRC / "martkit":
        sys.exit(f"perfbench: imported martkit from {martkit.__file__}, "
                 f"not from {SRC}")


def _setup_probe(name: str, seed: int) -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        WORKLOADS[name](seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(name: str, seed: int) -> float:
    """Median time from launching a fresh interpreter to its set-up done."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", name, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
                env=child_env()) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {name} failed "
                               f"(exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def timed_run(name: str, seed: int, seconds: float, workdir: Path):
    """(metrics, attempted, failed, errors, tail note) of one workload."""
    setup_s = setup_seconds(name, seed)
    wl = WORKLOADS[name](seed, workdir)
    warm, samples = measure(wl, wl.ops(), seconds)
    attempted, failed, errors = judge(wl, warm + samples)
    latencies = [s.latency for s in samples]
    tail, pct = tail_point(latencies)
    typed = [(s.kind, s.paths, s.latency) for s in samples]
    p50, p90 = by_type(typed, 50), by_type(typed, 90)
    found = {"setup_s": setup_s,
             "op_p50_s": statistics.median(t for _, t in p50.values()),
             "op_p90_s": statistics.median(t for _, t in p90.values()),
             "op_tail_s": tail,
             "paths_per_s": (sum(p for p, _ in p90.values())
                             / sum(t for _, t in p90.values())),
             "peak_rss_mb": resource.getrusage(
                 resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return (found, attempted, failed, errors,
            f"p{pct:.1f} of {len(latencies)} operations")


def _report(metrics: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _require_source()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            import tracing
            traced, attempted, failed, errors, spans = tracing.traced_run(
                args.seed, args.seconds, workdir)
            tracing.write_spans(ROOT / ".perfbench-out" / "spans.jsonl",
                                spans)
            found = {k: traced[k] for k in tracing.PER_LAYER}
            units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
            for k in tracing.PER_LAYER:
                print(f"{k:48s} {found[k]:.6g} {units[k]}")
        else:
            names = sorted(WORKLOADS) if args.workload == "all" \
                else [args.workload]
            found, units = {}, {}
            attempted = failed = 0
            errors = []
            for name in names:
                m, a, f, e, tail_note = timed_run(name, args.seed,
                                                  args.seconds, workdir)
                attempted += a
                failed += f
                errors += e
                print(f"workload {name} (seed {args.seed})")
                for k, v in m.items():
                    note = f"   {tail_note}" if k == "op_tail_s" else ""
                    print(f"  {k:12s} {v:.6g} {UNITS[k]}{note}")
                print(f"  {'fail_ratio':12s} {f / a:.6g}   ({f} of {a})")
                prefix = f"{name}." if len(names) > 1 else ""
                found.update({prefix + k: m[k] for k in END_TO_END})
                units.update({prefix + k: UNITS[k] for k in END_TO_END})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": _report(found, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
