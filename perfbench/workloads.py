"""The four workloads: seeded inputs, unit operations and output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations repeat in a fixed cycle;
an operation's ``key`` names its exact inputs (equal keys must give equal
outputs) and its ``kind`` groups operations of one type for the
throughput figure.  Constructing a workload imports the martkit modules it
uses and generates its inputs from the seed; that is the set-up that
``setup_s`` times.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from metrics import TAIL_BEYOND

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Path counts are sized so that a 50 s run holds well over ten cycles of
# the short operations and several cycles of mc-tail.
MC_PATHS = 1 << 15
PLAIN_XS = (0.5, 1.0, 1.5, 2.0)
IS_XS = (2.5, 3.0, 3.5, 4.0)

# Verify checks whose per-path identities hold on every path: one
# violation is a wrong result.  The statistical verdicts are recorded,
# never counted as failures.
HARD_CHECKS = frozenset({"drift-bound", "log-mgf-bound", "half-cosh-bound",
                         "characteristic-band", "z-product-route"})
STAT_CHECKS = frozenset({"z-martingale-mean", "tail-domination"})


class CheckFailed(Exception):
    """An operation returned an output that is wrong."""


_NULL = contextlib.nullcontext()


def no_span(layer: str, name: str, **info):
    return _NULL


@dataclass
class Op:
    key: str
    kind: str
    paths: int                    # requested paths: config.paths per call
    layer: str                    # layer the benchmark calls into
    name: str                     # span name of that call
    call: Callable                # call(span) -> result
    info: dict = field(default_factory=dict)


@dataclass
class Sample:
    key: str
    kind: str
    paths: int
    latency: float
    digest: Optional[str]
    error: Optional[str]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def tail_families(mg) -> Dict[str, object]:
    """The four families of acceptance criterion 4, by short name."""
    return {
        "selfnorm": mg.SelfNormalized(64, 1.0, 2.5),
        "varswitch": mg.VarianceSwitch(128, 0.5),
        "regress3": mg.RegressionModel(0.0, 32, 1.0, 2.0, 1.0,
                                       mg.NoiseFamily.TRUNCATED_SYMMETRIC),
        "rademacher": mg.ScaledRademacher.equal_weights(400),
    }


def _check_estimates(estimates, method, plain: bool) -> None:
    for e in estimates:
        if e.method is not method:
            raise CheckFailed(f"x={e.x}: method {e.method.value}, "
                              f"expected {method.value}")
        if not (math.isfinite(e.p_hat) and math.isfinite(e.ci_hi)
                and 0.0 <= e.ci_lo <= e.p_hat <= e.ci_hi):
            raise CheckFailed(f"x={e.x}: bad interval "
                              f"[{e.ci_lo}, {e.p_hat}, {e.ci_hi}]")
        if plain and e.ci_hi > 1.0:
            raise CheckFailed(f"x={e.x}: probability above 1")


def _estimate_fields(estimates) -> tuple:
    return tuple((e.x, e.p_hat, e.ci_lo, e.ci_hi, e.method.value,
                  e.effective_samples, e.seed) for e in estimates)


class Workload:
    name = ""
    modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.mods = {m.rpartition(".")[2]: importlib.import_module(m)
                     for m in self.modules}
        self.rnd = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def check(self, op: Op, result) -> str:
        """Digest of a valid output; raise CheckFailed on a wrong one."""
        raise NotImplementedError

    def post_checks(self, first: Dict[str, str]
                    ) -> Iterator[Tuple[Optional[str], Optional[str]]]:
        """(key, error) pairs from checks run outside the timed region.

        A key-bound error marks every sample of that key failed; a check
        with key None counts as one more attempted operation.
        """
        return iter(())


class McTail(Workload):
    name = "mc-tail"
    modules = ("martkit.martingales", "martkit.montecarlo")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.mc_seed = self.rnd.getrandbits(63)
        self.models = tail_families(self.mods["martingales"])
        self.ess: Dict[str, float] = {}

    def _op(self, family: str, x, workers=1) -> Op:
        mc = self.mods["montecarlo"]
        model = self.models[family]
        cfg = mc.SimulationConfig(model, paths=MC_PATHS, seed=self.mc_seed,
                                  workers=workers, exhaustive=False)
        info = {"family": family, "path_steps": MC_PATHS * model.n}
        if x is None:
            return Op(f"{family}/plain", f"{family}/plain", MC_PATHS,
                      "montecarlo", "estimate_tail_plain_grid",
                      lambda span: mc.estimate_tail_plain_grid(cfg, PLAIN_XS),
                      dict(info, estimator="plain"))
        return Op(f"{family}/is/{x}", f"{family}/is/{x}", MC_PATHS,
                  "montecarlo", "estimate_tail_is",
                  lambda span: [mc.estimate_tail_is(cfg, x)],
                  dict(info, estimator="is"))

    def ops(self):
        # families interleaved, so a cycle cut short stays balanced
        return [self._op(f, x) for x in (None,) + IS_XS for f in self.models]

    def check(self, op, result):
        mc = self.mods["montecarlo"]
        plain = op.info["estimator"] == "plain"
        method = (mc.EstimateMethod.PLAIN_CLOPPER_PEARSON if plain
                  else mc.EstimateMethod.IMPORTANCE_SAMPLED_DELTA)
        _check_estimates(result, method, plain)
        if not plain:
            self.ess[op.key] = result[0].effective_samples / MC_PATHS
        return _digest(_estimate_fields(result))

    def post_checks(self, first):
        # same operation at the other worker count: byte-identical output
        op = self._op("varswitch", 3.0, workers=2)
        if op.key in first:
            got = _digest(_estimate_fields(op.call(no_span)))
            yield op.key, (None if got == first[op.key] else
                           "workers=2 output differs from workers=1")


class VerifySweep(Workload):
    name = "verify-sweep"
    modules = ("martkit.martingales", "martkit.montecarlo")
    # One worker: on a host that lends the process a few shared cores, a
    # call split over two threads waits for whichever core is slowed, so
    # its latency measures the neighbours.  Thread scaling is the traced
    # run's w2_speedup, and the post check re-runs at two workers.
    workers = 1
    # the variance-switch call is about half as costly per path, so it
    # runs twice the paths and the two operations take similar time
    paths = {"varswitch": 1 << 15, "selfnorm": 1 << 14}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        mg = self.mods["martingales"]
        self.mc_seed = self.rnd.getrandbits(63)
        self.models = {"varswitch": mg.VarianceSwitch(64, 0.5),
                       "selfnorm": mg.SelfNormalized(64, 1.0, 2.5)}
        self.stat_violations: Dict[str, int] = {}

    def verify_op(self, family, model, paths, workers) -> Op:
        mc = self.mods["montecarlo"]
        cfg = mc.SimulationConfig(model, paths=paths, seed=self.mc_seed,
                                  workers=workers)
        return Op(f"{family}/verify", f"{family}/verify", paths,
                  "montecarlo", "run_verification_suite",
                  lambda span: mc.run_verification_suite(cfg),
                  {"family": family, "estimator": "verify",
                   "path_steps": paths * model.n,
                   "chunks_per_sweep": -(-paths // cfg.chunk_size)})

    def ops(self):
        return [self.verify_op(f, m, self.paths[f], self.workers)
                for f, m in self.models.items()]

    def check(self, op, report):
        if not report.a1_passed:
            raise CheckFailed("moment-growth condition failed")
        stat = 0
        for v in report.violations:
            if v.check in STAT_CHECKS:
                stat += 1
            else:
                raise CheckFailed(f"{v.check} violated (chunk "
                                  f"{v.chunk_index}, row {v.row}): {v.detail}")
        missing = HARD_CHECKS - {"half-cosh-bound"} - set(report.checks_run)
        if missing:
            raise CheckFailed(f"checks not run: {sorted(missing)}")
        self.stat_violations[op.key] = stat
        return _digest((report.model, report.paths, report.lam_values,
                        report.z_stats, report.checks_run,
                        tuple((v.check, v.detail, v.chunk_index, v.row)
                              for v in report.violations),
                        report.a1_passed, report.a2_bound))

    def post_checks(self, first):
        op = self.verify_op("varswitch", self.models["varswitch"],
                            self.paths["varswitch"], workers=2)
        if op.key in first:
            got = self.check(op, op.call(no_span))
            yield op.key, (None if got == first[op.key] else
                           "workers=2 output differs from workers=1")


class PathReplay(Workload):
    name = "path-replay"
    modules = ("martkit.martingales",)
    tilt_fraction = 0.5
    # per-path cost differs by family; batch sizes even out op latency
    batch = {"selfnorm": 64, "varswitch": 32, "regress3": 64}
    batches_per_family = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        models = tail_families(self.mods["martingales"])
        self.models = {f: models[f] for f in self.batch}
        self.path_seed = self.rnd.getrandbits(63)
        self.indices = {
            (f, b): tuple(self.rnd.getrandbits(40) for _ in range(size))
            for b in range(self.batches_per_family)
            for f, size in self.batch.items()}

    def replay(self, model, indices, span):
        mg = self.mods["martingales"]
        params = model.bernstein_params()
        lam = self.tilt_fraction / params.epsilon
        seed = self.path_seed
        out = []
        for idx in indices:
            with span("martingales", "simulate_tilted_path"):
                tilted = mg.simulate_tilted_path(model, lam, seed,
                                                 path_index=idx)
            with span("martingales", "conjugate_stats"):
                stats = mg.conjugate_stats(tilted, model, lam)
            with span("martingales", "lemma_checks"):
                lemma = mg.lemma_checks(stats, params)
            with span("martingales", "simulate_path"):
                path = mg.simulate_path(model, seed, path_index=idx)
            with span("martingales", "bolthausen_augment"):
                aug = mg.bolthausen_augment(path, params.epsilon, seed,
                                            path_index=idx)
            buf = io.StringIO()
            with span("martingales", "path_to_csv"):
                mg.path_to_csv(aug, buf)
            out.append((lemma.violations, stats.log_z, stats.psi,
                        stats.b_drift, float(aug.qc[-1]), buf.getvalue()))
        return out

    def ops(self):
        ops = []
        for (family, b), indices in self.indices.items():
            model = self.models[family]
            ops.append(Op(f"{family}/{b}", family, len(indices),
                          "martingales", "replay",
                          (lambda span, m=model, ix=indices:
                           self.replay(m, ix, span)),
                          {"family": family}))
        return ops

    def check(self, op, rows):
        for violations, _, _, _, qc_end, _ in rows:
            if violations:
                raise CheckFailed(f"lemma ceiling violated: {violations[0]}")
            # acceptance criterion 8: padding closes <S> to 1
            if abs(qc_end - 1.0) > 1e-12:
                raise CheckFailed(f"augmented <S>_n = {qc_end!r}, not 1")
        return _digest(rows)

    def post_checks(self, first):
        # a tilt of zero reproduces the untilted sampler bit for bit
        mg = self.mods["martingales"]
        for family, model in self.models.items():
            idx = self.indices[(family, 0)][0]
            a = mg.simulate_tilted_path(model, 0.0, self.path_seed,
                                        path_index=idx)
            b = mg.simulate_path(model, self.path_seed, path_index=idx)
            same = (a.differences.tobytes() == b.differences.tobytes()
                    and a.qc.tobytes() == b.qc.tobytes())
            yield None, (None if same else
                         f"{family}: zero tilt differs from simulate_path")


# ---------------------------------------------------------------------------
# cli-main


def _fmt(v) -> str:
    """The CLI's CSV cell format: floats at 17 significant digits."""
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _csv(header: Sequence[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_payload(text: str) -> str:
    """A JSON output without its run manifest (timestamps), canonically."""
    blob = json.loads(text)
    blob.pop("manifest", None)
    return json.dumps(blob, sort_keys=True)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MARTKIT_SEED", None)
    return env


class CliMain(Workload):
    """The README commands through ``martkit.cli.main`` in one process.

    A fresh ``python -m martkit.cli`` costs interpreter start plus the
    martkit and scipy imports before ``main`` runs; that part is this
    workload's set-up (``setup_s`` imports ``martkit.cli``), and the
    operations time what ``main`` itself does for each command.
    """

    name = "cli-main"
    modules = ("martkit.cli",)
    # verify is compute-bound and runs in verify-sweep
    commands = ("bound", "simulate", "calibrate", "regress", "selfnorm")
    design_rows = 200
    sample_size = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rnd = self.rnd
        self.mc_seed = rnd.getrandbits(63)
        # dyadic grid offset: every grid point and step is exact in binary
        self.offset = rnd.randrange(32) / 64.0
        theta = rnd.uniform(-1.0, 1.0)
        self.design = workdir / "design.csv"
        with open(self.design, "w", encoding="utf-8", newline="") as f:
            f.write("phi,x\n")
            for _ in range(self.design_rows):
                phi = rnd.uniform(1.0, 2.0)
                f.write(f"{phi!r},{theta * phi + rnd.choice((-1.0, 1.0))!r}\n")
        # magnitudes in [1, 2] keep the empirical step scale at most 1/2
        self.sample = [rnd.choice((-1.0, 1.0)) * rnd.uniform(1.0, 2.0)
                       for _ in range(self.sample_size)]

    def grid(self, lo: float, hi: float) -> Tuple[List[str], List[float]]:
        lo, hi = lo + self.offset, hi + self.offset
        count = int(round((hi - lo) / 0.5)) + 1
        return (["--x-from", repr(lo), "--x-to", repr(hi), "--x-step", "0.5"],
                [lo + i * 0.5 for i in range(count)])

    def argv(self, command: str) -> List[str]:
        seed = str(self.mc_seed)
        if command == "bound":
            return (["bound", "--envelope", "thm21", "--epsilon", "0.05"]
                    + self.grid(0.0, 4.0)[0])
        if command == "simulate":
            return (["simulate", "--model", "rademacher", "--n", "400",
                     "--paths", "100000", "--seed", seed, "--estimator", "is"]
                    + self.grid(2.0, 4.0)[0])
        if command == "calibrate":
            return (["calibrate", "--model", "rademacher", "--n", "1000",
                     "--envelope", "brmti", "--seed", seed]
                    + self.grid(0.0, 3.0)[0])
        if command == "regress":
            return (["regress", "--data", str(self.design), "--noise",
                     "rademacher", "--level", "0.95"]
                    + self.grid(0.0, 3.0)[0])
        # one token: a sample that starts with "-" would read as a flag
        return (["selfnorm", "--sample=" + ",".join(map(repr, self.sample))]
                + self.grid(0.0, 3.0)[0])

    # requested Monte Carlo paths per command: one sweep per IS level for
    # simulate, one CDF sweep for calibrate
    def paths(self, command: str) -> int:
        return {"simulate": 100000 * len(self.grid(2.0, 4.0)[1]),
                "calibrate": 200000}.get(command, 0)

    def launch(self, argv):
        """The command as a user runs it: a fresh interpreter."""
        proc = subprocess.run([sys.executable, "-m", "martkit.cli"] + argv,
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    def ops(self):
        return [Op(command, command, self.paths(command), "cli", "main",
                   lambda span, a=self.argv(command): self.run_main(a),
                   {"command": command})
                for command in self.commands]

    def check(self, op, result):
        code, out, err = result
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()[-300:]}")
        if op.key in ("regress", "selfnorm"):
            out = _json_payload(out)
        return _digest(out)

    def reference(self, command: str) -> str:
        """The command's output rebuilt from direct library calls."""
        bounds, mc, mg, app = (importlib.import_module(f"martkit.{m}") for m in
                               ("bounds", "montecarlo", "martingales",
                                "applications"))
        one = bounds.BoundConstant(1.0)
        if command == "bound":
            params = bounds.BernsteinParams(0.05, 0.0)
            rows = []
            for x in self.grid(0.0, 4.0)[1]:
                env = bounds.nonuniform_be_envelope(x, params, one)
                rows.append((x, env.xhat, bounds.lambda_bar(abs(x), params),
                             env.value, env.log_value))
            return _digest(_csv(("x", "xhat", "lambda_bar", "value",
                                 "log_value"), rows))
        if command in ("simulate", "calibrate"):
            n, paths = ((400, 100000) if command == "simulate"
                        else (1000, 200000))
            cfg = mc.SimulationConfig(mg.ScaledRademacher.equal_weights(n),
                                      paths=paths, seed=self.mc_seed)
            if command == "simulate":
                ests = [mc.estimate_tail_is(cfg, x)
                        for x in self.grid(2.0, 4.0)[1]]
                return _digest(_csv(("x", "p_hat", "ci_lo", "ci_hi", "method",
                                     "effective_samples", "seed"),
                                    _estimate_fields(ests)))
            res = mc.calibrate_constant(cfg, "brmti", self.grid(0.0, 3.0)[1])
            rows = [(x, e, u, pc, res.c_hat) for x, e, u, pc in
                    zip(res.xs, res.empirical, res.units, res.per_point_c)]
            return _digest(_csv(("x", "empirical", "unit", "per_point_c",
                                 "c_hat"), rows))
        xs = self.grid(0.0, 3.0)[1]
        if command == "regress":
            data = app.RegressionData.from_csv(self.design, sigma=1.0)
            report = app.regression_report(
                data, mg.NoiseFamily.RADEMACHER_SCALED, theta=None,
                x_grid=xs, c=one)
            ci = app.regression_ci(data, report.eps, 0.95, one)
            payload = {"report": report.to_dict(), "ci": ci.to_dict()}
        else:
            payload = {"report": app.self_norm_report(
                self.sample, x_grid=xs, c=one).to_dict()}
        return _digest(_json_payload(json.dumps(payload)))

    def post_checks(self, first):
        for command in self.commands:
            if command in first:
                ok = self.reference(command) == first[command]
                yield command, (None if ok else
                                "output differs from the library call")


WORKLOADS = {w.name: w for w in (McTail, VerifySweep, CliMain, PathReplay)}


# ---------------------------------------------------------------------------
# the closed loop


def run_op(op: Op, span=no_span):
    return op.call(span)


def attempt(wl: Workload, op: Op, runner=run_op) -> Sample:
    """Run one operation, timed, and check its output."""
    error = digest = None
    t0 = perf_counter()
    try:
        result = runner(op)
    except Exception as exc:  # a failed operation is data, not a crash
        result = None
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    if error is None:
        try:
            digest = wl.check(op, result)
        except CheckFailed as exc:
            error = str(exc)
    return Sample(op.key, op.kind, op.paths, latency, digest, error)


def measure(wl: Workload, ops: Sequence[Op], seconds: float
            ) -> Tuple[List[Sample], List[Sample]]:
    """(warm-up, timed) samples: ops in cycle order, one at a time.

    One untimed cycle comes first, so that first-call costs (lazy
    imports, allocator growth) stay out of the figures; its outputs are
    still checked.  Then an operation starts only while the time used so
    far, plus one more operation at the mean pace, fits in ``seconds``;
    at least enough run to resolve the tail percentile.
    """
    warm = [attempt(wl, op) for op in ops]
    samples: List[Sample] = []
    start = perf_counter()
    while True:
        done = len(samples)
        elapsed = perf_counter() - start
        if done > TAIL_BEYOND and elapsed + elapsed / done > seconds:
            return warm, samples
        samples.append(attempt(wl, ops[done % len(ops)]))


def judge(wl: Workload, samples: List[Sample]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, error messages) after the out-of-loop checks.

    Repeats of a key must reproduce its first output; post checks may
    fail a whole key or add attempted checks of their own.
    """
    first: Dict[str, str] = {}
    for s in samples:
        if s.error is None:
            first.setdefault(s.key, s.digest)
            if s.digest != first[s.key]:
                s.error = "output differs from an earlier repeat"
    attempted = len(samples)
    extra_failed = 0
    errors = []
    try:
        checks = list(wl.post_checks(dict(first)))
    except Exception as exc:  # a crashing check is a failed check
        checks = [(None, f"post check raised {type(exc).__name__}: {exc}")]
    for key, error in checks:
        if key is None:
            attempted += 1
            extra_failed += error is not None
        if error is not None:
            errors.append(f"{key or 'check'}: {error}")
            for s in samples:
                if key is not None and s.key == key and s.error is None:
                    s.error = error
    errors.extend(f"{s.key}: {s.error}" for s in samples if s.error)
    failed = sum(s.error is not None for s in samples) + extra_failed
    return attempted, failed, errors
