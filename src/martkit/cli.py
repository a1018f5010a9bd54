"""Command-line front end for bound evaluation and simulation.

Subcommands: ``bound`` (closed-form envelopes over an x-grid),
``simulate`` (tail estimates), ``verify`` (hard-assertion suite),
``calibrate`` (smallest working constant), ``regress`` and ``selfnorm``
(the two applications).  Output is CSV (comma separator, ``.`` decimal
point, LF endings, UTF-8, mandatory header, floats at 17 significant
digits) or JSON with the run manifest inline; CSV runs place the
manifest in ``<out>.manifest.json``.

Exit codes: 0 success, 2 flag/usage errors, 3 mathematically invalid
inputs, 4 verification-suite violations.  The default seed is 0,
overridable by the MARTKIT_SEED environment variable and then by
``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import List, Optional, Sequence

# Only the closed-form layers load with the command line.  applications,
# martingales and montecarlo (and with them numpy) are imported by the
# subcommands that need them, so ``bound`` starts without numpy.
from . import __version__
from .bounds import (CALIBRATION_ENVELOPES, BernsteinParams, BoundConstant,
                     MomentSummary, classical_envelopes, corollary_envelope,
                     de_la_pena_bennett, lambda_bar, nonuniform_be_envelope,
                     regression_envelope, self_norm_envelope,
                     strengthened_tail_envelope, wang_jing_bound)
from .errors import ConfigError, DomainError, UnsupportedModelError
from .gaussian import mills_sandwich, std_normal_log_sf

__all__ = ["RunManifest", "build_parser", "main"]

BOUND_TOKENS = ("thm21", "thm22", "cor21", "dlp", "mc-sandwich",
                "classical", "wang-jing", "regression", "selfnorm")

MODEL_TOKENS = ("rademacher", "variance-switch", "selfnorm", "regression")

# flag token -> name of the martingales.NoiseFamily member
_NOISE_BY_TOKEN = {"rademacher": "RADEMACHER_SCALED",
                   "three-point": "TRUNCATED_SYMMETRIC"}


def _noise(token: str):
    from .martingales import NoiseFamily
    return NoiseFamily[_NOISE_BY_TOKEN[token]]


# ---------------------------------------------------------------------------
# manifest and serialization


@dataclass
class RunManifest:
    """Provenance record emitted with every command's output files."""

    command: str
    parameters: dict
    seed: int
    toolkit_version: str
    started_at: str
    finished_at: str
    outputs: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parameters(args: argparse.Namespace) -> dict:
    # every flag value is a str, int, float, bool or None: JSON as it is
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _fmt(v) -> str:
    """17-significant-digit float formatting; empty cell for None."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _write_csv(out: str, header: Sequence[str], rows, manifest: RunManifest):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    manifest.outputs.append(out)
    manifest.finished_at = _now()
    side = out + ".manifest.json"
    manifest.outputs.append(side)
    with open(side, "w", encoding="utf-8", newline="") as f:
        json.dump(manifest.to_dict(), f, indent=2)
        f.write("\n")


def _write_json(out: str, payload: dict, manifest: RunManifest):
    if out != "-":
        manifest.outputs.append(out)
    manifest.finished_at = _now()
    blob = {"manifest": manifest.to_dict()}
    blob.update(payload)
    text = json.dumps(blob, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _emit(args, manifest: RunManifest, header, rows, payload: dict):
    if args.format == "csv":
        _write_csv(args.out, header, rows, manifest)
    else:
        _write_json(args.out, payload, manifest)


# ---------------------------------------------------------------------------
# flag plumbing


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MARTKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"MARTKIT_SEED must be an integer, got {env!r}") from exc
    return 0


# Most points an --x-from/--x-to/--x-step grid may have.
X_GRID_MAX_POINTS = 10 ** 6


def _float_list(text: str, flag: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _x_grid(args) -> List[float]:
    """The points lo, lo + step, ... up to hi, at most X_GRID_MAX_POINTS.

    The point count is checked before anything is built, so a tiny step
    is a flag error (exit 2), not an attempt at an unbounded list.
    """
    lo, hi, step = args.x_from, args.x_to, args.x_step
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError("x grid flags must be finite")
    if hi < lo:
        raise ConfigError(f"--x-to ({hi}) must be >= --x-from ({lo})")
    if lo == hi:
        return [lo]
    if step <= 0.0:
        raise ConfigError(f"--x-step must be positive, got {step}")
    last = (hi - lo) / step + 1e-9     # inf when the quotient overflows
    if not last < X_GRID_MAX_POINTS:
        raise ConfigError(
            f"x grid from {lo} to {hi} in steps of {step} has more than "
            f"{X_GRID_MAX_POINTS} points")
    count = int(math.floor(last)) + 1
    return [lo + i * step for i in range(count)]


def _model_from_flags(args) -> object:
    from .martingales import (RegressionModel, ScaledRademacher,
                              SelfNormalized, VarianceSwitch)
    token = args.model
    if token == "rademacher":
        if args.weights is not None:
            return ScaledRademacher(tuple(_float_list(args.weights,
                                                      "--weights")))
        if args.n is None:
            raise ConfigError("rademacher model needs --n or --weights")
        return ScaledRademacher.equal_weights(args.n)
    if args.n is None:
        raise ConfigError(f"{token} model needs --n")
    if token == "variance-switch":
        return VarianceSwitch(n=args.n, delta=args.delta)
    if token == "selfnorm":
        return SelfNormalized(n=args.n, magnitude_low=args.a,
                              magnitude_high=args.b)
    if token == "regression":
        return RegressionModel(theta=args.theta, n=args.n,
                               covariate_low=args.a, covariate_high=args.b,
                               sigma=args.sigma,
                               noise=_noise(args.noise))
    raise ConfigError(f"unknown model {token!r}")


def _sim_config(args):
    from .montecarlo import SimulationConfig
    return SimulationConfig(_model_from_flags(args), paths=args.paths,
                            seed=_resolve_seed(args),
                            chunk_size=args.chunk_size,
                            confidence_level=args.level,
                            workers=args.workers,
                            exhaustive=args.exhaustive)


def _add_output_flags(p: argparse.ArgumentParser, default_format="csv"):
    p.add_argument("--format", choices=("csv", "json"),
                   default=default_format)
    p.add_argument("--out", default="-",
                   help="output path; '-' writes to stdout")


def _add_grid_flags(p: argparse.ArgumentParser, lo=0.0, hi=4.0, step=0.5):
    p.add_argument("--x-from", type=float, default=lo)
    p.add_argument("--x-to", type=float, default=hi)
    p.add_argument("--x-step", type=float, default=step)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=MODEL_TOKENS, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--weights",
                   help="comma-separated step scales (rademacher only)")
    p.add_argument("--delta", type=float, default=0.5,
                   help="characteristic half-band (variance-switch)")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--noise", choices=tuple(_NOISE_BY_TOKEN),
                   default="rademacher")


def _add_mc_flags(p: argparse.ArgumentParser, paths: int):
    p.add_argument("--paths", type=int, default=paths)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=8192)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--level", type=float, default=0.99,
                   help="confidence level for intervals")
    p.add_argument("--exhaustive", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force or forbid exact enumeration (default: auto)")


# ---------------------------------------------------------------------------
# bound evaluation


def _bound_rows(args, xs: List[float]):
    c = BoundConstant(args.C)
    token = args.envelope
    rows = []

    def put(x, xh, lb, value, log_value, variant=None):
        rows.append((x, xh, lb, value, log_value, variant))

    if token in ("thm21", "thm22"):
        params = BernsteinParams(args.epsilon, args.delta)
        for x in xs:
            lb = lambda_bar(abs(x), params)
            env = (nonuniform_be_envelope(x, params, c) if token == "thm21"
                   else strengthened_tail_envelope(x, params, c))
            put(x, env.xhat, lb, env.value, env.log_value)
    elif token == "cor21":
        for x in xs:
            env = corollary_envelope(x, args.epsilon, args.qc_l1, c)
            put(x, None, None, env.value, env.log_value)
    elif token == "dlp":
        v = math.sqrt(1.0 + args.delta * args.delta)
        for x in xs:
            env = de_la_pena_bennett(x, v, args.epsilon)
            put(x, None, None, env.value, env.log_value)
    elif token == "mc-sandwich":
        for x in xs:
            lo, hi = mills_sandwich(x)
            mid_log = std_normal_log_sf(x) + 0.5 * x * x
            put(x, None, None, lo, math.log(lo), "lower")
            put(x, None, None, math.exp(mid_log), mid_log, "exact")
            put(x, None, None, hi, math.log(hi), "upper")
    elif token == "classical":
        moments = MomentSummary(third_moments_sum=args.third_moments,
                                truncated_second=args.trunc_second,
                                truncated_third=args.trunc_third,
                                qc_deviation_moment=args.qc_moment)
        for x in xs:
            ce = classical_envelopes(x, moments, args.delta_m, c)
            for name, value in (("bikelis", ce.bikelis),
                                ("chen_shao", ce.chen_shao),
                                ("haeusler_joos", ce.haeusler_joos)):
                put(x, None, None, value,
                    math.log(value) if value > 0.0 else -math.inf, name)
    elif token == "wang-jing":
        for x in xs:
            value = wang_jing_bound(x, args.l3n, args.tail_sum, c)
            put(x, None, None, value,
                math.log(value) if value > 0.0 else -math.inf)
    elif token in ("regression", "selfnorm"):
        if not 0.0 < args.epsilon <= 0.5:
            raise DomainError(
                "the application envelopes require the effective step "
                f"scale in (0, 1/2], got {args.epsilon}")
        params = BernsteinParams(args.epsilon)
        for x in xs:
            if token == "regression":
                env = regression_envelope(x, args.epsilon, c).nonuniform
            else:
                env = self_norm_envelope(x, args.epsilon, c).envelope
            put(x, env.xhat, lambda_bar(abs(x), params), env.value,
                env.log_value)
    else:
        raise ConfigError(f"unknown envelope {token!r}")
    return rows


def cmd_bound(args, manifest: RunManifest) -> int:
    xs = _x_grid(args)
    rows = _bound_rows(args, xs)
    header = ["x", "xhat", "lambda_bar", "value", "log_value"]
    if any(r[5] is not None for r in rows):
        header.append("variant")
    else:
        rows = [r[:5] for r in rows]
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    _emit(args, manifest, header, rows, payload)
    return 0


# ---------------------------------------------------------------------------
# simulation commands


_TAIL_HEADER = ("x", "p_hat", "ci_lo", "ci_hi", "method",
                "effective_samples", "seed")


def _tail_row(est):
    return (est.x, est.p_hat, est.ci_lo, est.ci_hi, est.method.value,
            est.effective_samples, est.seed)


def cmd_simulate(args, manifest: RunManifest) -> int:
    from .montecarlo import estimate_tail_is, estimate_tail_plain_grid
    config = _sim_config(args)
    xs = _x_grid(args)
    if args.estimator == "plain":
        if args.tilt is not None:
            raise ConfigError("--tilt applies to --estimator is only")
        estimates = estimate_tail_plain_grid(config, xs)
    else:
        estimates = [estimate_tail_is(config, x, tilt=args.tilt) for x in xs]
    rows = [_tail_row(e) for e in estimates]
    payload = {"rows": [dict(zip(_TAIL_HEADER, r)) for r in rows]}
    _emit(args, manifest, _TAIL_HEADER, rows, payload)
    return 0


_VERIFY_HEADER = ("record", "name", "lam", "mean", "se", "chunk", "row",
                  "detail")


def cmd_verify(args, manifest: RunManifest) -> int:
    from .montecarlo import run_verification_suite
    config = _sim_config(args)
    fractions = tuple(_float_list(args.lam_fractions, "--lam-fractions"))
    levels = tuple(_float_list(args.levels, "--levels")) \
        if args.levels else ()
    report = run_verification_suite(config, lam_fractions=fractions,
                                    domination_levels=levels)
    rows = []
    rows.append(("condition", "a1-moments", None, None, None, None, None,
                 "pass" if report.a1_passed else "fail"))
    rows.append(("condition", "a2-band", None, None, None, None, None,
                 _fmt(report.a2_bound)))
    for name in report.checks_run:
        rows.append(("check", name, None, None, None, None, None, "run"))
    for lam, mean, se in report.z_stats:
        rows.append(("z_stat", "z-sample-mean", lam, mean, se, None, None,
                     ""))
    for v in report.violations:
        rows.append(("violation", v.check, None, None, None, v.chunk_index,
                     v.row, v.detail))
    payload = {
        "passed": report.passed,
        "a1_passed": report.a1_passed,
        "a2_bound": report.a2_bound,
        "checks_run": list(report.checks_run),
        "z_stats": [{"lam": l, "mean": m, "se": s}
                    for l, m, s in report.z_stats],
        "violations": [{"check": v.check, "chunk": v.chunk_index,
                        "row": v.row, "detail": v.detail}
                       for v in report.violations],
    }
    _emit(args, manifest, _VERIFY_HEADER, rows, payload)
    if not report.passed:
        print(f"verification failed: {len(report.violations)} violation(s); "
              f"replay with seed {config.seed}", file=sys.stderr)
        return 4
    return 0


_CAL_HEADER = ("x", "empirical", "unit", "per_point_c", "c_hat")


def cmd_calibrate(args, manifest: RunManifest) -> int:
    from .montecarlo import calibrate_constant
    config = _sim_config(args)
    result = calibrate_constant(config, args.envelope, _x_grid(args))
    rows = [(x, e, u, pc, result.c_hat)
            for x, e, u, pc in zip(result.xs, result.empirical, result.units,
                                   result.per_point_c)]
    payload = {
        "envelope": result.envelope,
        "c_hat": result.c_hat,
        "paths": result.paths,
        "rows": [dict(zip(_CAL_HEADER, r)) for r in rows],
    }
    _emit(args, manifest, _CAL_HEADER, rows, payload)
    return 0


# ---------------------------------------------------------------------------
# application commands


def cmd_regress(args, manifest: RunManifest) -> int:
    from .applications import (RegressionData, regression_ci,
                               regression_coverage, regression_report)
    from .martingales import RegressionModel
    if args.data is None and args.coverage is None:
        raise ConfigError("regress needs --data and/or --coverage")
    noise = _noise(args.noise)
    c = BoundConstant(args.C)
    xs = _x_grid(args)
    payload: dict = {}
    rows = []
    if args.data is not None:
        data = RegressionData.from_csv(args.data, sigma=args.sigma)
        report = regression_report(data, noise, theta=args.theta,
                                   x_grid=xs, c=c)
        eps = args.eps if args.eps is not None else report.eps
        ci = regression_ci(data, eps, args.level, c,
                           use_envelope=args.use_envelope)
        payload["report"] = report.to_dict()
        payload["ci"] = ci.to_dict()
        rows.extend(("envelope", x, v) for x, v in
                    sorted(report.envelope_at.items()))
        rows.append(("theta_hat", None, report.theta_hat))
        rows.append(("eps", None, report.eps))
        rows.append(("ci_lo", None, ci.lo))
        rows.append(("ci_hi", None, ci.hi))
        rows.append(("x_star", None, ci.x_star))
    if args.coverage is not None:
        if args.n is None:
            raise ConfigError("--coverage needs the model flags (--n ...)")
        model = RegressionModel(theta=args.theta if args.theta is not None
                                else 0.0, n=args.n, covariate_low=args.a,
                                covariate_high=args.b, sigma=args.sigma,
                                noise=noise)
        cov = regression_coverage(model, args.level, args.coverage,
                                  manifest.seed, c=c,
                                  chunk_size=args.chunk_size,
                                  workers=args.workers,
                                  use_envelope=args.use_envelope)
        payload["coverage"] = cov.to_dict()
        rows.append(("coverage_rate", None, cov.rate))
        rows.append(("coverage_x_star", None, cov.x_star))
    _emit(args, manifest, ("kind", "x", "value"), rows, payload)
    return 0


def cmd_selfnorm(args, manifest: RunManifest) -> int:
    from .applications import self_norm_report
    if (args.sample is None) == (args.data is None):
        raise ConfigError("selfnorm needs exactly one of --sample, --data")
    if args.sample is not None:
        sample = _float_list(args.sample, "--sample")
    else:
        sample = _read_sample(args.data)
    report = self_norm_report(sample, eps=args.eps, x_grid=_x_grid(args),
                              c=BoundConstant(args.C))
    rows = [("statistic", None, report.statistic),
            ("eps", None, report.eps)]
    rows.extend(("envelope", x, v)
                for x, v in sorted(report.envelope_at.items()))
    for x, (lo, hi, _valid) in sorted(report.band_at.items()):
        rows.append(("band_lo", x, lo))
        rows.append(("band_hi", x, hi))
    _emit(args, manifest, ("kind", "x", "value"), rows,
          {"report": report.to_dict()})
    return 0


def _read_sample(path: str) -> List[float]:
    with open(path, encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or lines[0] != "xi":
        raise ConfigError(f"expected single-column header 'xi' in {path}")
    try:
        return [float(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martkit",
        description="martingale tail bounds and their empirical verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate a closed-form envelope")
    p.add_argument("--envelope", choices=BOUND_TOKENS, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--qc-l1", type=float, default=0.0,
                   help="E|<S>_n - 1| (cor21)")
    p.add_argument("--l3n", type=float, default=0.0,
                   help="normalized third-moment sum (wang-jing)")
    p.add_argument("--tail-sum", type=float, default=0.0,
                   help="step truncation probability sum (wang-jing)")
    p.add_argument("--third-moments", type=float, default=0.0)
    p.add_argument("--trunc-second", type=float, default=0.0)
    p.add_argument("--trunc-third", type=float, default=0.0)
    p.add_argument("--qc-moment", type=float, default=0.0)
    p.add_argument("--delta-m", type=float, default=1.0,
                   help="extra moment order (classical)")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="estimate tail probabilities")
    _add_model_flags(p)
    _add_mc_flags(p, paths=100000)
    p.add_argument("--estimator", choices=("plain", "is"), default="plain")
    p.add_argument("--tilt", type=float, default=None,
                   help="explicit tilt level (is estimator)")
    _add_grid_flags(p, lo=0.5, hi=2.0, step=0.5)
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the hard-assertion suite")
    _add_model_flags(p)
    _add_mc_flags(p, paths=100000)
    p.add_argument("--lam-fractions", default="0.1,0.5,0.9",
                   help="tilt levels as fractions of 1/eps, each in [0, 1)")
    p.add_argument("--levels", default="0.5,1,1.5,2,2.5,3,3.5,4",
                   help="tail-domination levels; empty string disables")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("calibrate",
                       help="fit the smallest constant that dominates")
    _add_model_flags(p)
    _add_mc_flags(p, paths=200000)
    p.add_argument("--envelope", choices=CALIBRATION_ENVELOPES,
                   required=True)
    _add_grid_flags(p, lo=0.0, hi=3.0, step=0.5)
    _add_output_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("regress",
                       help="least-squares report, interval, coverage")
    p.add_argument("--data", help="CSV with header phi,x")
    p.add_argument("--noise", choices=tuple(_NOISE_BY_TOKEN),
                   default="rademacher")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=None,
                   help="true slope (standardized error / coverage)")
    p.add_argument("--eps", type=float, default=None,
                   help="override the effective step scale")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--use-envelope", action="store_true",
                   help="invert the additive envelope instead of the band")
    p.add_argument("--coverage", type=int, default=None,
                   help="run a coverage experiment with this many datasets")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=1024)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--level", type=float, default=0.95)
    _add_grid_flags(p, lo=0.0, hi=3.0, step=0.5)
    _add_output_flags(p, default_format="json")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("selfnorm", help="self-normalized statistic report")
    p.add_argument("--sample", help="comma-separated values")
    p.add_argument("--data", help="single-column file with header xi")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--C", type=float, default=1.0)
    _add_grid_flags(p, lo=0.0, hi=3.0, step=0.5)
    _add_output_flags(p, default_format="json")
    p.set_defaults(func=cmd_selfnorm)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # bound draws nothing, so it records seed 0 and ignores MARTKIT_SEED
        seed = 0 if args.command == "bound" else _resolve_seed(args)
        manifest = RunManifest(command=args.command,
                               parameters=_parameters(args), seed=seed,
                               toolkit_version=__version__,
                               started_at=_now(), finished_at="")
        return args.func(args, manifest)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
