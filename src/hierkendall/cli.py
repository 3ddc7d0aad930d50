"""Command-line interface.

Subcommands: fit, simulate, density, kendall, backtest, study. Exit
codes: 0 success, 2 input/configuration error, 3 numeric failure (a missed
tolerance, a non-finite density, an exhausted rejection budget) or
convergence warning (outputs are then still written). A library
``ParameterError`` naming an argument that a flag sets is reported under
that flag.

The model document given as ``--model`` (a config or a fit report) is the
one source of the settings it carries: ``kendall_mc_size``,
``epsilon_rule`` and ``seed``. The model's Monte Carlo Kendall functions
draw from the document's seed, so a model rebuilt from a fit report is
the fitted one bit for bit; ``simulate --seed`` picks only the stream of
the draw, and ``backtest --seed`` only the streams of the forecasts.
Outputs are byte-identical across runs of the same build.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .backtest import MARGIN_KINDS, rolling_backtest
from .copulas import clamp_interior
from .errors import (
    ConfigError,
    DataError,
    EvaluationError,
    HierKendallError,
    ParameterError,
    RejectionCapError,
    ToleranceError,
    check_count,
)
from .estimation import (
    STUDY_CSV_HEADER,
    FitOptions,
    StudyConfig,
    fit_joint_mle,
    fit_two_step,
    build_model,
    pseudo_observations,
    simulation_study,
    study_csv_line,
)
from .generators import FAMILIES, ArchimedeanGenerator, independence_generator
from .hierarchical import model_density, model_sample
from .kendall import closed_form_kendall, kendall_cdf
from .modelconfig import (
    _atomic_write,
    csv_text,
    load_model_document,
    read_csv,
    read_json,
    report_document,
    write_csv,
    write_json,
)
from .rngutil import STREAM_SIMULATE, substream

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierkendall",
        description="Hierarchical Kendall copulas: fitting, simulation, "
                    "Kendall functions, and VaR backtesting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="model config JSON")
    p.add_argument("--method", choices=("two-step", "mle"), default="two-step")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--raw", action="store_true",
                   help="treat data as raw values and rank-transform first")

    p = sub.add_parser("simulate", help="simulate uniforms from a model")
    p.add_argument("--model", required=True, help="config or fit report JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the draw (default: the document's seed)")
    p.add_argument("--method", choices=("auto", "exact", "rejection"), default="auto")
    p.add_argument("--out", required=True)

    p = sub.add_parser("density", help="evaluate the model density at one point")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")

    p = sub.add_parser("kendall", help="tabulate a Kendall distribution function")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--grid", type=int, default=99, help="number of grid points")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("backtest", help="rolling VaR backtest on CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--level", type=float, default=0.99)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--refit-every", type=int, default=25)
    p.add_argument("--mc", type=int, default=10_000)
    p.add_argument("--margins", choices=tuple(MARGIN_KINDS), default="empirical")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("study", help="nesting-parameter recovery study")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="StudyConfig overrides, JSON file")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="process workers for replications")
    return parser


def _load_for_simulation(path):
    """(config, model) of the document at ``path``, a config or a fit report,
    the model built from the document's own settings and seed."""
    config = load_model_document(path)
    return config, build_model(config.spec, n_vars=len(config.header),
                               kendall_mc=config.kendall_mc_size, seed=config.seed)


def _require_unit_interval(names, rows, what, hint=""):
    """Raise a DataError naming the first of ``names`` whose column of
    ``rows`` holds a value outside [0, 1] or not a number."""
    bad = np.flatnonzero(~np.all((rows >= 0.0) & (rows <= 1.0), axis=0))
    if bad.size:
        raise DataError(f"{what} {names[bad[0]]!r} holds a value not in [0, 1]{hint}")


def cmd_fit(args) -> int:
    header, data = read_csv(args.data)
    config = load_model_document(args.model, header)
    if args.raw:
        u = pseudo_observations(data)
    else:
        _require_unit_interval(header, data, "column",
                               "; pass --raw to rank-transform raw data")
        u = clamp_interior(data)
    options = FitOptions(kendall_mc=config.kendall_mc_size, seed=config.seed)
    report = fit_two_step(config.spec, u, options)
    if args.method == "mle":
        report = fit_joint_mle(report, u)
    doc = report_document(report, args.method, config)
    write_json(args.out, doc)
    print(f"fit: {len(report.nodes)} nodes, loglik(two-step)="
          f"{report.loglik_two_step:.4f}"
          + (f", loglik(joint)={report.loglik_joint:.4f}"
             if report.loglik_joint is not None else "")
          + f", AIC={report.aic:.2f}, BIC={report.bic:.2f} -> {args.out}")
    if not report.converged:
        print("warning: optimizer did not fully converge; "
              "best iterate reported", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, model = _load_for_simulation(args.model)
    rng = substream(config.seed if args.seed is None else args.seed, STREAM_SIMULATE)
    u = model_sample(model, args.n, rng, method=args.method, eps_rule=config.epsilon_rule)
    write_csv(args.out, config.header, u)
    print(f"simulate: wrote {args.n} x {model.n_vars} -> {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    config, model = _load_for_simulation(args.model)
    coords = args.point.split(",")
    if len(coords) != model.n_vars:
        raise ParameterError(
            f"point has {len(coords)} coordinates, model expects {model.n_vars}", "point")
    point = np.empty(len(coords))
    for i, (x, name) in enumerate(zip(coords, config.header)):
        try:
            point[i] = float(x)
        except ValueError:
            raise ParameterError(f"coordinate {i + 1} ({name!r}) is not a number: "
                                 f"{x!r}", "point") from None
    _require_unit_interval(config.header, point[None, :], "coordinate")
    print(repr(model_density(model, point)))
    return EXIT_OK


def cmd_kendall(args) -> int:
    check_count("grid", args.grid, 1)
    if args.family == "independence":
        gen = independence_generator()
    else:
        if args.theta is None:
            raise HierKendallError(f"--theta required for family {args.family}")
        gen = ArchimedeanGenerator(args.family, args.theta)
    kf = closed_form_kendall(gen, args.dim)
    t = np.arange(1, args.grid + 1) / (args.grid + 1.0)
    grid = np.column_stack([t, kendall_cdf(kf, t)])
    if args.out:
        write_csv(args.out, ["t", "K"], grid)
        print(f"kendall: wrote {args.grid} grid points -> {args.out}")
    else:
        print(csv_text(["t", "K"], grid), end="")
    return EXIT_OK


def cmd_backtest(args) -> int:
    header, data = read_csv(args.data)
    config = load_model_document(args.model, header)
    report = rolling_backtest(
        data, config.spec, level=args.level, window=args.window, horizon=args.horizon,
        refit_every=args.refit_every, mc=args.mc, margin_kind=args.margins,
        seed=config.seed if args.seed is None else args.seed, eps_rule=config.epsilon_rule,
        fit_options=FitOptions(kendall_mc=config.kendall_mc_size, seed=config.seed))
    doc = {
        "format": "hierkendall-backtest/1",
        "level": args.level,
        "window": report.window,
        "horizon": report.horizon,
        "n_exceed": report.n_exceed,
        "expected_exceed": round((1.0 - args.level) * report.horizon, 4),
        "lr_uc": round(report.lr_uc, 6),
        "lr_ind": round(report.lr_ind, 6),
        "lr_cc": round(report.lr_cc, 6),
        "p_uc": round(report.p_uc, 4),
        "p_ind": round(report.p_ind, 4),
        "p_cc": round(report.p_cc, 4),
        "degenerate": report.degenerate,
        "var_series": [float(v) for v in report.var_series],
    }
    write_json(args.out, doc)
    print(f"backtest: level={args.level:.0%} exceedances={report.n_exceed}/"
          f"{report.horizon} UC={report.p_uc:.2f}"
          + ("" if report.degenerate else
             f" IND={report.p_ind:.2f} CC={report.p_cc:.2f}")
          + f" -> {args.out}")
    if report.degenerate:
        print("warning: degenerate hit series; independence test unavailable",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_study(args) -> int:
    settings = {f.name for f in dataclasses.fields(StudyConfig)}
    overrides = {}
    if args.config:
        overrides = read_json(args.config, "study config")
        if not isinstance(overrides, dict):
            raise ConfigError(f"{args.config}: study overrides must be a JSON object")
        unknown = sorted(set(overrides) - settings)
        if unknown:
            raise ConfigError(f"{args.config}: unknown study settings {unknown}")
    # a flag named after a setting overrides the file; StudyConfig checks the values
    overrides.update((k, v) for k, v in vars(args).items() if k in settings and v is not None)
    config = StudyConfig(**overrides)
    check_count("threads", args.threads, 1)
    rows = simulation_study(config, workers=args.threads)
    lines = [STUDY_CSV_HEADER] + [study_csv_line(r) for r in rows]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"study: {len(rows)} cells ({config.replications} replications each) "
          f"-> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "density": cmd_density,
    "kendall": cmd_kendall,
    "backtest": cmd_backtest,
    "study": cmd_study,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ToleranceError, EvaluationError, RejectionCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HierKendallError as exc:
        # a library argument that a flag sets is named after the flag
        flag = getattr(exc, "argument", None)
        prefix = f"--{flag.replace('_', '-')}: " if flag in vars(args) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
