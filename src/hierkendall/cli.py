"""Command-line interface.

Subcommands: fit, simulate, density, kendall, backtest, study. Exit
codes: 0 success, 2 input/configuration error, 3 numeric failure (a missed
tolerance, a non-finite density, an exhausted rejection budget) or
convergence warning (outputs are then still written). All randomness
derives from the --seed flag (or the config's seed), so outputs are
byte-identical across runs of the same build.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .backtest import rolling_backtest
from .errors import (
    ConfigError,
    DataError,
    EvaluationError,
    HierKendallError,
    RejectionCapError,
    ToleranceError,
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
from .generators import ArchimedeanGenerator, independence_generator
from .hierarchical import model_density, model_sample
from .kendall import MIN_KENDALL_MC, closed_form_kendall, kendall_cdf
from .levelset import DEFAULT_MAX_ATTEMPTS, EpsilonRule
from .modelconfig import (
    _atomic_write,
    config_to_spec,
    load_model_document,
    read_csv,
    report_document,
    write_csv,
    write_json,
)
from .rngutil import substream

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _add_epsilon_flags(p):
    p.add_argument("--epsilon", type=float, default=None,
                   help="rejection acceptance half-width (default from config)")
    p.add_argument("--epsilon-mode", choices=("abs", "rel"), default=None,
                   help="interpret --epsilon absolutely or relative to z")
    p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                   help="rejection sampling attempt cap")


def _epsilon_rule(args, config) -> EpsilonRule:
    mode = args.epsilon_mode or config.epsilon_rule.mode
    value = args.epsilon if args.epsilon is not None else config.epsilon_rule.value
    return EpsilonRule(mode, value)


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
    p.add_argument("--kendall-mc", type=int, default=None)
    p.add_argument("--kendall-mode", choices=("auto", "closed_form", "empirical"),
                   default="auto")
    p.add_argument("--raw", action="store_true",
                   help="treat data as raw values and rank-transform first")

    p = sub.add_parser("simulate", help="simulate uniforms from a model")
    p.add_argument("--model", required=True, help="config or fit report JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--method", choices=("auto", "exact", "rejection"), default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--kendall-mc", type=int, default=None)
    _add_epsilon_flags(p)

    p = sub.add_parser("density", help="evaluate the model density at one point")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--kendall-mc", type=int, default=None)

    p = sub.add_parser("kendall", help="tabulate a Kendall distribution function")
    p.add_argument("--family", required=True,
                   choices=("independence", "clayton", "gumbel", "frank"))
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
    p.add_argument("--margins", choices=("empirical", "normal", "student_t"),
                   default="empirical")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--kendall-mc", type=int, default=None)
    _add_epsilon_flags(p)

    p = sub.add_parser("study", help="nesting-parameter recovery study")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="StudyConfig overrides, JSON file")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="process workers for replications")
    return parser


def _load_spec(args, header=None):
    """(config, header, spec) from the ``--model`` file, a config or a fit
    report, with ``--kendall-mc`` applied. Without a data ``header`` the
    report's columns, or else the config's own column order, are used."""
    config, columns = load_model_document(args.model)
    if args.kendall_mc is not None:
        if args.kendall_mc < MIN_KENDALL_MC:
            raise ConfigError(f"--kendall-mc must be at least {MIN_KENDALL_MC}, "
                              f"got {args.kendall_mc}")
        config.kendall_mc_size = args.kendall_mc
    if header is None:
        header = columns if columns else list(config.column_names)
    return config, header, config_to_spec(config, header)


def _load_for_simulation(args):
    config, header, spec = _load_spec(args)
    seed = config.seed if getattr(args, "seed", None) is None else args.seed
    model = build_model(spec, n_vars=len(header),
                        kendall_mc=config.kendall_mc_size, seed=seed)
    return config, header, model, seed


def _require_unit_interval(names, rows, what, hint=""):
    """Raise a DataError naming the first of ``names`` whose column of
    ``rows`` holds a value outside [0, 1] or not a number."""
    bad = np.flatnonzero(~np.all((rows >= 0.0) & (rows <= 1.0), axis=0))
    if bad.size:
        raise DataError(f"{what} {names[bad[0]]!r} holds a value not in [0, 1]{hint}")


def cmd_fit(args) -> int:
    header, data = read_csv(args.data)
    config, _, spec = _load_spec(args, header)
    if args.raw:
        u = pseudo_observations(data)
    else:
        _require_unit_interval(header, data, "column",
                               "; pass --raw to rank-transform raw data")
        u = np.clip(data, 1e-12, 1 - 1e-12)
    options = FitOptions(kendall_mode=args.kendall_mode,
                         kendall_mc=config.kendall_mc_size, seed=config.seed)
    report = fit_two_step(spec, u, options)
    if args.method == "mle":
        report = fit_joint_mle(report, u, options)
    doc = report_document(report, args.method, header, config)
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
    config, header, model, seed = _load_for_simulation(args)
    rng = substream(seed, 0)
    u = model_sample(model, args.n, rng, method=args.method,
                     eps_rule=_epsilon_rule(args, config),
                     max_attempts=args.max_attempts)
    write_csv(args.out, header, u)
    print(f"simulate: wrote {args.n} x {len(header)} -> {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    config, header, model, _ = _load_for_simulation(args)
    point = np.array([float(x) for x in args.point.split(",")])
    if point.size != len(header):
        raise HierKendallError(
            f"point has {point.size} coordinates, model expects {len(header)}")
    _require_unit_interval(header, point[None, :], "coordinate")
    print(repr(model_density(model, point)))
    return EXIT_OK


def cmd_kendall(args) -> int:
    if args.family == "independence":
        gen = independence_generator()
    else:
        if args.theta is None:
            raise HierKendallError(f"--theta required for family {args.family}")
        gen = ArchimedeanGenerator(args.family, args.theta)
    kf = closed_form_kendall(gen, args.dim)
    t = np.arange(1, args.grid + 1) / (args.grid + 1.0)
    k = kendall_cdf(kf, t)
    if args.out:
        write_csv(args.out, ["t", "K"], np.column_stack([t, k]))
        print(f"kendall: wrote {args.grid} grid points -> {args.out}")
    else:
        print("t,K")
        for ti, ki in zip(t, k):
            print(f"{float(ti)!r},{float(ki)!r}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    header, data = read_csv(args.data)
    config, _, spec = _load_spec(args, header)
    seed = config.seed if args.seed is None else args.seed
    report = rolling_backtest(
        data, spec, level=args.level, window=args.window, horizon=args.horizon,
        refit_every=args.refit_every, mc=args.mc, margin_kind=args.margins,
        seed=seed, eps_rule=_epsilon_rule(args, config),
        max_attempts=args.max_attempts,
        fit_options=FitOptions(kendall_mc=config.kendall_mc_size, seed=seed))
    doc = {
        "format": "hierkendall-backtest/1",
        "level": args.level,
        "window": report.window,
        "horizon": report.horizon,
        "n_exceed": report.n_exceed,
        "expected_exceed": round((1.0 - args.level) * report.horizon, 4),
        "lr_uc": round(report.lr_uc, 6),
        "lr_ind": _round_or_nan(report.lr_ind),
        "lr_cc": _round_or_nan(report.lr_cc),
        "p_uc": round(report.p_uc, 4),
        "p_ind": _round_or_nan(report.p_ind, 4),
        "p_cc": _round_or_nan(report.p_cc, 4),
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


def _round_or_nan(x, digits: int = 6):
    return None if x is None or not np.isfinite(x) else round(float(x), digits)


def cmd_study(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["seed"] = args.seed
    for key in ("cluster_families", "cluster_taus", "nesting_taus",
                "sample_sizes", "methods"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    config = dataclasses.replace(StudyConfig(), **overrides)
    rows = simulation_study(config, workers=max(1, args.threads))
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
