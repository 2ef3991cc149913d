"""Command-line entry point: run experiments, sweep ablations, solve payoff
matrices, and render plots.

`run` and every `sweep` arm go through `run_config`, which checks the run
description before it writes anything.

The log level comes from the GAMEPOP_LOG_LEVEL environment variable; all
other behavior is controlled by config files and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import meta_solvers
from .config import ConfigError, config_to_dict, load_config, parse_config
from .engine import SOLVERS, EngineError, _build_arena, _RunWriter, run_psro
from .policies import PolicyError, checkpoint_loads
from .specs import lookup
from .svgplot import RENDER_KINDS, PlotError, render_svg

log = logging.getLogger("gamepop")

SWEEP_PARAMS = ("fusion_start_c", "top_k", "mss", "init")


def _checked_arena(config):
    """`_build_arena(config)`, its refusal raised as a ConfigError."""
    try:
        return _build_arena(config)
    except EngineError as exc:
        raise ConfigError(str(exc)) from exc


def run_config(config, out: str) -> list:
    """Run every seed of `config` into `out`: check the run description,
    echo it to `config.json`, and run each seed into `seed_<n>`. A run
    description `_build_arena` refuses raises ConfigError with nothing
    written. Returns each seed's last iteration record."""
    _checked_arena(config)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    finals = []
    for seed in config.seeds:
        log.info("running seed %d", seed)
        history = run_psro(config, seed, os.path.join(out, f"seed_{seed}"))
        final = history.records[-1]
        log.info("seed %d done: exploitability=%s approx=%s", seed,
                 final.exploitability, final.approx_exploitability)
        finals.append(final)
    return finals


def run_from_config(path: str, output_dir: str | None = None) -> int:
    """Execute every seed of a config; returns a process exit status."""
    config = load_config(path)
    out = output_dir or config.output_dir
    if out is None:
        raise ConfigError("output_dir: required to run an experiment")
    run_config(config, out)
    return 0


def _arm(base, param: str, value: str, out: str):
    """The sweep arm of `base` with `param` set to `value`, run into
    `out`."""
    data = config_to_dict(base)
    data["output_dir"] = out
    if param == "mss":
        data["mss"] = {"kind": value}
    elif param == "init":
        data["init"] = {"method": value}
    else:
        try:
            number = ("all" if param == "top_k" and value == "all"
                      else int(value))
        except ValueError:
            raise ConfigError(f"sweep over {param}: value {value!r} is not "
                              "an integer") from None
        for target in data["init"].values():
            if target["method"] != "nash_fusion":
                raise ConfigError(
                    f"sweep over {param} needs a nash_fusion init method")
            target["c" if param == "fusion_start_c" else "top_k"] = number
    return parse_config(data)


def sweep(path: str, param: str, values: list[str],
          output_dir: str | None = None) -> int:
    """One run set per parameter value; writes a mean/min/max summary."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep param {param!r}; "
                          f"valid: {SWEEP_PARAMS}")
    base = load_config(path)
    out = output_dir or base.output_dir
    if out is None:
        raise ConfigError("output_dir: required to run a sweep")
    evals = base.eval
    if not evals.exact_exploitability_every and evals.approx_oracle is None:
        raise ConfigError("eval: a sweep summarizes the final exploitability; "
                          "enable exact or approximate evaluation")
    arms = [(value, _arm(base, param, value,
                         os.path.join(out, f"{param}_{value}")))
            for value in values]
    for _, config in arms:
        _checked_arena(config)
    summary = []
    for value, config in arms:
        finals = [rec.approx_exploitability if rec.exploitability is None
                  else rec.exploitability
                  for rec in run_config(config, config.output_dir)]
        summary.append((value, float(np.mean(finals)), float(min(finals)),
                        float(max(finals))))
        log.info("%s=%s: mean=%.6f min=%.6f max=%.6f", param, value,
                 *summary[-1][1:])
    os.makedirs(out, exist_ok=True)
    summary_path = os.path.join(out, "sweep_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["param", "value", "exploitability_mean",
                    "exploitability_min", "exploitability_max"])
        for value, mean, lo, hi in summary:
            w.writerow([param, value, repr(mean), repr(lo), repr(hi)])
    print(summary_path)
    return 0


def evaluate_run(run_dir: str) -> int:
    """Re-evaluate a finished seed directory: rebuild the population from
    the checkpoints of the iterations its `results.csv` records, re-solve
    the meta-strategy from the last one's payoff matrix, and report the
    profile's exploitability."""
    config_path = os.path.join(os.path.dirname(os.path.abspath(run_dir)),
                               "config.json")
    if not os.path.exists(config_path):
        raise ConfigError(f"{config_path}: config echo not found next to "
                          "the run directory")
    config = load_config(config_path)
    try:
        seed = int(os.path.basename(os.path.normpath(run_dir)).split("_")[-1])
    except ValueError as exc:
        raise ConfigError(f"{run_dir}: expected a seed_<n> directory") from exc
    arena = _checked_arena(config)

    # The run's iterations are the rows of results.csv: a run that stopped
    # within an iteration may have written that iteration's checkpoints.
    results = os.path.join(run_dir, "results.csv")
    pops = arena.initial_populations(seed)
    try:
        with open(results) as fh:
            rows = list(csv.reader(fh))  # a version line, a header, the rows
        if len(rows) < 3:
            raise ConfigError(f"{results}: records no iteration")
        last_iteration = int(rows[-1][0])
        for t in range(1, last_iteration + 1):
            for player in (0, 1):
                path = os.path.join(run_dir, _RunWriter.OUTPUTS[
                    "checkpoint"].format(t=t, player=player))
                with open(path) as fh:
                    try:
                        pops[player].append(checkpoint_loads(fh.read()))
                    except PolicyError as exc:
                        raise ConfigError(f"{path}: {exc}") from exc
        with open(os.path.join(run_dir, _RunWriter.OUTPUTS[
                "payoff_matrix"].format(t=last_iteration))) as fh:
            matrix = np.loadtxt(fh, skiprows=3, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"{exc.filename}: {exc.strerror}") from exc
    sigma_row, sigma_col = meta_solvers.solve(matrix, config.mss)
    value = arena.exploitability(pops, (sigma_row, sigma_col))
    print(f"iterations {last_iteration}")
    print(f"population {len(pops[0])} {len(pops[1])}")
    print(f"exploitability {float(value)!r}")
    return 0


def solve_matrix(path: str, mss: str) -> int:
    """Solve a payoff matrix from a JSON or whitespace-separated text file
    with the default solver of `mss.kind` `mss`; ConfigError, naming the
    file, if it holds no matrix the solver takes."""
    kind = lookup(SOLVERS.members, mss, "--mss", SOLVERS.noun, ConfigError)()
    try:
        with open(path) as fh:
            text = fh.read()
        try:
            matrix = np.array(json.loads(text), dtype=float)
        except (json.JSONDecodeError, TypeError, ValueError):
            matrix = np.loadtxt(path, ndmin=2)
        sigma_row, sigma_col = meta_solvers.solve(matrix, kind)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except (ValueError, meta_solvers.SolverError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    value = float(sigma_row @ matrix @ sigma_col)
    print("sigma_row " + " ".join(repr(float(p)) for p in sigma_row))
    print("sigma_col " + " ".join(repr(float(p)) for p in sigma_col))
    print(f"value {value!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamepop",
        description="Population-based solving of two-player zero-sum games")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config for every seed")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter ablation grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--output-dir", default=None)

    p_eval = sub.add_parser("eval",
                            help="re-evaluate a finished seed directory")
    p_eval.add_argument("--run-dir", required=True)

    p_solve = sub.add_parser("solve-matrix",
                             help="solve a zero-sum payoff matrix")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--mss", default="nash",
                         choices=sorted(SOLVERS.members))

    p_plot = sub.add_parser("plot", help="render an SVG from run CSVs")
    p_plot.add_argument("--kind", required=True, choices=RENDER_KINDS)
    p_plot.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_plot.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("GAMEPOP_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_from_config(args.config, args.output_dir)
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v]
            return sweep(args.config, args.param, values, args.output_dir)
        if args.command == "eval":
            return evaluate_run(args.run_dir)
        if args.command == "solve-matrix":
            return solve_matrix(args.matrix, args.mss)
        render_svg(args.kind, args.inputs, args.out)
        print(args.out)
        return 0
    except (ConfigError, PlotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
