"""Command-line entry point: run studies, report on logs, generate items.

Exit codes: 0 success, 1 usage or configuration error, 2 simulation or
generation failure.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import random
import sys
import time
from pathlib import Path

from . import __version__
from .analytics import (
    DesignError,
    SeparationError,
    accuracy_by_condition,
    curve_rows,
    fit_logistic,
    hard_problem_effect,
    learning_curve,
    posttest_effect,
)
from .experiment import (
    CONDITIONS,
    box_arrows_config,
    filter_hard,
    fractions_config,
    read_transactions,
    run_study,
    write_transactions,
)
from .state import SIMULATION_ERRORS, ConfigError
from .tutors import gen_box_problem, gen_fraction_problem

STUDY_CONFIGS = {"fractions": fractions_config, "box-arrows": box_arrows_config}
CONFIG_KEYS = {"agents": "n_agents", "replications": "replications",
               "seed": "seed", "jobs": "jobs"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="simtutor", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a study end to end")
    run.add_argument("study", choices=sorted(STUDY_CONFIGS))
    run.add_argument("--config", type=Path, help="JSON config file; flags win")
    for key in CONFIG_KEYS:
        run.add_argument(f"--{key}", type=int)
    run.add_argument("--out", type=Path, help="output directory")

    report = sub.add_parser("report", help="summarize a transactions.csv")
    report.add_argument("log", type=Path)

    gen = sub.add_parser("gen-problems", help="emit generated items as JSON lines")
    gen.add_argument("study", choices=sorted(STUDY_CONFIGS))
    gen.add_argument("--type", dest="problem_type", required=True)
    gen.add_argument("-n", "--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--constraint", choices=CONDITIONS["box_arrows"],
                     default="constrained")
    return parser


def _load_config_file(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad bytes, not JSON, deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw:
        raw = raw["config"]  # accept a manifest as a config source
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def _resolve_config(args):
    """Study config from ``--config`` (a config object or a manifest) and flags.

    The file may set ``agents``, ``replications``, ``seed`` and ``jobs`` to
    integers, and ``study`` to the study being run; flags win.
    """
    overrides = {}
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key == "study":
                if value != args.study:
                    raise ConfigError(f"config {args.config} is for study "
                                      f"{value!r}, not {args.study!r}")
            elif key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {args.config}")
            elif type(value) is not int:
                raise ConfigError(f"config key {key!r} must be an integer, "
                                  f"not {value!r}")
            else:
                overrides[CONFIG_KEYS[key]] = value
    for attr, key in CONFIG_KEYS.items():
        value = getattr(args, attr)
        if value is not None:
            overrides[key] = value
    return STUDY_CONFIGS[args.study](**overrides)


def _default_out(study, seed):
    root = Path(os.environ.get("SIMTUTOR_OUT", "runs"))
    return root / f"{study}_seed{seed}"


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _regressions(box, records):
    """Fit a study's models: name -> summary, or the error of an unfit model,
    which a fit that stopped without converging counts as.

    The fit functions are read from this module's globals when called.
    """
    if box:
        models = {"hard_problems": hard_problem_effect}
    else:
        models = {"tutor": fit_logistic, "posttest": posttest_effect}
    out = {}
    for name, fit in models.items():
        try:
            out[name] = summary = fit(records)
            if not summary.converged:
                out[name] = RuntimeError(
                    f"no convergence in {summary.n_iterations} iterations")
        except (SeparationError, DesignError) as exc:
            # Valid on small runs; the log itself is still the product.
            out[name] = exc
    return out


def _model_text(summary):
    """A fitted model's table, or the ``not estimable`` line of an unfit one."""
    if isinstance(summary, Exception):
        return f"not estimable: {summary}"
    return summary.table()


def _cmd_run(args):
    config = _resolve_config(args)
    out = args.out or _default_out(config.study, config.seed)
    out.mkdir(parents=True, exist_ok=True)
    marks = [time.perf_counter()]  # the start of each phase, and the end
    records = run_study(config)
    marks.append(time.perf_counter())
    write_transactions(out / "transactions.csv", records)
    marks.append(time.perf_counter())
    _write_csv(out / "curves.csv", curve_rows(learning_curve(records)))

    summaries = _regressions(config.study == "box_arrows", records)
    (out / "regression.txt").write_text("\n".join(
        f"== {model} ==\n{_model_text(summary)}\n"
        for model, summary in summaries.items()))
    reg_rows = [("model", "term", "odds_ratio", "ci_low", "ci_high", "p_value")]
    reg_rows += [(model, term, f"{est.odds_ratio:.6f}", f"{est.ci_low:.6f}",
                  f"{est.ci_high:.6f}", f"{est.p_value:.6g}")
                 for model, summary in summaries.items()
                 if not isinstance(summary, Exception)
                 for term, est in summary.terms.items()]
    _write_csv(out / "regression.csv", reg_rows)
    marks.append(time.perf_counter())

    manifest = {
        "tool": "simtutor",
        "version": __version__,
        "config": {"study": args.study, **{key: getattr(config, attr)
                                           for key, attr in CONFIG_KEYS.items()}},
        "seed": config.seed,
        "outputs": ["transactions.csv", "curves.csv", "regression.txt",
                    "regression.csv"],
        "duration_seconds": round(time.perf_counter() - marks[0], 3),
        "phase_seconds": {phase: round(end - start, 3) for phase, start, end
                          in zip(("simulate", "write", "fit"), marks, marks[1:])},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_report(args):
    records = read_transactions(args.log)
    if not records:
        raise ConfigError("empty transaction log")
    is_box = records.entries[0][2] in CONDITIONS["box_arrows"]  # condition
    print(f"log: {args.log} ({len(records)} rows)")
    if is_box:  # every box summary scores the hard problems: filter once
        records = filter_hard(records)
    for phase in ("tutor",) if is_box else ("tutor", "posttest"):
        print(f"{'hard-problem' if is_box else phase} accuracy by condition:")
        for cond, acc in accuracy_by_condition(records, phase).items():
            print(f"  {cond:15s} {acc:.3f}")
    for model, summary in _regressions(is_box, records).items():
        print(f"\n{model} regression:\n{_model_text(summary)}")
    return 0


def _cmd_gen_problems(args):
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, not {args.count}")
    rng = random.Random(args.seed)
    for i in range(args.count):
        if args.study == "fractions":
            script = gen_fraction_problem(args.problem_type, rng, f"gen-{i}")
        else:
            difficulty = {"box_easy": "easy", "box_hard": "hard"}.get(args.problem_type)
            if difficulty is None:
                raise ConfigError(f"unknown box problem type {args.problem_type!r}")
            script = gen_box_problem(difficulty, args.constraint, rng, f"gen-{i}")
        print(script.to_record())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            # The log holds no reference cycle: a collection would only walk it.
            enabled = gc.isenabled()
            gc.disable()
            try:
                return _cmd_report(args)
            finally:
                if enabled:
                    gc.enable()
        return _cmd_gen_problems(args)
    except ConfigError as exc:
        print(f"simtutor: config error: {exc}", file=sys.stderr)
        return 1
    except (*SIMULATION_ERRORS, SeparationError, OSError) as exc:
        print(f"simtutor: failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
