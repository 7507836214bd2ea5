"""The benchmark's workloads: one measured pass each, with its correctness checks.

A pass drives only simtutor's public entry points.  The study workloads call
``simtutor.cli.main(["run", ...])`` and the report workload calls
``simtutor.cli.main(["report", ...])``, so each times and checks what the
command itself does.  Each pass returns its timings, counts and output
fingerprint; ``run.py`` turns passes into metrics.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from simtutor import analytics, cli, experiment

import synthlog
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

# workload -> (CLI study name, config factory, jobs)
STUDIES = {
    "fractions-serial": ("fractions", experiment.fractions_config, 1),
    "box-parallel": ("box-arrows", experiment.box_arrows_config, 2),
}


def pinned_fingerprints():
    return json.loads((BENCH_DIR / "fingerprints.json").read_text())


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- study workloads ---------------------------------------------------------

def study_pass(workload, seed, replication=None, jobs=None, tracer=None):
    """One ``simtutor run`` of the workload's study.

    With ``replication=None`` it runs the full study at ``seed``.  With
    ``replication=r`` it runs replication ``r`` of that study alone, as
    ``--seed seed+r --replications 1``: replication ``r`` draws every cell
    from seed ``seed + r``, so the ten replications together simulate exactly
    the full study's cells.  ``cli.run_study`` is wrapped by a single timer so
    that cells/s covers the simulation alone.  Returns a dict of timings,
    counts and the log's sha256; ``key`` names the input for fingerprinting.
    """
    study, factory, default_jobs = STUDIES[workload]
    jobs = jobs or default_jobs
    out = WORK / workload
    seen = {}
    run_study = cli.run_study

    def timed_run_study(config, *args, **kwargs):
        t0 = time.perf_counter()
        records = run_study(config, *args, **kwargs)
        seen["simulate_s"] = time.perf_counter() - t0
        seen["config"] = config
        seen["records"] = records
        return records

    argv = ["run", study, "--jobs", str(jobs), "--out", str(out)]
    if replication is None:
        argv += ["--seed", str(seed)]
    else:
        argv += ["--seed", str(seed + replication), "--replications", "1"]
    cli.run_study = timed_run_study
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
    finally:
        cli.run_study = run_study
    if code != 0:
        raise RuntimeError(f"simtutor {' '.join(argv)} exited with {code}")

    config, records = seen["config"], seen.pop("records")
    cells = config.n_agents * config.replications
    logged = {(r.replication, r.agent_id) for r in records}
    with open(out / "transactions.csv", "rb") as fh:
        csv_rows = sum(1 for _ in fh) - 1
    problems, failed = [], cells - len(logged)
    if failed:
        problems.append(f"{failed} of {cells} cells missing from the log")
    if csv_rows != len(records):
        problems.append(f"transactions.csv holds {csv_rows} rows, run_study "
                        f"returned {len(records)}")
        failed = cells
    return {
        "key": "full" if replication is None else f"r{replication}",
        "wall_s": wall,
        "simulate_s": seen["simulate_s"],
        "jobs": jobs,
        "traced": tracer is not None,
        "cells": cells,
        "rows": len(records),
        "attempted": cells,
        "failed": failed,
        "problems": problems,
        "fingerprint": sha256_file(out / "transactions.csv"),
        "config": config,
    }


# -- report workload ---------------------------------------------------------

def prepare_report_log(seed):
    """Draw the synthetic log for ``seed``; not part of any timed metric."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "synthetic.csv"
    t0 = time.perf_counter()
    rows, cells = synthlog.write_log(path, seed)
    return {"path": path, "rows": rows, "cells": cells,
            "generate_s": time.perf_counter() - t0}


def report_pass(log, tracer=None):
    """``simtutor report`` on the synthetic log, plus writing ``curves.csv``
    as ``simtutor run`` writes it.

    The names ``cli`` looks up for reading the log and fitting the models are
    wrapped, so the curves and the recovery check use the records and fits
    the command itself computed.  The fingerprint covers the command's
    output, with the log path masked, and ``curves.csv``.
    """
    out = WORK / "report-replay"
    out.mkdir(parents=True, exist_ok=True)
    originals = {name: getattr(cli, name)
                 for name in ("read_transactions", "fit_logistic", "posttest_effect")}
    seen, fits = {}, {}

    def read_transactions(path):
        seen["records"] = originals["read_transactions"](path)
        return seen["records"]

    def capture(model, fit):
        def fitted(records):
            fits[model] = fit(records)
            return fits[model]
        return fitted

    cli.read_transactions = read_transactions
    cli.fit_logistic = capture("tutor", originals["fit_logistic"])
    cli.posttest_effect = capture("posttest", originals["posttest_effect"])
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            with tracer if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                code = cli.main(["report", str(log["path"])])
                points = analytics.learning_curve(seen["records"])
                with open(out / "curves.csv", "w", newline="") as fh:
                    csv.writer(fh).writerows(analytics.curve_rows(points))
                wall = time.perf_counter() - t0
    finally:
        for name, original in originals.items():
            setattr(cli, name, original)
    if code != 0:
        raise RuntimeError(f"simtutor report exited with {code}")
    records = seen["records"]

    models = (("tutor", synthlog.TRUE_TUTOR), ("posttest", synthlog.TRUE_POSTTEST))
    problems, failed = [], 0
    for model, truth in models:
        misses = (synthlog.recovery_errors(fits[model], truth) if model in fits
                  else ["not estimable"])
        if misses:
            failed += 1
            problems.append(f"{model} fit: " + "; ".join(misses))
    if len(records) != log["rows"]:
        problems.append(f"read {len(records)} rows, the log holds {log['rows']}")
        failed = len(models)
    text = stdout.getvalue().replace(str(log["path"]), "<log>")
    digest = hashlib.sha256(text.encode())
    digest.update((out / "curves.csv").read_bytes())
    return {
        "key": "full",
        "wall_s": wall,
        "traced": tracer is not None,
        "rows": len(records),
        "cells": log["cells"],
        "attempted": len(models),
        "failed": failed,
        "problems": problems,
        "fingerprint": digest.hexdigest(),
    }


# -- traced passes -----------------------------------------------------------

def traced_study(workload, seed):
    """Untraced and traced passes of a study; per-layer metrics and overhead.

    Tracing is serial, so the traced pass runs at ``jobs=1``; for a pooled
    workload, an untraced ``jobs=1`` pass over the same inputs gives both the
    overhead baseline and the serial side of the parallel efficiency.
    """
    _study, _factory, jobs = STUDIES[workload]
    untraced = study_pass(workload, seed)
    serial = untraced if jobs == 1 else study_pass(workload, seed, jobs=1)
    tracer = Tracer()
    traced = study_pass(workload, seed, jobs=1, tracer=tracer)
    metrics = tracer.layer_metrics()
    if jobs > 1:
        metrics["pool.parallel_eff"] = serial["simulate_s"] / (jobs * untraced["simulate_s"])
        metrics["pool.ipc_bytes"] = tracer.pool_ipc_bytes(untraced["config"])
    else:
        metrics["pool.parallel_eff"] = 0.0
        metrics["pool.ipc_bytes"] = 0
    metrics["trace.overhead_s"] = traced["wall_s"] - serial["wall_s"]
    passes = [untraced, traced] if serial is untraced else [untraced, serial, traced]
    return metrics, passes


def traced_report(log):
    untraced = report_pass(log)
    tracer = Tracer()
    traced = report_pass(log, tracer=tracer)
    metrics = tracer.layer_metrics()
    metrics["pool.parallel_eff"] = 0.0
    metrics["pool.ipc_bytes"] = 0
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics, [untraced, traced]


# -- set-up time and run environment ----------------------------------------

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import numpy, simtutor
simtutor.{factory}()
"""


def setup_seconds(workload):
    """Wall time of one fresh interpreter that imports simtutor and numpy and
    builds the workload's validated config."""
    factory = STUDIES.get(workload, STUDIES["fractions-serial"])[1]
    code = SETUP_CODE.format(src=str(ROOT / "src"), factory=factory.__name__)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return sha.stdout.strip() or None


def _source_sha256():
    """Hash of every file under src/simtutor, identifying the code measured
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "simtutor"
    for path in sorted(pkg.rglob("*.py")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
    }
