"""Benchmark of simtutor: three workloads, end-to-end metrics and a traced per-layer breakdown.

    python3 bench/run.py --workload fractions-serial --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each run repeats whole cycles of its workload's passes while the next cycle
is predicted to end within ``--seconds`` (at least one cycle), checks every
output, and prints the metrics with units and sample counts.  A study cycle
is its ten replications, one pass each, which together are the full study;
a report cycle is one pass.  The timings are taken over whole cycles, so the
work they cover does not depend on how fast the code runs.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass instead.  A record of the run, including its environment and
output hashes, is written to ``.bench_work/results/``.  See bench/README.md
for the metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("fractions-serial", "box-parallel", "report-replay")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cycle_metrics(passes, cycles=1):
    """Wall time of one cycle and the throughput over ``passes``, which hold
    ``cycles`` whole cycles."""
    wall = sum(p["wall_s"] for p in passes)
    simulate = sum(p.get("simulate_s", p["wall_s"]) for p in passes)
    return {
        "wall_s": wall / cycles,
        "cells_per_s": sum(p["cells"] for p in passes) / simulate,
        "rows_per_s": sum(p["rows"] for p in passes) / wall,
    }


def _repeat(seconds, one_pass, cycle):
    """Run cycles of ``cycle`` passes while the next cycle is predicted to
    end in time."""
    reps = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for _ in range(cycle):
            load_before = os.getloadavg()[0]
            rep = one_pass()
            rep["loadavg_1m"] = [load_before, os.getloadavg()[0]]
            reps.append(rep)
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return reps


def _peak_rss_mb(jobs):
    """Peak resident memory so far of this process plus ``jobs`` pool children.

    ``ru_maxrss`` gives high-water marks: one for this process and one for
    the largest child, so with a pool the sum is an upper bound.  Every child
    counts, so this is read after the first pass, before any set-up
    interpreter has run.
    """
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        rss_kb += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def _check_fingerprints(passes, pins):
    """Fail every pass whose output differs from its pinned hash or from
    another pass over the same input; returns the problems found."""
    found = {}
    for p in passes:
        found.setdefault(p["key"], set()).add(p["fingerprint"])
    problems = []
    for key, hashes in sorted(found.items()):
        if len(hashes) > 1:
            problems.append(f"{key}: outputs differ between passes: {sorted(hashes)}")
        elif key in pins and hashes != {pins[key]}:
            problems.append(f"{key}: sha256 {min(hashes)} != pinned {pins[key]}")
        else:
            continue
        for p in passes:
            if p["key"] == key:
                p["failed"] = p["attempted"]
    return problems


def measure(workload, seed, seconds, trace):
    import harness

    pinned = harness.pinned_fingerprints()
    pins = pinned[workload] if seed == pinned["seed"] else {}
    log = harness.prepare_report_log(seed) if workload == "report-replay" else None
    study = workload in harness.STUDIES

    cycle, rss = 1, []
    if trace:
        def one_pass():
            if study:
                metrics, passes = harness.traced_study(workload, seed)
            else:
                metrics, passes = harness.traced_report(log)
            return {"metrics": metrics, "passes": passes}
    else:
        done = itertools.count()
        if study:
            cycle = harness.STUDIES[workload][1]().replications

        def one_pass():
            if study:
                p = harness.study_pass(workload, seed, next(done) % cycle)
            else:
                p = harness.report_pass(log)
            if not rss:
                # Before any set-up interpreter raises the children's peak.
                rss.append(_peak_rss_mb(p.get("jobs", 1)))
            # One set-up sample per pass spreads the samples over the run.
            return {"setup_s": harness.setup_seconds(workload), "passes": [p]}

    reps = _repeat(seconds, one_pass, cycle)
    passes = [p for rep in reps for p in rep["passes"]]
    if trace:
        samples = {k: [rep["metrics"][k] for rep in reps] for k in reps[0]["metrics"]}
        metrics = {k: statistics.median(v) for k, v in samples.items()}
    else:
        cycles = [_cycle_metrics(passes[i:i + cycle]) for i in range(0, len(passes), cycle)]
        samples = {k: [c[k] for c in cycles] for k in cycles[0]}
        samples["setup_s"] = [rep["setup_s"] for rep in reps]
        metrics = _cycle_metrics(passes, len(cycles))
        metrics["setup_s"] = statistics.median(samples["setup_s"])
        metrics["peak_rss_mb"] = rss[0]
    problems = [msg for p in passes for msg in p["problems"]]
    problems += _check_fingerprints(passes, pins)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": harness.environment(),
        "reps": len(reps),
        "loadavg_1m": [rep["loadavg_1m"] for rep in reps],
        "samples": samples,
        "fingerprints": {p["key"]: p["fingerprint"] for p in passes},
        "pinned": pins,
        "passes": [{k: p[k] for k in ("key", "wall_s", "simulate_s", "jobs", "traced")
                    if k in p} for p in passes],
        "problems": problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    if log is not None:
        record["synthetic_log"] = {k: log[k] for k in ("rows", "cells", "generate_s")}
    return record


def _print_record(record, units):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['reps']}")
    loads = [x for pair in record["loadavg_1m"] for x in pair]
    print(f"env python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"git {env['git_sha']}  src {env['src_sha256'][:16]}  "
          f"load1 first {loads[0]:.2f} last {loads[-1]:.2f} max {max(loads):.2f}")
    for key, digest in sorted(record["fingerprints"].items()):
        pin = record["pinned"].get(key)
        status = "no pin for this seed" if pin is None else (
            "matches pin" if pin == digest else "DIFFERS FROM PIN")
        print(f"sha256 {key:5s} {digest}  {status}")
    for msg in record["problems"]:
        print(f"CHECK FAILED: {msg}")
    for name, value in record["metrics"].items():
        samples = record["samples"].get(name, [])
        count = len(samples) or 1
        spread = ""
        if len(samples) > 1:
            spread = f"  [min {min(samples):.6g}, max {max(samples):.6g}]"
        print(f"  {name:28s} {value:14.6g} {units[name]}  (n={count}){spread}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':28s} {frac:14.6g}   ({record['failed']}/{record['attempted']})")


def run_all(args):
    """Run every workload in its own interpreter and print one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        # Exit code 1 is a failed check, reported in the result line.
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
        rows.append((workload, result))
    names = list(rows[0][1]["metrics"])
    print("\n" + "workload".ljust(18) + "".join(n.rjust(16) for n in names)
          + "failed_frac".rjust(14))
    for workload, result in rows:
        cells = "".join(f"{result['metrics'][n]['value']:16.6g}" for n in names)
        frac = result["failed"] / result["attempted"]
        print(workload.ljust(18) + cells + f"{frac:14.6g}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "simtutor" / "__init__.py").is_file():
        print(f"error: simtutor sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    if set(record["metrics"]) != set(units):
        print(f"error: metrics {sorted(record['metrics'])} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    _print_record(record, units)
    correct = not record["problems"] and record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
