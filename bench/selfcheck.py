"""Self-check of the benchmark harness on tiny fixed inputs; runs in seconds.

    python3 bench/selfcheck.py

Checks that
- 8 agents x 1 replication of each study reproduce pinned log hashes;
- a traced run writes byte-identical logs and records every agent layer;
- jobs=1 and jobs=2 give the same log;
- fits of a synthetic log recover its true coefficients.
Prints one line per check and exits 1 if any fails.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

TINY = {"n_agents": 8, "replications": 1, "seed": 7}
AGENT_LAYERS = ("cell", "generate", "run_problem", "perceive", "session",
                "decide", "feedback", "induce", "explain")


def _log_sha(records, path):
    from simtutor.experiment import write_transactions
    write_transactions(path, records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_studies(work, pinned):
    from simtutor import box_arrows_config, fractions_config, run_study
    from tracer import Tracer

    failures = []
    for name, factory in (("fractions", fractions_config), ("box", box_arrows_config)):
        key = f"{name}-8x1"
        plain = _log_sha(run_study(factory(**TINY)), work / f"{key}.csv")
        if plain != pinned[key]:
            failures.append(f"{key}: log sha256 {plain} != pinned {pinned[key]}")
        tracer = Tracer()
        with tracer:
            traced_records = run_study(factory(**TINY))
        traced = _log_sha(traced_records, work / f"{key}-traced.csv")
        if traced != plain:
            failures.append(f"{key}: traced log differs from untraced")
        metrics = tracer.layer_metrics()
        calls = {layer: metrics[f"{layer}.calls"] for layer in AGENT_LAYERS}
        if calls["cell"] != TINY["n_agents"] or not all(calls.values()):
            failures.append(f"{key}: spans missing for some layer: {calls}")
        if tracer.pool_ipc_bytes(factory(jobs=2, **TINY)) <= 0:
            failures.append(f"{key}: computed pool IPC volume is not positive")
        pooled = _log_sha(run_study(factory(jobs=2, **TINY)), work / f"{key}-jobs2.csv")
        if pooled != plain:
            failures.append(f"{key}: jobs=2 log differs from jobs=1")
    return failures


def check_recovery(work):
    import synthlog
    from simtutor.analytics import fit_logistic, posttest_effect
    from simtutor.experiment import read_transactions

    failures = []
    for seed in (7, 8):
        path = work / f"synthetic-{seed}.csv"
        synthlog.write_log(path, seed, agents=40, replications=5)
        records = read_transactions(path)
        for model, fit, truth in (("tutor", fit_logistic, synthlog.TRUE_TUTOR),
                                  ("posttest", posttest_effect, synthlog.TRUE_POSTTEST)):
            misses = synthlog.recovery_errors(fit(records), truth)
            if misses:
                failures.append(f"synthetic seed {seed} {model}: {misses}")
    return failures


def main():
    if not (SRC / "simtutor" / "__init__.py").is_file():
        print(f"error: simtutor sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    work = harness.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    pinned = harness.pinned_fingerprints()["selfcheck"]
    failures = []
    for name, check in (("studies", lambda: check_studies(work, pinned)),
                        ("recovery", lambda: check_recovery(work))):
        found = check()
        print(f"{'FAIL' if found else 'ok  '} {name}")
        for msg in found:
            print(f"     {msg}")
        failures += found
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
