"""The benchmark's self-check runs against the current sources.

``bench/tracer.py`` and ``bench/harness.py`` wrap simtutor names that callers
look up at call time (``TutorSession.snapshot``, ``agent.activations``,
``WorkingMemory.numeric_leaves``, ``cli.fit_logistic`` and others).  Renaming
one of them breaks ``bench/run.py --trace 1`` without failing any other test;
``bench/selfcheck.py`` exercises every patch point on 8-agent runs.  A
wrapped name that callers stop looking up leaves its layer without spans,
so every layer must get one from a run and a report.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from simtutor.cli import main
from simtutor.experiment import fractions_config, run_study
from simtutor.state import CORRECT, HINT

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_run_and_its_report_span_every_bench_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import LAYERS, Tracer

    out = tmp_path / "run"
    tracer = Tracer()
    with tracer:
        assert main(["run", "fractions", "--agents", "8", "--replications", "1",
                     "--seed", "7", "--jobs", "1", "--out", str(out)]) == 0
        assert main(["report", str(out / "transactions.csv")]) == 0
    assert [layer for code, layer in enumerate(LAYERS) if code not in tracer.layer] == []


def test_the_tracers_decision_counters_agree_with_the_log(monkeypatch):
    """The tracer reads ``decide``'s result (None for a demonstration request)
    and ``apply_feedback``'s argument 2 (``correct``).  A change to either
    would skew its counters without failing the self-check."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        log = run_study(fractions_config(n_agents=8, replications=1, seed=7))
    m = tracer.layer_metrics()
    rows = [(rec.phase, rec.outcome) for rec in log]
    fed = [outcome for phase, outcome in rows if phase == "tutor" and outcome != HINT]
    assert m["decide.calls"] == len(rows)
    assert m["decide.hit_ratio"] == sum(o != HINT for _p, o in rows) / len(rows)
    assert m["feedback.calls"] == len(fed)
    assert m["feedback.correct_ratio"] == fed.count(CORRECT) / len(fed)
    assert m["induce.calls"] == rows.count(("tutor", HINT))


def test_the_tracers_session_counters_agree_with_the_log(monkeypatch):
    """A problem perceives once and runs once; its session takes one
    ``snapshot``, one ``submit`` per row that is not a ``HINT`` and one
    ``demonstrate`` per tutor-phase ``HINT``.  A session that took more or
    fewer of these would skew the ``session`` layer's counters."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        log = run_study(fractions_config(n_agents=8, replications=1, seed=7))
    m = tracer.layer_metrics()
    rows = [(rec.phase, rec.outcome) for rec in log]
    entries = len(log.entries)
    submitted = sum(o != HINT for _p, o in rows)
    demonstrated = rows.count(("tutor", HINT))
    assert m["perceive.calls"] == m["run_problem.calls"] == entries == 448
    assert m["session.calls"] == entries + submitted + demonstrated
    assert (entries, submitted, demonstrated) == (448, 1970, 147)
