"""The benchmark's self-check runs against the current sources.

``bench/tracer.py`` and ``bench/harness.py`` wrap simtutor names that callers
look up at call time (``TutorSession.snapshot``, ``agent.activations``,
``WorkingMemory.numeric_leaves``, ``cli.fit_logistic`` and others).  Renaming
one of them breaks ``bench/run.py --trace 1`` without failing any other test;
``bench/selfcheck.py`` exercises every patch point on 8-agent runs.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
