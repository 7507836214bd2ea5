"""Synthetic fractions-schema transaction logs drawn from a known logistic model.

Problem correctness follows the same fixed-effects models that
``simtutor.analytics`` fits: the training model on condition, type, count and
type x count, and the posttest model on condition and type.  Because the true
coefficients are known, a fit of the log can be checked for recovery.  The
coefficients are small enough (|logit| < 3 everywhere) to stay clear of
``analytics.SEPARATION_BOUND``, and every design column varies, so the design
is full rank.

Rows have the fractions tutor's shape: 3 steps for same-denominator addition
and multiplication, 8 for different-denominator addition, with ERROR and HINT
rows on incorrect problems.  Everything is drawn from ``random.Random(seed)``,
so a seed gives the same bytes on every platform.
"""
from __future__ import annotations

import csv
import math
import random

from simtutor.experiment import (
    COLUMNS,
    FRACTIONS_POSTTEST,
    FRACTIONS_TRAINING,
)

CONDITIONS = ("blocked", "interleaved")

# Coefficients in the term order of analytics.build_design.
TRUE_TUTOR = {
    "Intercept": -0.4,
    "condition[interleaved]": 0.5,
    "type[add_same]": 0.9,
    "type[multiply]": 0.3,
    "count": 0.12,
    "type[add_same]:count": -0.05,
    "type[multiply]:count": -0.04,
}
TRUE_POSTTEST = {
    "Intercept": 0.2,
    "condition[interleaved]": 0.6,
    "type[add_same]": 0.7,
    "type[multiply]": -0.3,
}

# A fitted coefficient recovers the truth when it lies within this many of
# its own standard errors of the true value.  With 11 coefficients, a correct
# fit fails this by chance with probability below 1e-5.
RECOVERY_SE = 5.0

STEPS = {
    "add_same": ("answer_num", "answer_den", "done"),
    "multiply": ("answer_num", "answer_den", "done"),
    "add_diff": ("convert_check", "conv_den1", "conv_den2", "conv_num1",
                 "conv_num2", "answer_num", "answer_den", "done"),
}


def _p_correct(coefs, condition, ptype, count):
    eta = coefs["Intercept"]
    if condition == "interleaved":
        eta += coefs["condition[interleaved]"]
    if ptype != "add_diff":
        eta += coefs[f"type[{ptype}]"]
    if "count" in coefs:
        eta += coefs["count"] * count
        if ptype != "add_diff":
            eta += coefs[f"type[{ptype}]:count"] * count
    return 1.0 / (1.0 + math.exp(-eta))


def _step_rows(rng, ptype, correct, posttest):
    """(step, outcome) rows for one problem."""
    steps = STEPS[ptype]
    if correct:
        return [(s, "CORRECT") for s in steps]
    fail_at = rng.randrange(len(steps))
    rows = [(s, "CORRECT") for s in steps[:fail_at]]
    failed = steps[fail_at]
    if posttest:
        rows.append((failed, rng.choice(("ERROR", "HINT"))))
        return rows
    if rng.random() < 0.5:
        rows.append((failed, "HINT"))
    else:
        rows.append((failed, "ERROR"))
        rows.append((failed, rng.choice(("CORRECT", "HINT"))))
    for s in steps[fail_at + 1:]:
        rows.append((s, "CORRECT" if rng.random() < 0.7 else "HINT"))
    return rows


def write_log(path, seed, agents=78, replications=10):
    """Write a synthetic log; returns (rows, agent cells)."""
    rng = random.Random(seed)
    n_rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for rep in range(replications):
            for idx in range(agents):
                condition = CONDITIONS[idx % 2]
                agent_id = f"a{idx:03d}"
                blocks = []
                for ptype, n in FRACTIONS_TRAINING.items():
                    block = [ptype] * n
                    rng.shuffle(block)
                    blocks.extend(block)
                training = blocks if condition == "blocked" else rng.sample(blocks, len(blocks))
                posttest = [t for t, n in FRACTIONS_POSTTEST.items() for _ in range(n)]
                rng.shuffle(posttest)
                seen = {}
                for phase, items, coefs in (("tutor", training, TRUE_TUTOR),
                                            ("posttest", posttest, TRUE_POSTTEST)):
                    for i, ptype in enumerate(items):
                        count = seen.get(ptype, 0)
                        seen[ptype] = count + 1
                        correct = rng.random() < _p_correct(coefs, condition, ptype, count)
                        pid = f"synth-r{rep}-{agent_id}-{phase}-{i}"
                        flag = "1" if correct else "0"
                        for step, outcome in _step_rows(rng, ptype, correct,
                                                        phase == "posttest"):
                            writer.writerow((agent_id, rep, condition, phase, pid, ptype,
                                             count, step, outcome, flag))
                            n_rows += 1
    return n_rows, agents * replications


def recovery_errors(summary, truth):
    """Terms whose estimate misses the truth by more than RECOVERY_SE errors."""
    if list(summary.terms) != list(truth):
        return [f"terms {list(summary.terms)} != {list(truth)}"]
    misses = []
    for name, est in summary.terms.items():
        if abs(est.coef - truth[name]) > RECOVERY_SE * est.se:
            misses.append(f"{name}: {est.coef:.4f} vs {truth[name]} (se {est.se:.4f})")
    if not summary.converged:
        misses.append("fit did not converge")
    return misses
