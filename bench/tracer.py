"""In-memory span tracing of simtutor's layers, applied from outside the package.

A ``Tracer`` replaces the module globals that callers look up at each layer
boundary (``simtutor.agent.perceive``, ``simtutor.experiment.gen_box_problem``
and so on) with wrappers that record one span per call: layer, start, end,
parent span and agent cell.  Spans live in flat arrays, about 25 bytes each,
so a full study (1.1 to 1.3 million spans) stays in memory until it is
summarised.
A layer's self time is the duration of its spans minus the durations of their
direct children.

Only the entry points listed in ``SPANS`` are wrapped.  Inner helpers such as
``TutorSession.next_step`` run hundreds of thousands of times per study and
would multiply the span count and the overhead.
"""
from __future__ import annotations

import pickle
import time
from array import array
from collections import Counter

import numpy as np

from simtutor import agent, analytics, cli, experiment, induction, tutors

# Layer names, in the order of their numeric codes in the span arrays.
LAYERS = ("cell", "generate", "run_problem", "perceive", "session", "decide",
          "feedback", "induce", "explain", "csv.write", "csv.read",
          "analytics.outcomes", "analytics.curve", "analytics.design",
          "analytics.fit")

# (owner, attribute, layer): every global or class attribute wrapped in a span.
SPANS = (
    (experiment, "run_agent", "cell"),
    (experiment, "gen_fraction_problem", "generate"),
    (experiment, "gen_box_problem", "generate"),
    (experiment, "run_problem", "run_problem"),
    (agent, "perceive", "perceive"),
    (tutors.TutorSession, "snapshot", "session"),
    (tutors.TutorSession, "submit", "session"),
    (tutors.TutorSession, "demonstrate", "session"),
    (agent, "decide", "decide"),
    (agent, "apply_feedback", "feedback"),
    (agent, "induce_from_demo", "induce"),
    (induction, "explain", "explain"),
    (cli, "write_transactions", "csv.write"),
    (experiment, "read_transactions", "csv.read"),
    (cli, "read_transactions", "csv.read"),
    (analytics, "problem_outcomes", "analytics.outcomes"),
    (analytics, "learning_curve", "analytics.curve"),
    (cli, "learning_curve", "analytics.curve"),
    (analytics, "build_design", "analytics.design"),
    (analytics, "fit_logit", "analytics.fit"),
)

# Layers reported as .calls, .self_s and .us_per_call.
CALL_LAYERS = ("perceive", "decide", "feedback", "run_problem", "explain",
               "induce", "session", "generate")

# run_study's Pool.map chunk size, used for the computed IPC volume.
POOL_CHUNKSIZE = 8


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` patches and restores."""

    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.counts = Counter()
        self.cell_results = []  # (replication, agent_index, rows) per cell
        self.cell_skills = []  # final skill-store size per cell
        self._stack = []
        self._cell = -1
        self._agent = None
        self._saved = []

    # -- installation --------------------------------------------------------

    def __enter__(self):
        hooks = {
            "decide": self._after_decide,
            "feedback": self._after_feedback,
            "induce": self._after_induce,
            "explain": self._after_explain,
            "csv.write": self._after_write,
            "csv.read": self._after_read,
            "analytics.fit": self._after_fit,
        }
        for owner, attr, layer in SPANS:
            original = vars(owner)[attr]
            wrapped = self._span(layer, original, hooks.get(layer))
            if layer == "cell":
                wrapped = self._cell_entry(wrapped)
            elif layer == "generate":
                wrapped = self._generator_entry(wrapped)
            self._patch(owner, attr, wrapped)
        self._patch(agent, "activations", self._count_activations(agent.activations))
        self._patch(tutors, "ambiguity_count", self._count_oracle(tutors.ambiguity_count))
        self._patch(experiment, "Agent", self._agent_factory(experiment.Agent))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, fn, after):
        code = LAYERS.index(layer)
        layers, start, end = self.layer, self.start, self.end
        parents, cells, stack = self.parent, self.cell, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            layers.append(code)
            parents.append(stack[-1] if stack else -1)
            cells.append(self._cell)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _cell_entry(self, span):
        def run_agent(config, replication, agent_index, *args, **kwargs):
            self._cell = len(self.cell_results)
            try:
                rows = span(config, replication, agent_index, *args, **kwargs)
            finally:
                self._cell = -1
            self.cell_results.append((replication, agent_index, rows))
            self.cell_skills.append(len(self._agent.skills))
            return rows
        return run_agent

    def _generator_entry(self, span):
        counts = self.counts

        def generate(*args, **kwargs):
            before = counts["oracle_calls"]
            item = span(*args, **kwargs)
            if counts["oracle_calls"] > before:
                counts["oracle_items"] += 1
            return item
        return generate

    def _count_activations(self, fn):
        counts = self.counts

        def activations(wm, skills, *args, **kwargs):
            out = fn(wm, skills, *args, **kwargs)
            counts["skills_scanned"] += len(skills)
            counts["candidates"] += len(out)
            return out
        return activations

    def _count_oracle(self, fn):
        counts = self.counts

        def ambiguity_count(*args, **kwargs):
            counts["oracle_calls"] += 1
            return fn(*args, **kwargs)
        return ambiguity_count

    def _agent_factory(self, cls):
        def make_agent(*args, **kwargs):
            self._agent = cls(*args, **kwargs)
            return self._agent
        return make_agent

    # -- counters taken after a span ends ------------------------------------

    def _after_decide(self, args, kwargs, result):
        if result is not None:
            self.counts["decide_fired"] += 1

    def _after_feedback(self, args, kwargs, result):
        correct = kwargs["correct"] if "correct" in kwargs else args[2]
        if correct:
            self.counts["feedback_correct"] += 1

    def _after_induce(self, args, kwargs, result):
        if result is not None:
            self.counts["skills_created"] += 1

    def _after_explain(self, args, kwargs, result):
        wm = kwargs["wm"] if "wm" in kwargs else args[0]
        self.counts["explain_leaves"] += len(wm.numeric_leaves())

    def _after_write(self, args, kwargs, result):
        self.counts["rows_written"] += len(args[1])

    def _after_read(self, args, kwargs, result):
        self.counts["rows_read"] += len(result)

    def _after_fit(self, args, kwargs, result):
        self.counts["fit_iterations"] += result.n_iterations

    # -- summaries -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer calls, self time and ratios from the recorded spans."""
        layer = np.frombuffer(self.layer, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        n_layers = len(LAYERS)
        calls = np.bincount(layer, minlength=n_layers)
        self_s = np.bincount(layer, weights=own, minlength=n_layers)

        def layer_calls(name):
            return int(calls[LAYERS.index(name)])

        def layer_self(name):
            return float(self_s[LAYERS.index(name)])

        c = self.counts
        m = {}
        for name in CALL_LAYERS:
            n = layer_calls(name)
            m[f"{name}.calls"] = n
            m[f"{name}.self_s"] = layer_self(name)
            m[f"{name}.us_per_call"] = layer_self(name) / n * 1e6 if n else 0.0
        m["decide.hit_ratio"] = _ratio(c["decide_fired"], layer_calls("decide"))
        m["decide.match_ratio"] = _ratio(c["candidates"], c["skills_scanned"])
        m["feedback.correct_ratio"] = _ratio(c["feedback_correct"], layer_calls("feedback"))
        m["explain.leaves_mean"] = _ratio(c["explain_leaves"], layer_calls("explain"))
        m["induce.new_skill_ratio"] = _ratio(c["skills_created"], layer_calls("induce"))
        m["generate.accept_ratio"] = _ratio(c["oracle_items"], c["oracle_calls"])

        cell_ms = duration[layer == LAYERS.index("cell")] * 1e3
        m["cell.calls"] = layer_calls("cell")
        m["cell.self_s"] = layer_self("cell")
        m["cell.ms_p50"] = float(np.percentile(cell_ms, 50)) if len(cell_ms) else 0.0
        m["cell.ms_p98"] = float(np.percentile(cell_ms, 98)) if len(cell_ms) else 0.0
        m["cell.rows_mean"] = _ratio(sum(len(r) for _, _, r in self.cell_results),
                                     len(self.cell_results))
        m["store.skills_final_mean"] = _ratio(sum(self.cell_skills), len(self.cell_skills))

        write_s, read_s = layer_self("csv.write"), layer_self("csv.read")
        m["csv.write_s"] = write_s
        m["csv.write_rows_per_s"] = c["rows_written"] / write_s if write_s else 0.0
        m["csv.read_s"] = read_s
        m["csv.read_rows_per_s"] = c["rows_read"] / read_s if read_s else 0.0
        m["analytics.outcomes_s"] = layer_self("analytics.outcomes")
        m["analytics.curve_s"] = layer_self("analytics.curve")
        m["analytics.design_s"] = layer_self("analytics.design")
        m["analytics.fit_s"] = layer_self("analytics.fit")
        m["analytics.fit_iterations"] = c["fit_iterations"]
        m["trace.spans"] = len(duration)
        return m

    def pool_ipc_bytes(self, config):
        """Bytes ``run_study`` would pickle through its pool for these cells.

        Computed, not observed: each chunk of ``POOL_CHUNKSIZE`` tasks and the
        matching chunk of ``(replication, agent, rows)`` results is pickled as
        the pool pickles it.  Requires a traced pass over the same cells.
        """
        results = sorted(self.cell_results, key=lambda r: (r[0], r[1]))
        total = 0
        for i in range(0, len(results), POOL_CHUNKSIZE):
            chunk = results[i:i + POOL_CHUNKSIZE]
            tasks = [(config, rep, idx) for rep, idx, _rows in chunk]
            total += len(pickle.dumps(tasks)) + len(pickle.dumps(chunk))
        return total


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
