"""Independent oracles and reference semantics used to cross-check the code.

The brute-force oracles enumerate expression spaces explicitly via itertools,
sharing nothing with the production enumeration besides the canonical-string
convention (commutative operands in sorted order).  ``evaluate`` and
``utility`` are the definition-level forms of what the agent computes by
walking a procedure tree over its fields and by cross-multiplied integers.
``materialized_explain`` is the order oracle for ``induction.explain``: every
level built in full from the documented search order, with its own keys,
arithmetic and rendering.  ``csv_write_transactions`` is the
byte reference for ``experiment.write_transactions``: ``csv.writer`` over
each record's ``as_row()``.  ``csv_read_transactions`` is the reference for
``experiment.read_transactions``: ``csv.reader`` and ``_record`` over every
row, with no column-wise decoding.  ``reference_memory`` is working memory
as its definition states it, built field by field with no shape cache.
``reference_fit`` is the row-level form of the log-level models: one design
row per problem of ``row_problem_outcomes``, each counted once.
``row_problem_outcomes``, ``row_filter_hard`` and ``first_rows`` are the
row-level collapse, hard-item filter and first-row pass that the analytics
ran on lists of step records before the log was stored one entry per
problem, and ``row_outcome_cells`` counts that collapse into the cells that
``analytics.problem_outcomes`` counts.  ``reference_run_agent`` is
the plain agent that ``experiment.run_agent`` must equal, entry for entry:
built from the oracles above, with fresh perception at every step and its
own refinement and demonstration credit.
"""
from __future__ import annotations

import csv
import itertools
from collections import Counter
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from simtutor.analytics import build_design, fit_logit
from simtutor.experiment import (
    COLUMNS,
    _generate_sets,
    _Memo,
    _record,
    _text,
    agent_condition,
)
from simtutor.induction import divide
from simtutor.state import (
    CORRECT,
    ERROR,
    HINT,
    INPUT_VALUE,
    SAI,
    ConfigError,
    FieldState,
    WorkingMemory,
    parse_integer,
    render_value,
)
from simtutor.tutors import TutorSession

_OPS = {
    "add": lambda a, b: a + b,
    "subtract": lambda a, b: a - b,
    "multiply": lambda a, b: a * b,
    "divide": lambda a, b: None if b == 0 else a / b,
}
_COMMUTATIVE = ("add", "multiply")


def _token(op, left, right):
    if op in _COMMUTATIVE and left > right:
        left, right = right, left
    return f"({op} {left} {right})"


def brute_explanations(values, target):
    """(min depth, canonical strings) over all trees of depth <= 2.

    ``values`` is a list of (role, int) pairs; each field may appear at most
    once per tree.  Returns (None, empty set) when nothing matches.
    """
    target = Fraction(target)
    found = {0: set(), 1: set(), 2: set()}
    for role, v in values:
        if Fraction(v) == target:
            found[0].add(role)
    for (r1, v1), (r2, v2) in itertools.permutations(values, 2):
        for op, fn in _OPS.items():
            res = fn(Fraction(v1), Fraction(v2))
            if res is not None and res == target:
                found[1].add(_token(op, r1, r2))
    for (ra, va), (rb, vb), (rc, vc) in itertools.permutations(values, 3):
        for op1, f1 in _OPS.items():
            inner = f1(Fraction(va), Fraction(vb))
            if inner is None:
                continue
            itok = _token(op1, ra, rb)
            for op2, f2 in _OPS.items():
                res = f2(inner, Fraction(vc))
                if res is not None and res == target:
                    found[2].add(_token(op2, itok, rc))
                res = f2(Fraction(vc), inner)
                if res is not None and res == target:
                    found[2].add(_token(op2, rc, itok))
    for (ra, va), (rb, vb), (rc, vc), (rd, vd) in itertools.permutations(values, 4):
        for op1, f1 in _OPS.items():
            left = f1(Fraction(va), Fraction(vb))
            if left is None:
                continue
            ltok = _token(op1, ra, rb)
            for op2, f2 in _OPS.items():
                right = f2(Fraction(vc), Fraction(vd))
                if right is None:
                    continue
                rtok = _token(op2, rc, rd)
                for op3, f3 in _OPS.items():
                    res = f3(left, right)
                    if res is not None and res == target:
                        found[2].add(_token(op3, ltok, rtok))
    for depth in (0, 1, 2):
        if found[depth]:
            return depth, found[depth]
    return None, set()


def brute_candidates(values, answer):
    """Distinct single-operator procedures over values consistent with answer."""
    answer = Fraction(answer)
    seen = set()
    for (i, a), (j, b) in itertools.permutations(enumerate(values), 2):
        for op, fn in _OPS.items():
            res = fn(Fraction(a), Fraction(b))
            if res is None or res != answer:
                continue
            if op in _COMMUTATIVE:
                seen.add((op, min(a, b), max(a, b)))
            else:
                seen.add((op, a, b))
    return len(seen)


def csv_write_transactions(path, records):
    """The transaction log as ``csv.writer`` writes it, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for rec in records:
            writer.writerow(rec.as_row())


def csv_read_transactions(path):
    """The transaction log as ``csv.reader`` and ``_record`` parse it, row by row."""
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        texts, numbers = _Memo(_text), _Memo(parse_integer)
        try:
            if tuple(next(reader, ())) == COLUMNS:
                return [_record(row, texts, numbers) for row in reader]
        except (ValueError, csv.Error) as exc:
            raise ConfigError(
                f"malformed transaction row {reader.line_num}: {exc}") from None
    raise ConfigError(f"unexpected transaction header in {path}")


class Problem(NamedTuple):
    """One problem of a log, as the row-level collapse gives it."""
    replication: int
    agent_id: str
    condition: str
    problem_type: str
    opportunity: int
    position: int  # 1-based index within the agent's phase
    correct: bool


def reference_problem_outcomes(records, phase):
    """Problem outcomes straight from the definition, in quadratic time.

    A problem is a (replication, agent, problem) key of a row in ``phase``;
    its first row supplies the fields, and its position is the number of
    distinct problems that agent has shown in the phase up to that row.
    Returns plain tuples in ``Problem`` field order.
    """
    rows = [r for r in records if r.phase == phase]
    out = []
    for i, rec in enumerate(rows):
        key = (rec.replication, rec.agent_id, rec.problem_id)
        if any((e.replication, e.agent_id, e.problem_id) == key for e in rows[:i]):
            continue
        position = len({e.problem_id for e in rows[:i + 1]
                        if (e.replication, e.agent_id) == key[:2]})
        out.append((rec.replication, rec.agent_id, rec.condition,
                    rec.problem_type, rec.opportunity, position,
                    rec.problem_correct))
    return out


def row_problem_outcomes(records, phase="tutor"):
    """Step rows collapsed to one outcome per problem, with phase positions.
    Rows collapse by key, contiguous or not, and a key's first row wins."""
    seen = set()
    out = []
    positions: dict = {}
    for (agent_id, replication, condition, rec_phase, problem_id, problem_type,
         opportunity, _step, _outcome, correct) in records:
        if rec_phase != phase:
            continue
        key = (replication, agent_id, problem_id)
        if key in seen:
            continue
        seen.add(key)
        agent_key = (replication, agent_id)
        position = positions[agent_key] = positions.get(agent_key, 0) + 1
        out.append(Problem(replication, agent_id, condition, problem_type,
                           opportunity, position, correct))
    return out


def row_outcome_cells(records, phase="tutor"):
    """The outcome cells that ``analytics.problem_outcomes`` counts, from the
    row-level collapse of the rows."""
    return Counter(outcome[2:] for outcome in row_problem_outcomes(records, phase))


def row_design_cells(records, phase="tutor"):
    """One (condition, problem_type, opportunity, correct) design cell per
    problem of the row-level collapse, in log order."""
    return [(p.condition, p.problem_type, p.opportunity, p.correct)
            for p in row_problem_outcomes(records, phase)]


def row_filter_hard(records):
    """The rows of hard box problems."""
    return [r for r in records if r.problem_type == "box_hard"]


def first_rows(records):
    """The first row of each (replication, agent, problem, phase, type), in log
    order.  ``problem_outcomes``, ``filter_hard`` and the set of problem types
    give the same results on these rows as on all of ``records``."""
    key = itemgetter(1, 0, 4, 3, 5)
    starts = list(map(next, map(itemgetter(1), groupby(records, key))))
    if len(set(map(itemgetter(4), starts))) == len(starts):
        return starts  # no problem id starts two runs, so no key does
    seen, out = set(), []
    for row in starts:
        k = key(row)
        if k not in seen:
            seen.add(k)
            out.append(row)
    return out


def reference_fit(records, phase, terms):
    """A log-level model fitted on one design row per problem, unweighted;
    ``analytics.fit_logistic`` must give the same fit from counted cells."""
    return fit_logit(*build_design(row_design_cells(records, phase), terms))


def evaluate(expr, values):
    """Evaluate against role -> exact number; None when unbound or divide-by-zero.

    The reference semantics for ``induction.evaluate``, which walks the same
    expression (a role, an ``int`` constant or an ``(op, left, right)``
    tuple) over every field value and binds a role only while its field
    holds an ``int``: this form is given those ``int`` values alone.
    """
    if isinstance(expr, tuple):
        op, left, right = expr
    elif isinstance(expr, str):
        return values.get(expr)
    else:
        return expr
    left = evaluate(left, values)
    if left is None:
        return None
    right = evaluate(right, values)
    if right is None:
        return None
    if op == "add":
        return left + right
    if op == "subtract":
        return left - right
    if op == "multiply":
        return left * right
    if right == 0:
        return None
    return divide(left, right)


def utility(skill) -> Fraction:
    """A skill's smoothed success rate: (successes + 1) / (attempts + 2)."""
    return Fraction(skill.successes + 1, skill.attempts + 2)


def materialized_explain(wm, demo, max_depth=2, allow_constant=True):
    """``induction.explain``'s result from its documented order alone.

    Each depth is built in full, values and all, and then filtered for the
    target.  Depth 0 is the numeric leaves in field order.  Depth ``d`` holds
    every call whose deeper operand has depth ``d - 1``, over disjoint
    leaves, in this order: operator (add, subtract, multiply, divide), then
    (left depth, right depth) pairs in ascending order, then the left
    operand's position in its depth, then the right operand's.  A
    commutative call keeps one operand order only: the one whose left
    operand comes first by (depth, position).  A call whose value is
    undefined (a zero divisor) is left out.  Each tree found is rendered
    with commutative operands in text order, and the first of any two that
    render alike is kept.  Keys, arithmetic and rendering are this oracle's
    own, so the result fixes the order in which ``explain`` must return its
    trees independently of how ``induction`` builds them.
    """
    if demo.action != INPUT_VALUE:
        return []
    target = int(demo.input)
    # An entry is (rank, leaf set, value, tree, text); rank is (depth, position).
    levels = [[((0, i), frozenset((i,)), Fraction(value), role, role)
               for i, (role, value) in enumerate(wm.numeric_leaves())]]
    for d in range(max_depth + 1):
        if d > 0:
            level = []
            for op, fn in _OPS.items():
                for dl, dr in sorted(itertools.product(range(d), repeat=2)):
                    if max(dl, dr) != d - 1:
                        continue
                    for left in levels[dl]:
                        for right in levels[dr]:
                            if left[1] & right[1]:
                                continue
                            if op in _COMMUTATIVE and right[0] < left[0]:
                                continue
                            value = fn(left[2], right[2])
                            if value is None:
                                continue
                            lt, ltext, rt, rtext = left[3], left[4], right[3], right[4]
                            if op in _COMMUTATIVE and rtext < ltext:
                                lt, ltext, rt, rtext = rt, rtext, lt, ltext
                            level.append(((d, len(level)), left[1] | right[1], value,
                                          (op, lt, rt), f"({op} {ltext} {rtext})"))
            levels.append(level)
        found, seen = [], set()
        for _rank, _leaves, value, tree, text in levels[d]:
            if value == target and text not in seen:
                seen.add(text)
                found.append(tree)
        if found:
            return found
    if allow_constant:
        return [target]
    return []


def reference_memory(entries, family=None):
    """Working memory of checked (role, ``FieldState``) entries, one field at a
    time: each field's value and filled/empty literal, its role in the
    editable set when it is editable and in the open set when it is also
    empty, then what the family derives from the values."""
    fields, preds, editable, open_roles = {}, set(), set(), set()
    for role, state in entries:
        fields[role] = state.value
        preds.add(("filled" if state.value is not None else "empty", role))
        if state.editable:
            editable.add(role)
            if state.value is None:
                open_roles.add(role)
    if family is not None:
        preds |= family.derive(fields)
    wm = WorkingMemory.__new__(WorkingMemory)
    wm.fields, wm.editable, wm.family = fields, frozenset(editable), family
    wm.predicates, wm.open_roles = frozenset(preds), frozenset(open_roles)
    return wm


class _ReferenceSkill:
    """A learned production as the reference agent keeps it."""

    def __init__(self, skill_id, role, action, procedure, conditions):
        self.skill_id, self.target_role, self.action = skill_id, role, action
        self.procedure, self.conditions, self.required = procedure, conditions, frozenset()
        self.successes = self.attempts = 0

    def learn(self, wm, correct):
        """Count one outcome in ``wm`` and refine the predicate sets: a correct
        one keeps only what holds, a wrong one requires what failed to hold."""
        sat = wm.predicates
        self.attempts += 1
        if correct:
            self.successes += 1
            self.conditions, self.required = self.conditions & sat, self.required & sat
        else:
            self.required = self.required | {p for p in self.conditions if p not in sat}


def _reference_value(skill, wm):
    """The skill's value in ``wm`` over its ``int`` fields; None when its
    procedure cannot execute, and the empty string for a structural action."""
    if skill.procedure is None:
        return ""
    ints = {role: value for role, value in wm.fields.items() if type(value) is int}
    return evaluate(skill.procedure, ints)


def _reference_problem(skills, session):
    """(correct, steps) of one problem, perceived afresh at every step."""
    training = session.mode == "tutor"
    steps, excluded = [], set()
    while (step := session.next_step()) is not None:
        wm = reference_memory([(r, FieldState(r, v, e)) for r, v, e in session.snapshot()],
                              session.family)
        candidates = [(sk, value) for sk in skills
                      if sk.target_role in wm.open_roles and sk.skill_id not in excluded
                      and sk.required <= wm.predicates
                      and (value := _reference_value(sk, wm)) is not None]
        if not candidates:
            steps.append((step.selection, HINT))
            if not training:
                break
            demo = session.demonstrate()
            target = int(demo.input) if demo.action == INPUT_VALUE else ""
            credited = [sk for sk in skills if sk.target_role == demo.selection
                        and sk.action == demo.action and _reference_value(sk, wm) == target]
            for sk in credited:
                sk.learn(wm, True)
            if not credited:
                procedure = (materialized_explain(wm, demo)[0]
                             if demo.action == INPUT_VALUE else None)
                skills.append(_ReferenceSkill(f"s{len(skills) + 1:04d}", demo.selection,
                                              demo.action, procedure, wm.predicates))
            excluded.clear()
            continue
        skill, value = min(candidates, key=lambda c: (
            -utility(c[0]), -c[0].attempts, c[0].skill_id))
        sai = (SAI(skill.target_role, skill.action) if skill.procedure is None
               else SAI(skill.target_role, INPUT_VALUE, render_value(value)))
        outcome = session.submit(sai)
        steps.append((step.selection, outcome))
        if training:
            skill.learn(wm, outcome == CORRECT)
        if outcome == ERROR:
            if not training:
                break
            excluded.add(skill.skill_id)
        else:
            excluded.clear()
    return all(outcome == CORRECT for _role, outcome in steps), steps


def reference_run_agent(config, replication, agent_index, problems=None):
    """``experiment.run_agent``'s log entries from a plain agent.

    It perceives afresh through ``reference_memory`` at every step, matches
    through ``evaluate`` over the ``int`` fields, ranks by ``utility``, then
    attempts, then the smallest skill id, explains through
    ``materialized_explain``, and refines and credits its own skills.  It
    calls none of the agent's, induction's or working memory's own steps.
    """
    condition = agent_condition(config, agent_index)
    if problems is None:
        problems = _generate_sets(config, replication, agent_index)
    pretrain, training, posttest = problems
    skills, opportunities, entries = [], {}, []
    for scripts, phase, log in ((pretrain, "tutor", False), (training, "tutor", True),
                                (posttest, "posttest", True)):
        for script in scripts:
            correct, steps = _reference_problem(skills, TutorSession(script, phase))
            opp = opportunities.get(script.problem_type, 0)
            if log and steps:
                entries.append((f"a{agent_index:03d}", replication, condition, phase,
                                script.problem_id, script.problem_type, opp, correct,
                                tuple(steps)))
            opportunities[script.problem_type] = opp + 1
    return entries
