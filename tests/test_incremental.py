"""Incremental working memory and procedure evaluation against their references.

``run_problem`` perceives once per problem, through a per-shape cache of fill
literals, open roles and editable roles that the constructor shares, and
derives every later state with ``WorkingMemory.with_value``.  These
properties check that shortcut against the slow, obviously-correct path it
replaces: ``reference_memory`` builds working memory field by field, with no
shape cache.  Skills evaluate their procedures (a role, an ``int`` or an
``(op, left, right)`` tuple) over the field values, binding a role only while
its field holds an ``int``; the oracle ``evaluate`` over a role -> number map
is the reference for that walk.  The session-driven properties also check
that ``TutorSession.next_step`` is the first canonical step still empty.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simtutor import induction
from simtutor.agent import perceive
from simtutor.induction import (
    OPS,
    divide,
)
from simtutor.state import (
    CORRECT,
    ERROR,
    INPUT_VALUE,
    SAI,
    FieldState,
    MalformedTutorError,
    WorkingMemory,
    render_value,
)
from simtutor.tutors import (
    BOX_FAMILY,
    FRACTION_EDITABLE,
    FRACTION_FAMILY,
    FRACTION_TYPES,
    TutorSession,
    gen_box_problem,
    gen_fraction_problem,
)

from _oracles import evaluate, reference_memory


def assert_same_memory(derived, fresh):
    assert list(derived.fields.items()) == list(fresh.fields.items())
    assert derived.editable == fresh.editable
    assert derived.family is fresh.family
    assert derived.predicates == fresh.predicates
    assert derived.open_roles == fresh.open_roles
    leaves = derived.numeric_leaves()
    assert leaves == fresh.numeric_leaves()
    assert [type(v) for _r, v in leaves] == [int] * len(leaves)


def assert_fields_are(wm, entries):
    """``field`` gives back each (role, ``FieldState``) entry working memory
    was perceived from, editability included."""
    for role, state in entries:
        assert wm.field(role) == state


# -- sessions driven by random actions ---------------------------------------

@st.composite
def scripts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(FRACTION_TYPES + ("easy", "hard")))
    if kind in FRACTION_TYPES:
        return gen_fraction_problem(kind, rng, "p")
    constraint = draw(st.sampled_from(("constrained", "unconstrained")))
    return gen_box_problem(kind, constraint, rng, "p")


def _wrong(step):
    if step.action == INPUT_VALUE:
        return SAI(step.selection, INPUT_VALUE, str(int(step.input) + 1))
    return SAI(step.selection, INPUT_VALUE, "0")


def _entries(snapshot):
    return [(r, FieldState(r, v, e)) for r, v, e in snapshot]


def session_reference(session):
    """Working memory of ``session`` built field by field."""
    return reference_memory(_entries(session.snapshot()), session.family)


def assert_next_step_is_the_first_empty_one(session, script):
    # Posttest locks steps in any order, so the first empty step can lie
    # before one that is already locked.
    empty = [s for s in script.canonical_steps if session.value(s.selection) is None]
    assert session.next_step() == (empty[0] if empty else None)


def _act(session, script, mode, action, pick):
    """Apply one drawn action; returns (the role it changed or None, outcome)."""
    if action == "demo" and mode == "tutor":
        return session.demonstrate().selection, CORRECT
    if mode == "tutor":
        step = session.next_step()
    else:  # posttest accepts any unlocked step, in any order
        unlocked = [s for s in script.canonical_steps
                    if session.value(s.selection) is None]
        step = unlocked[pick % len(unlocked)]
    sai = step if action == "correct" else _wrong(step)
    outcome = session.submit(sai)
    return (sai.selection if outcome == CORRECT else None), outcome


_MODES = st.sampled_from(("tutor", "posttest"))
_ACTIONS = st.lists(st.tuples(st.sampled_from(("correct", "wrong", "demo")),
                              st.integers(0, 7)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(script=scripts(), mode=_MODES, actions=_ACTIONS)
def test_derived_memory_equals_fresh_perception(script, mode, actions):
    session = TutorSession(script, mode)
    wm = perceive(session)
    outcome = CORRECT
    for action, pick in actions:
        if (mode == "posttest" and outcome == ERROR) or session.next_step() is None:
            break
        before = session_reference(session)
        changed, outcome = _act(session, script, mode, action, pick)
        previous = wm
        if changed is not None:
            wm = wm.with_value(changed, session.value(changed))
        assert_same_memory(wm, session_reference(session))
        assert_same_memory(previous, before)  # copy on write
        assert_next_step_is_the_first_empty_one(session, script)


# -- perception and the constructor against the field-by-field reference ----

@settings(max_examples=300, deadline=None)
@given(script=scripts(), mode=_MODES, actions=_ACTIONS)
def test_perception_equals_the_reference_constructor(script, mode, actions):
    session = TutorSession(script, mode)
    assert_same_memory(perceive(session), session_reference(session))
    assert_fields_are(perceive(session), _entries(session.snapshot()))
    outcome = CORRECT
    for action, pick in actions:
        if (mode == "posttest" and outcome == ERROR) or session.next_step() is None:
            break
        _changed, outcome = _act(session, script, mode, action, pick)
        assert_same_memory(perceive(session), session_reference(session))
        assert_fields_are(perceive(session), _entries(session.snapshot()))
        assert_next_step_is_the_first_empty_one(session, script)


class _Snapshot:
    """A stand-in session that shows a fixed snapshot."""

    def __init__(self, snapshot, family):
        self.snapshot = lambda: snapshot
        self.family = family


@pytest.mark.parametrize("family, script", [
    (FRACTION_FAMILY, gen_fraction_problem("add_diff", random.Random(1), "p")),
    (BOX_FAMILY, gen_box_problem("hard", "constrained", random.Random(1), "p")),
])
def test_malformed_snapshots_raise_after_a_good_one_of_the_same_length(family, script):
    good = TutorSession(script, "tutor").snapshot()
    perceive(_Snapshot(good, family))  # fills the shape cache
    first, second = good[0], good[1]
    alien = [("zzz", *first[1:])] + good[1:]
    duplicate = [first, (first[0], *second[1:])] + good[2:]
    cases = [(alien, "role 'zzz' not in the tutor's layout"),
             (duplicate, f"duplicate role {first[0]!r}"),
             ([], "empty tutor snapshot")]
    for snapshot, message in cases:
        with pytest.raises(MalformedTutorError, match=re.escape(message)):
            perceive(_Snapshot(snapshot, family))


# -- arbitrary single-field changes, including the derived-predicate inputs --

_SYMBOLS = ("+", "x", "-", "*", "/")


def _field_values(role):
    if role in ("op", "r1_op", "r2_op"):
        return st.one_of(st.none(), st.sampled_from(_SYMBOLS))
    if role in ("convert_check", "done"):
        return st.one_of(st.none(), st.just(True))
    return st.one_of(st.none(), st.integers(-3, 12))


@st.composite
def memories_and_changes(draw):
    family = draw(st.sampled_from((FRACTION_FAMILY, BOX_FAMILY)))
    layout = family.layout
    editable = (FRACTION_EDITABLE if family is FRACTION_FAMILY
                else draw(st.frozensets(st.sampled_from(layout))))
    values = {r: draw(_field_values(r)) for r in layout}
    role = draw(st.sampled_from(layout))
    return family, editable, values, role, draw(_field_values(role))


def _layout_entries(family, editable, values):
    return [(r, FieldState(r, values[r], r in editable)) for r in family.layout]


@settings(max_examples=500, deadline=None)
@given(memories_and_changes())
def test_one_field_update_equals_rebuilding(case):
    family, editable, values, role, value = case
    entries = _layout_entries(family, editable, values)
    wm, want = WorkingMemory(entries, family), reference_memory(entries, family)
    assert_same_memory(wm, want)
    derived = wm.with_value(role, value)
    changed = _layout_entries(family, editable, {**values, role: value})
    assert_same_memory(derived, reference_memory(changed, family))
    assert_same_memory(wm, want)


@settings(max_examples=300, deadline=None)
@given(memories_and_changes(), st.data())
def test_snapshots_in_any_order_equal_the_reference(case, data):
    # In layout order a snapshot is built from its columns; reordered or
    # partial, it goes through the constructor.  Both share one builder.
    family, editable, values, _role, _value = case
    snapshot = [(r, values[r], r in editable) for r in family.layout]
    order = data.draw(st.sampled_from(("layout", "shuffled", "subset")))
    if order == "shuffled":
        snapshot = data.draw(st.permutations(snapshot))
    elif order == "subset":
        keep = data.draw(st.lists(st.booleans(), min_size=len(snapshot),
                                  max_size=len(snapshot)).filter(any))
        snapshot = [triple for triple, k in zip(snapshot, keep) if k]
    entries = _entries(snapshot)
    want = reference_memory(entries, family)
    assert_same_memory(perceive(_Snapshot(snapshot, family)), want)
    assert_same_memory(WorkingMemory(entries, family), want)
    assert_same_memory(WorkingMemory(entries), reference_memory(entries))


# -- procedures evaluated over the fields -------------------------------------

_ROLES = ("a", "b", "c", "d")

expressions = st.recursive(
    st.one_of(st.sampled_from(_ROLES), st.integers(-4, 9)),
    lambda sub: st.tuples(st.sampled_from(OPS), sub, sub),
    max_leaves=6)

# Only an ``int`` binds a role: a Fraction, an operator symbol, a checked box
# (``True``, itself an ``int`` instance) and an empty field are all unbound.
field_values = st.one_of(st.integers(-6, 12),
                         st.fractions(min_value=-6, max_value=12, max_denominator=7),
                         st.just("+"), st.just(True), st.none())


def _rational(expr, values):
    """``evaluate`` as it was before exact integers: Fractions throughout."""
    if type(expr) is str:
        v = values.get(expr)
        return None if v is None else Fraction(v)
    if type(expr) is int:
        return Fraction(expr)
    op, left, right = expr
    left = _rational(left, values)
    right = None if left is None else _rational(right, values)
    if right is None:
        return None
    if op == "add":
        return left + right
    if op == "subtract":
        return left - right
    if op == "multiply":
        return left * right
    return None if right == 0 else left / right


@settings(max_examples=500, deadline=None)
@given(expr=expressions, values=st.dictionaries(st.sampled_from(_ROLES), field_values))
# A leaf operand is read inline: each unbound kind on either side, an int
# constant on either side, a zero divisor, and a nested operand that recurses.
@example(expr=("add", "a", "b"), values={"a": True, "b": 1})
@example(expr=("multiply", "b", "a"), values={"a": True, "b": 1})
@example(expr=("add", "a", "b"), values={"a": "+", "b": 1})
@example(expr=("subtract", "b", "a"), values={"a": "+", "b": 1})
@example(expr=("add", "a", "b"), values={"a": Fraction(1, 2), "b": 1})
@example(expr=("divide", "b", "a"), values={"a": Fraction(1, 2), "b": 1})
@example(expr=("add", "a", "b"), values={"a": None, "b": 1})
@example(expr=("add", "b", "a"), values={"b": 1})
@example(expr=("multiply", 3, "a"), values={"a": 4})
@example(expr=("subtract", "a", -2), values={"a": 4})
@example(expr=("divide", 7, 2), values={})
@example(expr=("divide", "a", "b"), values={"a": 3, "b": 0})
@example(expr=("divide", "a", 0), values={"a": 3})
@example(expr=("divide", "a", ("subtract", "b", "b")), values={"a": 3, "b": 5})
@example(expr=("add", ("divide", "a", "b"), "c"), values={"a": 1, "b": 3, "c": 2})
@example(expr=("add", "c", ("divide", "a", "b")), values={"a": 6, "b": 3, "c": 2})
@example(expr=("add", ("add", "a", "d"), "c"), values={"a": 1, "c": 2})
def test_evaluate_binds_only_int_fields(expr, values):
    bound = {r: v for r, v in values.items() if type(v) is int}
    got = induction.evaluate(expr, values)
    want = evaluate(expr, bound)
    assert got == want and type(got) is type(want)
    assert want == _rational(expr, bound)
    if want is not None:
        assert render_value(want) == render_value(Fraction(want))


def test_whole_quotients_stay_integers():
    assert divide(12, 4) == 3 and type(divide(12, 4)) is int
    assert divide(-7, 7) == -1 and type(divide(-7, 7)) is int
    assert divide(7, 2) == Fraction(7, 2)
    assert divide(7, 0) is None
    assert render_value(6) == "6" and render_value(Fraction(7, 5)) == "7/5"
