"""Working-memory projection, predicates, and step-proposal validation."""
from __future__ import annotations

from fractions import Fraction

import pytest

from simtutor.state import (
    SAI,
    FieldState,
    InvariantError,
    MalformedTutorError,
    WorkingMemory,
    render_value,
)
from simtutor.tutors import BOX_FAMILY, FRACTION_FAMILY


def make_wm(*pairs, family=None):
    return WorkingMemory([(r, FieldState(role=r, value=v)) for r, v in pairs],
                         family)


def test_sai_input_required_iff_entering_a_value():
    SAI("f", "input_value", "3")
    SAI("done", "press_done")
    with pytest.raises(InvariantError):
        SAI("f", "input_value")
    with pytest.raises(InvariantError):
        SAI("done", "press_done", "3")
    with pytest.raises(InvariantError):
        SAI("f", "poke")


def test_render_value_uses_integer_tokens_when_whole():
    assert render_value(Fraction(6)) == "6"
    assert render_value(Fraction(7, 5)) == "7/5"
    assert render_value(Fraction(-3, 1)) == "-3"


def test_duplicate_ids_or_roles_are_malformed():
    with pytest.raises(MalformedTutorError):
        WorkingMemory([("a", FieldState(role="a", value=1)),
                       ("a", FieldState(role="a", value=2))])
    with pytest.raises(MalformedTutorError):  # a key is its state's role
        WorkingMemory([("a", FieldState(role="x", value=1))])
    with pytest.raises(MalformedTutorError):
        WorkingMemory([])


def test_unknown_field_lookup_raises():
    wm = make_wm(("num1", 1))
    with pytest.raises(InvariantError):
        wm.field("ghost")
    with pytest.raises(InvariantError):
        wm.with_value("ghost", 1)


def test_numeric_leaves_skip_symbols_checks_and_blanks():
    wm = make_wm(("num1", 4), ("op", "+"), ("convert_check", True),
                 ("answer_num", None), ("den1", 7))
    assert wm.numeric_leaves() == [("num1", Fraction(4)), ("den1", Fraction(7))]


def test_predicate_snapshot_covers_the_declared_vocabulary():
    wm = make_wm(("num1", 1), ("den1", 4), ("op", "+"), ("num2", 2),
                 ("den2", 4), ("convert_check", True), ("answer_num", None),
                 family=FRACTION_FAMILY)
    preds = wm.predicates
    assert ("filled", "num1") in preds
    assert ("empty", "answer_num") in preds
    assert ("op_equals", "+") in preds
    assert ("denominators_equal",) in preds
    assert ("denominators_differ",) not in preds
    assert ("box_checked",) in preds
    # Without a tutor family only the filled/empty literals are true.
    bare = make_wm(("den1", 4), ("op", "+"), ("den2", 4))
    assert bare.predicates == {("filled", "den1"), ("filled", "op"),
                               ("filled", "den2")}


def test_row_operator_predicates_for_the_box_interface():
    wm = make_wm(("r1_a", 2), ("r1_op", "/"), ("r1_b", 3),
                 ("r2_a", 7), ("r2_op", "-"), ("r2_b", None), ("target", 3),
                 family=BOX_FAMILY)
    assert ("op_is", "r1_op", "/") in wm.predicates
    assert ("op_is", "r2_op", "-") in wm.predicates
