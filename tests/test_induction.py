"""Explanation search, generalization, and condition refinement."""
from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simtutor.induction import (
    MAX_DEPTH,
    OPS,
    Skill,
    _compose_level,
    _matching_keys,
    depth,
    explain,
    induce_from_demo,
    refine_conditions,
    sexpr,
)
from simtutor.state import SAI, FieldState, InvariantError, WorkingMemory
from simtutor.tutors import FRACTION_FAMILY

from _oracles import (
    brute_explanations,
    evaluate,
    materialized_explain,
    utility,
)


def make_wm(*pairs, editable=()):
    return WorkingMemory([
        (role, FieldState(role=role, value=value, editable=role in editable))
        for role, value in pairs
    ], FRACTION_FAMILY)


def tokens(exprs):
    return {sexpr(e) for e in exprs}


# -- explain ---------------------------------------------------------------

def test_product_of_denominators_is_the_only_explanation():
    wm = make_wm(("den1", 2), ("den2", 3))
    out = explain(wm, SAI("conv_den1", "input_value", "6"))
    assert [sexpr(e) for e in out] == ["(multiply den1 den2)"]


def test_copy_explanation_has_depth_zero():
    wm = make_wm(("num1", 5), ("den1", 3))
    out = explain(wm, SAI("answer_num", "input_value", "5"))
    assert [sexpr(e) for e in out] == ["num1"]
    assert depth(out[0]) == 0


def test_three_way_ambiguous_state_yields_exactly_three_explanations():
    wm = make_wm(("a", 7), ("b", 3), ("c", 2), ("d", 2))
    out = explain(wm, SAI("t", "input_value", "4"))
    assert tokens(out) == {"(subtract a b)", "(add c d)", "(multiply c d)"}
    assert all(depth(e) == 1 for e in out)


def test_constant_fallback_only_when_no_field_explanation_exists():
    wm = make_wm(("a", 7),)
    out = explain(wm, SAI("t", "input_value", "99"))
    assert out == [99]
    assert explain(wm, SAI("t", "input_value", "99"), allow_constant=False) == []


def test_empty_field_set_yields_the_constant_explanation():
    wm = make_wm(("op", "+"),)
    out = explain(wm, SAI("t", "input_value", "3"))
    assert out == [3]


def test_minimal_depth_shadows_deeper_explanations():
    # 6 = 2*3 at depth 1, also (2*3)*1 at depth 2; only depth 1 is returned.
    wm = make_wm(("num1", 1), ("den1", 2), ("num2", 1), ("den2", 3))
    out = explain(wm, SAI("t", "input_value", "6"))
    assert tokens(out) == {"(multiply den1 den2)"}


def test_division_by_zero_prunes_branches():
    wm = make_wm(("a", 0), ("b", 5))
    out = explain(wm, SAI("t", "input_value", "5"))
    assert "b" in tokens(out)


def test_explanations_evaluate_to_the_demonstrated_value():
    rng = random.Random(4)
    for _ in range(50):
        pairs = [(f"f{i}", rng.randint(1, 12)) for i in range(rng.randint(2, 5))]
        target = rng.randint(1, 30)
        wm = make_wm(*pairs)
        values = {r: Fraction(v) for r, v in pairs}
        for e in explain(wm, SAI("t", "input_value", str(target))):
            assert evaluate(e, values) == target


def test_search_matches_brute_force_enumeration():
    rng = random.Random(11)
    for _ in range(100):
        pairs = [(f"f{i}", rng.randint(1, 12)) for i in range(rng.randint(2, 5))]
        target = rng.randint(1, 40)
        wm = make_wm(*pairs)
        got = explain(wm, SAI("t", "input_value", str(target)), allow_constant=False)
        oracle_depth, oracle_set = brute_explanations(pairs, target)
        if oracle_depth is None:
            assert got == []
        else:
            assert tokens(got) == oracle_set
            assert {depth(e) for e in got} == {oracle_depth}


# Six leaves cost the oracle up to 0.15 s, so the example count stays small.
@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-6, 12), min_size=2, max_size=6),
       target=st.integers(-30, 60))
def test_search_matches_brute_force_on_drawn_states(values, target):
    # Zero, repeated and negative leaves: row-1 subtraction reaches them.
    pairs = [(f"f{i}", v) for i, v in enumerate(values)]
    wm = WorkingMemory([(r, FieldState(role=r, value=v)) for r, v in pairs])
    got = explain(wm, SAI("t", "input_value", str(target)), allow_constant=False)
    oracle_depth, oracle_set = brute_explanations(pairs, target)
    assert tokens(got) == oracle_set
    assert len(tokens(got)) == len(got)  # no two trees render alike
    assert {depth(e) for e in got} == ({oracle_depth} if got else set())


@st.composite
def search_cases(draw):
    """(leaf values, target, allow_constant) for the order property.

    Half the targets with two or more leaves are the value of a drawn chain
    ``(f op f) op f`` over distinct leaves, as deep as ``MAX_DEPTH`` and the
    leaves allow, so many are first reachable at depth 2.  Half the chains of
    three leaves start with a quotient, often inexact, that the next leaf, a
    multiple of the divisor, makes whole again.
    """
    values = draw(st.lists(st.integers(-6, 12), min_size=1, max_size=5))
    target = draw(st.integers(-30, 60))
    if len(values) >= 2 and draw(st.booleans()):
        order = draw(st.permutations(range(len(values))))
        size = min(len(values), MAX_DEPTH + 1)
        roles = [f"f{i}" for i in order[:size]]
        tree = roles[0]
        if size >= 3 and values[order[1]] != 0 and draw(st.booleans()):
            multiple = draw(st.sampled_from((-3, -2, 2, 3)))
            values[order[2]] = values[order[1]] * multiple
            tree = ("multiply", ("divide", tree, roles[1]), roles[2])
            roles = roles[3:]
        else:
            roles = roles[1:]
        for role in roles:
            op = draw(st.sampled_from(OPS))
            tree = ((op, tree, role) if draw(st.booleans())
                    else (op, role, tree))
        value = evaluate(tree, {f"f{n}": Fraction(v) for n, v in enumerate(values)})
        if value is not None and value.denominator == 1:
            target = int(value)
    return values, target, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=search_cases())
@example(case=([3, 2, 10], 15, True))     # (multiply (divide f0 f1) f2)
@example(case=([0, 0, 5, -5], 0, False))  # zero and repeated leaves
@example(case=([2, 7], 99, True))         # the constant
@example(case=([2, 7], 99, False))        # nothing
@example(case=([2, 3, 5, 7], 77, True))   # depth 3 only: the constant
@example(case=([1, 1, 5], 3, True))       # (leaf, call) before (call, leaf)
def test_explain_keeps_the_materialized_order(case):
    # The brute-force property compares sets; this one pins the order too,
    # which decides the first explanation and so the skill that is learned.
    values, target, allow_constant = case
    wm = WorkingMemory([(f"f{i}", FieldState(role=f"f{i}", value=v))
                        for i, v in enumerate(values)])
    demo = SAI("t", "input_value", str(target))
    assert (explain(wm, demo, allow_constant)
            == materialized_explain(wm, demo, MAX_DEPTH, allow_constant))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-6, 12), min_size=2, max_size=6),
       target=st.integers(-30, 60))
@example(values=[0, 0, 5], target=0)    # zero divisors, repeated leaves
@example(values=[3, 2, 10], target=15)  # only a depth-2 quotient chain
@example(values=[1, 2, 3, 4], target=21)  # (multiply (add f0 f1) (add f2 f3))
def test_scan_keeps_the_matching_keys_of_the_build(values, target):
    # explain returns the scan's keys in the build's order, and it stops at
    # the first depth that matches; compare the two functions at every depth.
    levels = [[((0, i), 1 << i, v) for i, v in enumerate(values)]]
    for d in range(1, MAX_DEPTH + 1):
        built = _compose_level(levels, d)
        assert _matching_keys(levels, d, target) == [
            key for key, _used, value in built if value == target]
        levels.append(built)


def test_depth_two_explanations_run_by_operand_depths():
    # 3 = 5 - (1 + 1) pairs a leaf with a call, so it comes before the two
    # (call, leaf) trees of the same operator, and it is the one learned.
    wm = make_wm(("a", 1), ("b", 1), ("c", 5))
    demo = SAI("t", "input_value", "3")
    expected = ["(subtract c (add a b))", "(subtract (subtract c a) b)",
                "(subtract (subtract c b) a)"]
    assert [sexpr(e) for e in materialized_explain(wm, demo)] == expected
    assert [sexpr(e) for e in explain(wm, demo)] == expected


def test_explanations_order_commutative_operands_by_rendering():
    # den2 is the first leaf, so the search keys the product den2 * den1.
    wm = make_wm(("den2", 3), ("den1", 2))
    out = explain(wm, SAI("t", "input_value", "6"))
    assert out == [("multiply", "den1", "den2")]
    wm = make_wm(("b", 7), ("a", 3))
    assert [sexpr(e) for e in explain(wm, SAI("t", "input_value", "4"))] == \
        ["(subtract b a)"]


# -- refine_conditions -----------------------------------------------------

def _skill(conditions, required=frozenset()):
    return Skill("s1", "t", "input_value", "num1",
                 frozenset(conditions), frozenset(required))


def test_correct_outcome_with_all_predicates_satisfied_changes_nothing():
    wm = make_wm(("num1", 1), ("den1", 2), ("op", "+"), ("num2", 1), ("den2", 3))
    sk = _skill([("op_equals", "+"), ("denominators_differ",)])
    refine_conditions(sk, wm, True)
    assert sk.conditions == frozenset([("op_equals", "+"), ("denominators_differ",)])


def test_correct_outcome_drops_unsatisfied_predicates():
    wm = make_wm(("num1", 1), ("den1", 4), ("op", "+"), ("num2", 1), ("den2", 4))
    sk = _skill([("op_equals", "+"), ("denominators_differ",)])
    refine_conditions(sk, wm, True)
    assert sk.conditions == frozenset([("op_equals", "+")])


def test_incorrect_outcome_leaves_conditions_unchanged():
    wm = make_wm(("num1", 1), ("den1", 4), ("op", "+"), ("num2", 1), ("den2", 4))
    before = frozenset([("op_equals", "+"), ("denominators_differ",)])
    sk = _skill(before)
    refine_conditions(sk, wm, False)
    assert sk.conditions == before


def test_incorrect_outcome_gates_on_the_violated_predicates():
    wm = make_wm(("num1", 1), ("den1", 4), ("op", "x"), ("num2", 1), ("den2", 4))
    sk = _skill([("op_equals", "+"), ("filled", "num1")])
    refine_conditions(sk, wm, False)
    assert sk.required == frozenset([("op_equals", "+")])


def test_conditions_only_shrink_over_correct_example_sequences():
    rng = random.Random(9)
    sk = None
    previous = None
    for _ in range(20):
        pairs = [("num1", rng.randint(1, 9)), ("den1", rng.randint(2, 12)),
                 ("op", rng.choice(["+", "x"])), ("num2", rng.randint(1, 9)),
                 ("den2", rng.randint(2, 12))]
        wm = make_wm(*pairs)
        if sk is None:
            sk = Skill("s1", "t", "input_value", "num1", wm.predicates)
            previous = sk.conditions
            continue
        refine_conditions(sk, wm, True)
        assert sk.conditions <= previous
        assert sk.required <= sk.conditions
        previous = sk.conditions


_LITERALS = [("op_equals", "+"), ("op_equals", "x"), ("denominators_equal",),
             ("denominators_differ",), ("filled", "num1"), ("empty", "num1")]
_literal_sets = st.frozensets(st.sampled_from(_LITERALS))


@settings(max_examples=200, deadline=None)
@given(conditions=_literal_sets, required=_literal_sets, sat=_literal_sets,
       correct=st.booleans())
# A positive example that drops nothing, and a negative one that adds nothing.
@example(conditions=frozenset(_LITERALS[:2]), required=frozenset(_LITERALS[:1]),
         sat=frozenset(_LITERALS[:3]), correct=True)
@example(conditions=frozenset(_LITERALS[:2]), required=frozenset(_LITERALS[1:2]),
         sat=frozenset(_LITERALS[:1]), correct=False)
def test_refinement_intersects_on_success_and_gates_exactly_the_failed_literals(
        conditions, required, sat, correct):
    sk = _skill(conditions, required)
    refine_conditions(sk, SimpleNamespace(predicates=sat), correct)  # all it reads
    if correct:
        assert (sk.conditions, sk.required) == (conditions & sat, required & sat)
    else:
        assert sk.conditions == conditions
        assert sk.required == required | (conditions - sat)


# -- induce_from_demo ------------------------------------------------------

def test_first_demonstration_creates_exactly_one_skill():
    wm = make_wm(("den1", 2), ("den2", 3), ("conv_den1", None),
                 editable=("conv_den1",))
    skills = []
    created = induce_from_demo(skills, wm, SAI("conv_den1", "input_value", "6"))
    assert created is not None and len(skills) == 1
    assert sexpr(created.procedure) == "(multiply den1 den2)"


# A new skill is generalized from its one demonstration: conditioned on the
# whole observed state, gated on nothing, with the first explanation as its
# procedure.

def test_generalize_conditions_start_with_the_full_observed_state():
    wm = make_wm(("num1", 1), ("den1", 2), ("op", "+"), ("num2", 1), ("den2", 3),
                 ("conv_den1", None), editable=("conv_den1",))
    skill = induce_from_demo([], wm, SAI("conv_den1", "input_value", "6"))
    assert skill.target_role == "conv_den1"
    assert skill.conditions == wm.predicates
    assert ("op_equals", "+") in skill.conditions
    assert ("denominators_differ",) in skill.conditions
    assert ("empty", "conv_den1") in skill.conditions
    assert ("filled", "den1") in skill.conditions
    assert skill.required == frozenset()
    assert (skill.successes, skill.attempts) == (0, 0)


def test_generalize_on_same_denominators_records_that_predicate():
    wm = make_wm(("num1", 1), ("den1", 4), ("op", "+"), ("num2", 2), ("den2", 4),
                 ("answer_num", None), editable=("answer_num",))
    skill = induce_from_demo([], wm, SAI("answer_num", "input_value", "3"))
    assert ("denominators_equal",) in skill.conditions
    # A structural action is generalized the same way, with no procedure.
    wm = make_wm(("num1", 1), ("den1", 4), ("den2", 4), ("convert_check", None),
                 editable=("convert_check",))
    skill = induce_from_demo([], wm, SAI("convert_check", "check_box"))
    assert skill.procedure is None
    assert ("denominators_equal",) in skill.conditions


def test_generalize_constant_explanation():
    # No field of this state explains 2, so the skill learns the constant.
    wm = make_wm(("num1", 1), ("answer_den", None), editable=("answer_den",))
    skill = induce_from_demo([], wm, SAI("answer_den", "input_value", "2"))
    assert skill.procedure == 2
    assert skill.conditions == wm.predicates


def test_demonstration_matching_existing_skill_credits_it():
    wm = make_wm(("den1", 2), ("den2", 3), ("conv_den1", None),
                 editable=("conv_den1",))
    skills = []
    induce_from_demo(skills, wm, SAI("conv_den1", "input_value", "6"))
    wm2 = make_wm(("den1", 3), ("den2", 4), ("conv_den1", None),
                  editable=("conv_den1",))
    created = induce_from_demo(skills, wm2, SAI("conv_den1", "input_value", "12"))
    assert created is None and len(skills) == 1
    assert (skills[0].successes, skills[0].attempts) == (1, 1)


def test_demo_credit_requires_matching_target_role():
    wm = make_wm(("den1", 2), ("den2", 3), ("conv_den1", None), ("conv_den2", None),
                 editable=("conv_den1", "conv_den2"))
    skills = []
    induce_from_demo(skills, wm, SAI("conv_den1", "input_value", "6"))
    created = induce_from_demo(skills, wm, SAI("conv_den2", "input_value", "6"))
    assert created is not None and len(skills) == 2
    assert [sk.skill_id for sk in skills] == ["s0001", "s0002"]  # numbered from the store


def test_product_rule_is_induced_when_it_is_the_unique_explanation():
    pairs = [("num1", 1), ("den1", 2), ("num2", 1), ("den2", 3)]
    oracle_depth, oracle_set = brute_explanations(pairs, 6)
    assert oracle_depth == 1 and oracle_set == {"(multiply den1 den2)"}
    wm = make_wm(*pairs, ("conv_den1", None), editable=("conv_den1",))
    skills = []
    created = induce_from_demo(skills, wm, SAI("conv_den1", "input_value", "6"))
    assert sexpr(created.procedure) == "(multiply den1 den2)"


def test_structural_demo_builds_a_procedure_free_skill():
    wm = make_wm(("num1", 1), ("convert_check", None), editable=("convert_check",))
    skills = []
    created = induce_from_demo(skills, wm, SAI("convert_check", "check_box"))
    assert created.procedure is None and created.action == "check_box"
    assert explain(wm, SAI("convert_check", "check_box")) == []


def test_a_demonstration_outside_working_memory_is_an_invariant_error():
    wm = make_wm(("den1", 2), ("den2", 3))
    skills = []
    with pytest.raises(InvariantError, match="^unknown field 'conv_den1'$"):
        induce_from_demo(skills, wm, SAI("conv_den1", "input_value", "6"))
    assert skills == []


def test_skill_store_growth_is_bounded_by_demonstrations():
    rng = random.Random(2)
    skills = []
    demos = 0
    for _ in range(60):
        pairs = [("num1", rng.randint(1, 9)), ("den1", rng.randint(2, 12)),
                 ("num2", rng.randint(1, 9)), ("den2", rng.randint(2, 12))]
        wm = make_wm(*pairs, ("answer_num", None), editable=("answer_num",))
        value = rng.choice([pairs[0][1] + pairs[2][1], pairs[0][1] * pairs[2][1]])
        induce_from_demo(skills, wm, SAI("answer_num", "input_value", str(value)))
        demos += 1
        assert len(skills) <= demos


# -- skill dataclass -------------------------------------------------------

def test_utility_is_the_smoothed_success_rate():
    sk = _skill([])
    assert utility(sk) == Fraction(1, 2)
    sk.record(True)
    assert utility(sk) == Fraction(2, 3)
    sk.record(False)
    assert utility(sk) == Fraction(1, 2)


def test_stats_invariant_is_enforced():
    with pytest.raises(InvariantError):
        Skill("s1", "t", "input_value", None, frozenset(), successes=2, attempts=1)


def test_skill_serialization_shape():
    sk = Skill("s7", "answer_num", "input_value",
               ("add", "num1", "num2"),
               frozenset([("op_equals", "+")]), frozenset([("op_equals", "+")]),
               successes=3, attempts=4)
    d = sk.to_dict()
    assert d["procedure"] == "(add num1 num2)"
    assert d["conditions"] == ["op_equals +"]
    assert d["required"] == ["op_equals +"]
    assert d["successes"] == 3 and d["attempts"] == 4


def test_expr_roles_and_evaluation():
    e = ("divide", "a", "b")
    assert evaluate(e, {"a": Fraction(7), "b": Fraction(2)}) == Fraction(7, 2)
    assert evaluate(e, {"a": Fraction(7), "b": Fraction(0)}) is None
    assert evaluate(e, {"a": Fraction(7)}) is None
