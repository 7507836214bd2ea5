"""Problem generators, session feedback contract, and the candidate oracle."""
from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from simtutor.state import (
    CORRECT,
    ERROR,
    SAI,
    ConfigError,
    InvariantError,
    ProtocolError,
)
from simtutor.tutors import (
    FRACTION_TYPES,
    ProblemScript,
    TutorSession,
    ambiguity_count,
    gen_box_problem,
    gen_fraction_problem,
    randbelow,
)

from _oracles import brute_candidates


# -- fraction generation -----------------------------------------------------

def test_cross_multiplication_values():
    rng = random.Random(0)
    while True:
        s = gen_fraction_problem("add_diff", rng, "p")
        g = s.given_fields
        if (g["num1"], g["den1"], g["num2"], g["den2"]) == (1, 2, 1, 3):
            break
    expected = {"convert_check": None, "conv_den1": "6", "conv_den2": "6",
                "conv_num1": "3", "conv_num2": "2", "answer_num": "5",
                "answer_den": "6", "done": None}
    assert {st.selection: st.input for st in s.canonical_steps} == expected


def test_multiplication_answers_are_unsimplified():
    rng = random.Random(1)
    while True:
        s = gen_fraction_problem("multiply", rng, "p")
        g = s.given_fields
        if (g["num1"], g["den1"], g["num2"], g["den2"]) == (2, 3, 3, 4):
            break
    steps = {st.selection: st.input for st in s.canonical_steps}
    assert steps["answer_num"] == "6" and steps["answer_den"] == "12"


def test_same_denominator_addition_has_no_conversion_steps():
    rng = random.Random(2)
    s = gen_fraction_problem("add_same", rng, "p")
    g = s.given_fields
    roles = [st.selection for st in s.canonical_steps]
    assert roles == ["answer_num", "answer_den", "done"]
    steps = {st.selection: st.input for st in s.canonical_steps}
    assert steps["answer_num"] == str(g["num1"] + g["num2"])
    assert steps["answer_den"] == str(g["den1"])


def test_generator_ranges_and_type_constraints():
    rng = random.Random(3)
    for _ in range(10_000):
        ptype = rng.choice(["add_same", "add_diff", "multiply"])
        g = gen_fraction_problem(ptype, rng, "p").given_fields
        assert 1 <= g["num1"] <= 9 and 1 <= g["num2"] <= 9
        assert 2 <= g["den1"] <= 12 and 2 <= g["den2"] <= 12
        if ptype == "add_same":
            assert g["den1"] == g["den2"] and g["op"] == "+"
        elif ptype == "add_diff":
            assert g["den1"] != g["den2"] and g["op"] == "+"
        else:
            assert g["op"] == "x"


def test_unknown_problem_type_is_a_config_error():
    with pytest.raises(ConfigError):
        gen_fraction_problem("subtract", random.Random(0), "p")
    with pytest.raises(ConfigError, match="^unknown difficulty 'medium'$"):
        gen_box_problem("medium", "constrained", random.Random(0), "p")
    with pytest.raises(ConfigError, match="^unknown constraint 'loose'$"):
        gen_box_problem("hard", "loose", random.Random(0), "p")


# -- box generation ----------------------------------------------------------

def test_footnote_style_instance_has_three_candidates():
    assert ambiguity_count([7, 3, 2, 2], 4) == 3
    assert brute_candidates([7, 3, 2, 2], 4) == 3


def test_easy_item_box_value_is_the_row_one_result():
    rng = random.Random(4)
    s = gen_box_problem("easy", "constrained", rng, "p")
    g = s.given_fields
    a, op, b = g["r1_a"], g["r1_op"], g["r1_b"]
    value = {"+": a + b, "-": a - b, "*": a * b, "/": a // b if b and a % b == 0 else None}[op]
    assert s.canonical_steps[0].input == str(value)
    assert [st.selection for st in s.canonical_steps] == ["r2_a", "done"]


def test_hard_item_relation_holds():
    rng = random.Random(5)
    for _ in range(50):
        s = gen_box_problem("hard", "unconstrained", rng, "p")
        g = s.given_fields
        x = int(s.canonical_steps[0].input)
        op = g["r2_op"]
        if s.canonical_steps[0].selection == "r2_b":
            left, right = g["r2_a"], x
        else:
            left, right = x, g["r2_b"]
        value = {"+": left + right, "-": left - right, "*": left * right,
                 "/": left / right}[op]
        assert value == g["target"]


def test_constrained_items_have_exactly_one_candidate():
    rng = random.Random(6)
    for i in range(200):
        s = gen_box_problem("hard", "constrained", rng, f"p{i}")
        g = s.given_fields
        visible = [g["r1_a"], g["r1_b"], g.get("r2_a") or g.get("r2_b"), g["target"]]
        x = int(s.canonical_steps[0].input)
        assert brute_candidates(visible, x) == 1
        # the row-one shortcut reads as a fraction on constrained items
        assert g["r1_op"] == "/" and g["r1_a"] % g["r1_b"] != 0


def test_unconstrained_items_have_at_least_two_candidates():
    rng = random.Random(7)
    for i in range(200):
        s = gen_box_problem("hard", "unconstrained", rng, f"p{i}")
        g = s.given_fields
        visible = [g["r1_a"], g["r1_b"], g.get("r2_a") or g.get("r2_b"), g["target"]]
        x = int(s.canonical_steps[0].input)
        assert brute_candidates(visible, x) >= 2


def test_unsatisfiable_generation_is_surfaced():
    from simtutor.state import GenerationError

    class StuckRng:
        # Every draw is the lowest value, which forces g = x = 1 forever, so
        # the correct entry always collides with a visible number and every
        # draw is rejected.
        def getrandbits(self, k):
            return 0

    with pytest.raises(GenerationError):
        gen_box_problem("hard", "constrained", StuckRng(), "p")


# Every range the generators and the box curriculum draw from, plus n = 1.
_DRAWS = [("randint", (1, 30)), ("randint", (2, 30)), ("randint", (4, 4)),
          ("randint", (1, 9)), ("randint", (2, 12)),
          ("choice", ("+", "-", "*", "/")), ("choice", ("given_first", "box_first")),
          ("choice", tuple(range(8)))]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), draws=st.lists(st.sampled_from(_DRAWS),
                                                  min_size=1, max_size=60))
def test_randbelow_reproduces_randint_and_choice(seed, draws):
    ours, theirs = random.Random(seed), random.Random(seed)
    for kind, arg in draws:
        if kind == "randint":
            lo, hi = arg
            assert lo + randbelow(ours, hi - lo + 1) == theirs.randint(lo, hi)
        else:
            assert arg[randbelow(ours, len(arg))] == theirs.choice(arg)
    assert ours.getstate() == theirs.getstate()


_PINS = [None] + [(op, layout) for op in ("+", "-", "*", "/")
                  for layout in ("given_first", "box_first")]


def test_box_generator_draws_are_pinned():
    # Every difficulty x constraint, free and with each (op2, layout) pinned,
    # plus the box curriculum, from one stream per seed: any change to which
    # draws are made, or in what order, changes the digest.
    import hashlib

    from simtutor.experiment import _box_curriculum

    records = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for difficulty in ("easy", "hard"):
            for constraint in ("constrained", "unconstrained"):
                for pin in _PINS:
                    op2, layout = pin or (None, None)
                    records += [gen_box_problem(difficulty, constraint, rng,
                                                f"p{i}", op2, layout).to_record()
                                for i in range(2)]
        for constraint in ("constrained", "unconstrained"):
            records += [s.to_record() for s in _box_curriculum(constraint, rng, "c")]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == \
        "068924c3beba9e9b015e7fc728d2670a5eb50490c4f7df2bc73a8e64ee7f874c"


def test_fraction_generator_draws_are_pinned():
    # Every fraction type, plus both training sequences and the posttest, from
    # one stream per seed: any change to the draws or their order fails here.
    import hashlib

    from simtutor.experiment import _fractions_posttest, sequence_fractions

    records = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for ptype in FRACTION_TYPES:
            records += [gen_fraction_problem(ptype, rng, f"p{i}").to_record()
                        for i in range(4)]
        for condition in ("blocked", "interleaved"):
            records += [s.to_record() for s in sequence_fractions(condition, rng, "c")]
        records += [s.to_record() for s in _fractions_posttest(rng, "t")]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == \
        "047e02d750546ea279193234c26b25e531c63eacb85725b062c79af3f065b8b9"


def test_candidate_count_matches_brute_force_on_random_sets():
    rng = random.Random(8)
    for _ in range(300):
        values = [rng.randint(1, 30) for _ in range(4)]
        answer = rng.randint(1, 40)
        assert ambiguity_count(values, answer) == brute_candidates(values, answer)


# -- sessions ----------------------------------------------------------------

def _script(ptype="add_diff", seed=0):
    return gen_fraction_problem(ptype, random.Random(seed), "p")


def replay_canonical(session: TutorSession):
    """Submit every canonical step in order; returns the outcome list."""
    return [session.submit(step) for step in session.script.canonical_steps]


def test_replaying_canonical_steps_completes_every_generated_item():
    rng = random.Random(9)
    for i in range(100):
        kind = rng.random()
        if kind < 0.4:
            ptype = rng.choice(["add_same", "add_diff", "multiply"])
            s = gen_fraction_problem(ptype, rng, f"p{i}")
        else:
            s = gen_box_problem(rng.choice(["easy", "hard"]),
                                rng.choice(["constrained", "unconstrained"]),
                                rng, f"p{i}")
        session = TutorSession(s, "tutor")
        outcomes = replay_canonical(session)
        assert set(outcomes) == {CORRECT} and session.next_step() is None


def test_correct_entry_locks_and_wrong_entry_does_not():
    session = TutorSession(_script(), "tutor")
    step = session.next_step()
    assert session.submit(step) == CORRECT
    with pytest.raises(ProtocolError):
        session.submit(step)


def test_answer_before_conversion_is_incorrect():
    session = TutorSession(_script("add_diff"), "tutor")
    answer = next(s for s in session.script.canonical_steps
                  if s.selection == "answer_num")
    assert session.submit(SAI("answer_num", "input_value", answer.input)) \
        == ERROR


def test_demonstrations_follow_canonical_order():
    session = TutorSession(_script("add_diff"), "tutor")
    sai = session.demonstrate()
    assert sai == ("convert_check", "check_box", None)
    for _ in range(4):
        session.demonstrate()
    sai = session.demonstrate()
    assert sai.selection == "answer_num"
    expected = next(s.input for s in session.script.canonical_steps
                    if s.selection == "answer_num")
    assert sai.input == expected


def test_demonstrating_a_malformed_step_raises_before_locking_it():
    script = _script("add_same")._replace(
        canonical_steps=(("answer_num", "input_value"),))
    session = TutorSession(script, "tutor")
    with pytest.raises(InvariantError, match="input is present iff"):
        session.demonstrate()
    assert session.next_step() == script.canonical_steps[0]


@pytest.mark.parametrize("token, value", [("12", 12), ("-3", -3), ("²5", "²5"),
                                          ("--5", "--5"), ("05", "05"), ("1_0", "1_0")])
def test_a_locked_entry_is_an_int_only_when_it_is_a_canonical_integer(token, value):
    # The log reader's rule: an int is stored only when it renders as the token.
    script = _script("add_same")._replace(
        canonical_steps=(SAI("answer_num", "input_value", token),))
    session = TutorSession(script, "tutor")
    session.demonstrate()
    assert session.value("answer_num") == value
    assert type(session.value("answer_num")) is type(value)


def test_a_session_mode_is_a_phase_word_of_the_log():
    # The mode is the phase the log records: "tutor" or "posttest".
    with pytest.raises(ConfigError, match="unknown session mode 'training'"):
        TutorSession(_script(), "training")
    with pytest.raises(ConfigError, match="^unknown tutor family 'chess'$"):
        TutorSession(_script()._replace(family="chess"), "tutor")


def test_demonstrate_is_a_protocol_error_at_posttest():
    session = TutorSession(_script(), "posttest")
    with pytest.raises(ProtocolError):
        session.demonstrate()


def test_posttest_records_silently_and_judges_at_the_end():
    session = TutorSession(_script("add_same"), "posttest")
    assert session.submit(SAI("answer_num", "input_value", "999")) == ERROR
    with pytest.raises(ProtocolError):
        session.submit(SAI("answer_num", "input_value", "999"))
    assert session.next_step() is not None


def test_posttest_premature_done_fails_the_problem():
    session = TutorSession(_script("add_same"), "posttest")
    session.submit(SAI("done", "press_done"))
    assert session.next_step() is not None


def test_posttest_all_steps_correct_is_judged_correct():
    session = TutorSession(_script("add_same"), "posttest")
    for step in session.script.canonical_steps:
        session.submit(step)
    assert session.next_step() is None


def test_conversion_fields_visible_in_every_session():
    for ptype in ("add_same", "add_diff", "multiply"):
        session = TutorSession(_script(ptype), "tutor")
        roles = [r for r, _v, _e in session.snapshot()]
        assert {"conv_num1", "conv_den1", "conv_num2", "conv_den2"} <= set(roles)


_KINDS = ([("fraction", ptype) for ptype in FRACTION_TYPES]
          + [(difficulty, constraint) for difficulty in ("easy", "hard")
             for constraint in ("constrained", "unconstrained")])


def _generate(kind, rng, problem_id):
    if kind[0] == "fraction":
        return gen_fraction_problem(kind[1], rng, problem_id)
    return gen_box_problem(kind[0], kind[1], rng, problem_id)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(_KINDS), seed=st.integers(0, 2**64 - 1))
def test_script_records_round_trip(kind, seed):
    s = _generate(kind, random.Random(seed), f"p{seed}")
    replayed = ProblemScript.from_record(s.to_record())
    assert replayed == s
    assert {type(step) for step in s.canonical_steps + replayed.canonical_steps} == {SAI}


@pytest.mark.parametrize("step, message", [
    (["answer_num", "poke", "5"], "unknown action 'poke'"),
    (["done", "press_done", "5"], "input is present iff"),
    (["answer_num", "input_value", None], "input is present iff"),
    (["answer_num", "input_value", "05"], "non-canonical integer '05'"),
    (["answer_num", "input_value", "five"], "invalid literal"),
])
def test_a_record_whose_step_no_agent_can_enter_is_rejected(step, message):
    # The agent proposes only checked steps with canonical tokens, and the
    # tutor judges by equality, so such a step would fail in every item.
    record = json.loads(gen_fraction_problem("add_same", random.Random(3), "p7").to_record())
    record["steps"] = [step if s[0] == step[0] else s for s in record["steps"]]
    with pytest.raises(ConfigError, match=f"problem 'p7' step '{step[0]}': {message}"):
        ProblemScript.from_record(json.dumps(record))


def _record_line(edit):
    record = json.loads(gen_fraction_problem("add_same", random.Random(3), "p7").to_record())
    edit(record)
    return json.dumps(record)


def _box_record_line(edit):
    record = json.loads(gen_box_problem("hard", "unconstrained", random.Random(3),
                                        "b7").to_record())
    edit(record)
    return json.dumps(record)


def _misspell(record):
    record["steps"] = [["answer_nm", *s[1:]] if s[0] == "answer_num" else s
                       for s in record["steps"]]
    record["editable"].append("answer_nm")


def _lock_answer(record):
    record["editable"].remove("answer_num")


@pytest.mark.parametrize("edit, message", [
    (lambda record: record.update(family="decimals"),
     "problem 'p7': unknown tutor family 'decimals'"),
    (_misspell, "problem 'p7' step 'answer_nm': no editable 'fractions' field"),
    (_lock_answer, "problem 'p7' step 'answer_num': no editable 'fractions' field"),
], ids=["unknown-family", "role-outside-layout", "role-not-editable"])
def test_a_record_whose_step_has_no_editable_field_is_rejected(edit, message):
    # A replayed step on no editable field of the family would fail mid-run,
    # or be hinted in every item, so it is refused when the script is read.
    with pytest.raises(ConfigError, match=re.escape(message)):
        ProblemScript.from_record(_record_line(edit))


def test_a_record_that_repeats_a_step_role_is_rejected():
    # The tutor judges a step by equality with the canonical step of its
    # role, so each role names one step.
    record = json.loads(gen_fraction_problem("add_same", random.Random(3), "p7").to_record())
    record["steps"].insert(1, ["answer_num", "input_value", "999"])
    with pytest.raises(ConfigError, match="problem 'p7' repeats a step role"):
        ProblemScript.from_record(json.dumps(record))


_NO_ID = "problem record with no readable problem_id: "
_STRINGS = "problem_id and type must be strings, tags a list of strings"


@pytest.mark.parametrize("line, message", [
    ("{steps", _NO_ID + "Expecting property name"),
    ("[]", _NO_ID + "list indices must be integers"),
    (_record_line(lambda record: record.pop("problem_id")), _NO_ID + "no 'problem_id' key"),
    (_record_line(lambda record: record.pop("steps")), "problem 'p7': no 'steps' key"),
    (_record_line(lambda record: record.update(family=["x"])),
     "problem 'p7': unhashable type: 'list'"),
    (_record_line(lambda record: record.update(editable=3)),
     "problem 'p7': 'int' object is not iterable"),
    (_record_line(lambda record: record.update(steps=3)),
     "problem 'p7': 'int' object is not iterable"),
    (_record_line(lambda record: record["steps"][1].append("x")),
     "problem 'p7': too many values to unpack"),
    (_record_line(lambda record: record.update(givens=[])),
     "problem 'p7': 'list' object has no attribute 'keys'"),
    (_record_line(lambda record: record.update(type=["add_same"])),
     "problem 'p7': " + _STRINGS),
    (_record_line(lambda record: record.update(tags="blocked")),
     "problem 'p7': " + _STRINGS),
    (_record_line(lambda record: record.update(tags=[1, 2])),
     "problem 'p7': " + _STRINGS),
    (_record_line(lambda record: record.update(problem_id=7)), "problem 7: " + _STRINGS),
    *[(_record_line(lambda record, v=v: record["givens"].update(num1=v)),
       "problem 'p7': given 'num1' must be of type int") for v in ("1", [1], 1.0, True, None)],
    *[(_record_line(lambda record, v=v: record["givens"].update(op=v)),
       "problem 'p7': given 'op' must be of type str") for v in (1, ["+"])],
    *[(_box_record_line(lambda record, r=r, v=v: record["givens"].update({r: v})),
       f"problem 'b7': given {r!r} must be of type {t}")
      for r, v, t in (("r1_op", 1, "str"), ("r2_op", None, "str"), ("target", True, "int"))],
], ids=["not-json", "json-list", "no-id", "no-steps", "list-family", "int-editable",
        "int-steps", "four-field-step", "list-givens", "list-type", "string-tags",
        "int-tags", "int-id", "string-given", "list-given", "float-given", "bool-given",
        "null-given", "int-op", "list-op", "int-box-op", "null-box-op", "bool-box-given"])
def test_a_record_of_another_shape_is_one_config_error(line, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ProblemScript.from_record(line)


@pytest.mark.parametrize("role", ["num3", "answer_num"])
def test_a_record_whose_given_is_no_field_left_to_the_steps_is_rejected(role):
    # A given outside the layout is never shown, and one on a step's field
    # leaves that step no open field, so no agent could ever enter it.
    line = _record_line(lambda record: record["givens"].update({role: 99}))
    with pytest.raises(ConfigError, match=re.escape(
            f"problem 'p7': given {role!r} must be a field that no step fills")):
        ProblemScript.from_record(line)


def test_step_records_are_checked_named_tuples_that_survive_round_trips():
    import pickle

    script = gen_fraction_problem("add_diff", random.Random(5), "p")
    sai = SAI("answer_num", "input_value", "7")
    for value in (sai, SAI("done", "press_done"), script.canonical_steps[0], script):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
    replayed = ProblemScript.from_record(script.to_record())
    assert replayed == script and type(replayed) is ProblemScript
    assert [type(s) for s in replayed.canonical_steps] == \
        [SAI] * len(script.canonical_steps)
    assert replayed.to_record() == script.to_record()
    # Named tuples compare as tuples.
    assert sai == ("answer_num", "input_value", "7")
    with pytest.raises(InvariantError, match="unknown action"):
        SAI("answer_num", "poke")
    with pytest.raises(InvariantError, match="input is present iff"):
        SAI("done", "press_done", "7")


# -- the session contract as a state machine ---------------------------------

def _wrong(step):
    if step.action == "input_value":
        return SAI(step.selection, "input_value", str(int(step.input) + 1))
    return SAI(step.selection, "input_value", "0")


class SessionMachine(RuleBasedStateMachine):
    """Random correct, wrong, out-of-order and demonstrate actions against a
    model of the contract: which roles are locked, and whether a posttest
    error has ended the attempt."""

    @initialize(kind=st.sampled_from(_KINDS), seed=st.integers(0, 2**32 - 1),
                mode=st.sampled_from(("tutor", "posttest")))
    def start(self, kind, seed, mode):
        script = _generate(kind, random.Random(seed), "p")
        self.steps = script.canonical_steps
        self.session = TutorSession(script, mode)
        self.training = mode == "tutor"
        self.locked = {}  # role -> value when it was locked
        self.failed = False  # a posttest ERROR occurred

    def _unlocked(self):
        return [s for s in self.steps if s.selection not in self.locked]

    def _open(self):
        return not self.failed and bool(self._unlocked())

    def _submit(self, sai, expected):
        outcome = self.session.submit(sai)
        assert outcome in (CORRECT, ERROR)
        assert outcome == expected
        if outcome == CORRECT:
            self.locked[sai.selection] = self.session.value(sai.selection)
        elif not self.training:
            self.failed = True

    def _posttest_outcome(self, step):
        # Any unlocked step is accepted, except done before every other step.
        if step.action == "press_done" and len(self._unlocked()) > 1:
            return ERROR
        return CORRECT

    @precondition(lambda self: self._open())
    @rule(pick=st.integers(0, 7))
    def correct(self, pick):
        if self.training:
            self._submit(self.session.next_step(), CORRECT)
        else:
            unlocked = self._unlocked()
            step = unlocked[pick % len(unlocked)]
            self._submit(step, self._posttest_outcome(step))

    @precondition(lambda self: self._open())
    @rule(pick=st.integers(0, 7))
    def wrong(self, pick):
        unlocked = self._unlocked()
        self._submit(_wrong(unlocked[pick % len(unlocked)]), ERROR)

    @precondition(lambda self: self._open() and len(self._unlocked()) > 1)
    @rule(pick=st.integers(0, 7))
    def out_of_order(self, pick):
        later = self._unlocked()[1:]
        step = later[pick % len(later)]
        self._submit(step,
                     ERROR if self.training else self._posttest_outcome(step))

    @precondition(lambda self: self._open() and self.locked)
    @rule(pick=st.integers(0, 7))
    def resubmit_locked(self, pick):
        roles = sorted(self.locked)
        step = next(s for s in self.steps if s.selection == roles[pick % len(roles)])
        if self.training:
            with pytest.raises(ProtocolError):
                self.session.submit(step)
        else:
            self._submit(step, ERROR)

    @rule()
    def demonstrate(self):
        if not self.training or not self._open():
            with pytest.raises(ProtocolError):
                self.session.demonstrate()
            return
        step = self._unlocked()[0]
        assert self.session.demonstrate() == step
        self.locked[step.selection] = self.session.value(step.selection)

    @precondition(lambda self: not self._open())
    @rule(pick=st.integers(0, 7))
    def submit_when_closed(self, pick):
        step = self.steps[pick % len(self.steps)]
        with pytest.raises(ProtocolError):
            self.session.submit(step)

    @invariant()
    def locked_fields_never_change(self):
        for role, value in self.locked.items():
            assert self.session.value(role) == value

    @invariant()
    def next_step_is_none_iff_all_locked_without_error(self):
        assert (self.session.next_step() is None) == \
            (not self._unlocked() and not self.failed)


SessionMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=12,
                                            deadline=None)
TestSessionContract = SessionMachine.TestCase
