"""Decision cycle, feedback routing, whole-problem runs, and whole agents
against the plain reference agent of ``_oracles``."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from simtutor import agent as agent_module
from simtutor import experiment, induction
from simtutor.agent import (
    Agent,
    activations,
    apply_feedback,
    decide,
    perceive,
    run_problem,
)
from simtutor.experiment import (
    _generate_sets,
    box_arrows_config,
    dump_problem_sets,
    fractions_config,
    run_agent,
    run_study,
    write_transactions,
)
from simtutor.induction import Skill
from simtutor.state import (
    CORRECT,
    ERROR,
    HINT,
    SAI,
    FieldState,
    InvariantError,
    MalformedTutorError,
    ProtocolError,
    WorkingMemory,
)
from simtutor.tutors import (
    FRACTION_FAMILY,
    ProblemScript,
    TutorFamily,
    TutorSession,
    gen_fraction_problem,
)

from _oracles import reference_run_agent, utility


def make_wm(*pairs, editable=()):
    return WorkingMemory([
        (role, FieldState(role=role, value=value, editable=role in editable))
        for role, value in pairs
    ], FRACTION_FAMILY)


def answer_skill(skill_id, successes, attempts, required=frozenset()):
    return Skill(skill_id, "answer_num", "input_value",
                 ("add", "num1", "num2"),
                 conditions=frozenset([("filled", "num1"), ("filled", "num2")]),
                 required=frozenset(required),
                 successes=successes, attempts=attempts)


WM = make_wm(("num1", 1), ("den1", 2), ("op", "+"), ("num2", 1), ("den2", 3),
             ("answer_num", None), editable=("answer_num",))


# -- perceive ---------------------------------------------------------------

def test_perceive_projects_the_full_interface():
    rng = random.Random(0)
    script = gen_fraction_problem("add_diff", rng, "p1")
    wm = perceive(TutorSession(script, "tutor"))
    assert wm.fields["num1"] == script.given_fields["num1"]
    # conversion fields are visible (and empty) from problem start
    for role in ("conv_num1", "conv_den1", "conv_num2", "conv_den2"):
        assert role in wm.fields and wm.fields[role] is None


def test_perceive_box_easy_projection():
    from simtutor.tutors import ProblemScript

    script = ProblemScript(
        problem_id="p1", family="box", problem_type="box_easy",
        given_fields={"r1_a": 22, "r1_op": "/", "r1_b": 11},
        canonical_steps=(SAI("r2_a", "input_value", "2"), SAI("done", "press_done")),
        editable_roles=frozenset(("r2_a", "done")))
    wm = perceive(TutorSession(script, "tutor"))
    assert wm.fields["r1_a"] == 22 and wm.fields["r1_b"] == 11
    assert wm.fields["r1_op"] == "/"
    assert wm.fields["r2_a"] is None and wm.editable == {"r2_a", "done"}
    assert wm.field("r2_a") == FieldState("r2_a", None, True)


def test_perceive_rejects_empty_and_unknown_snapshots():
    class EmptyTutor:
        family = TutorFamily((), lambda fields: set(), frozenset())

        def snapshot(self):
            return []

    class AlienTutor:
        family = TutorFamily(("num1",), lambda fields: set(), frozenset())

        def snapshot(self):
            return [("zzz", 1, False)]

    with pytest.raises(MalformedTutorError):
        perceive(EmptyTutor())
    with pytest.raises(MalformedTutorError):
        perceive(AlienTutor())


# -- decide ------------------------------------------------------------------

def test_empty_skill_store_requests_a_demonstration():
    assert decide(WM, []) is None


def test_higher_utility_activation_fires():
    fast = answer_skill("s1", 7, 8)    # utility 0.8
    slow = answer_skill("s2", 0, 0)    # utility 0.5
    assert decide(WM, [slow, fast])[0] is fast


def test_utility_tie_breaks_on_attempts_then_id():
    a = answer_skill("s2", 2, 4)   # 3/6 = 0.5
    b = answer_skill("s9", 1, 2)   # 2/4 = 0.5
    assert decide(WM, [a, b])[0] is a
    c = answer_skill("s1", 1, 2)
    assert decide(WM, [b, c])[0] is c


def test_decide_never_fires_a_non_maximal_activation():
    rng = random.Random(5)
    for _ in range(200):
        skills = []
        for i in range(rng.randint(1, 8)):
            attempts = rng.randint(0, 20)
            successes = rng.randint(0, attempts)
            required = [("op_equals", "+")] if rng.random() < 0.3 else []
            skills.append(answer_skill(f"s{i}", successes, attempts, required))
        act = decide(WM, skills)
        live = activations(WM, skills)
        if act is None:
            assert live == []
            continue
        best = max(utility(s) for s in skills
                   if any(skill is s for skill, _value in live))
        assert utility(act[0]) == best


def test_gate_predicates_exclude_mismatched_states():
    gated = answer_skill("s1", 9, 9, required=[("op_equals", "x")])
    assert decide(WM, [gated]) is None


def test_filled_targets_do_not_activate():
    wm = make_wm(("num1", 1), ("num2", 2), ("answer_num", 3),
                 editable=("answer_num",))
    assert decide(wm, [answer_skill("s1", 0, 0)]) is None


def test_unbindable_procedures_do_not_activate():
    wm = make_wm(("num1", 1), ("num2", None), ("answer_num", None),
                 editable=("num2", "answer_num"))
    assert decide(wm, [answer_skill("s1", 0, 0)]) is None


def test_activation_proposes_the_computed_value():
    _skill, proposed = decide(WM, [answer_skill("s1", 0, 0)])
    assert proposed == SAI("answer_num", "input_value", "2")


# -- apply_feedback ----------------------------------------------------------

def test_correct_outcome_updates_stats():
    sk = answer_skill("s1", 3, 4)
    fired, _proposed = decide(WM, [sk])
    apply_feedback([sk], fired, True, WM)
    assert (sk.successes, sk.attempts) == (4, 5)
    assert utility(sk) == Fraction(5, 7)


def test_incorrect_outcome_updates_stats():
    sk = answer_skill("s1", 0, 0)
    fired, _proposed = decide(WM, [sk])
    apply_feedback([sk], fired, False, WM)
    assert (sk.successes, sk.attempts) == (0, 1)
    assert utility(sk) == Fraction(1, 3)


def test_stale_activation_raises():
    sk = answer_skill("s1", 0, 0)
    ghost = answer_skill("s1", 0, 0)  # equal, but not in the store
    with pytest.raises(InvariantError):
        apply_feedback([sk], ghost, True, WM)


def test_utility_monotonicity():
    sk = answer_skill("s1", 2, 5)
    before = utility(sk)
    sk.record(True)
    assert utility(sk) >= before
    before = utility(sk)
    sk.record(False)
    assert utility(sk) <= before


# -- run_problem -------------------------------------------------------------

def test_fresh_agent_posttest_fails_with_an_initial_hint():
    rng = random.Random(1)
    script = gen_fraction_problem("add_same", rng, "p1")
    steps = run_problem(Agent(), TutorSession(script, "posttest"))
    assert not all(o == CORRECT for _s, o in steps)
    assert steps[0][1] == HINT


def test_training_completes_by_demonstrations_when_all_skills_are_wrong():
    rng = random.Random(1)
    script = gen_fraction_problem("add_same", rng, "p1")
    agent = Agent()
    # A wrong rule for every step the tutor expects first.
    agent.skills.append(Skill("s1", "answer_num", "input_value",
                              ("multiply", "den1", "den2"),
                              conditions=frozenset(), required=frozenset()))
    session = TutorSession(script, "tutor")
    steps = run_problem(agent, session)
    assert session.next_step() is None
    outcomes = [o for _s, o in steps]
    assert not all(o == CORRECT for o in outcomes)
    assert "ERROR" in outcomes and HINT in outcomes


def test_trained_agent_masters_a_single_type_curriculum():
    rng = random.Random(3)
    agent = Agent()
    results = []
    for i in range(30):
        script = gen_fraction_problem("multiply", rng, f"p{i}")
        results.append(run_problem(agent, TutorSession(script, "tutor")))
    assert all(o == CORRECT for steps in results[-10:] for _s, o in steps)
    posttest = gen_fraction_problem("multiply", rng, "post")
    assert all(o == CORRECT
               for _s, o in run_problem(agent, TutorSession(posttest, "posttest")))


def test_trained_agent_passes_a_posttest_problem_cleanly():
    rng = random.Random(8)
    agent = Agent()
    for i in range(12):
        script = gen_fraction_problem("add_same", rng, f"p{i}")
        run_problem(agent, TutorSession(script, "tutor"))
    steps = run_problem(agent,
                        TutorSession(gen_fraction_problem("add_same", rng, "post"),
                                     "posttest"))
    assert all(o == CORRECT for _s, o in steps)
    assert [o for _s, o in steps] == [CORRECT, CORRECT, CORRECT]


def test_skill_store_serializes_for_inspection():
    rng = random.Random(2)
    agent = Agent()
    for i in range(3):
        script = gen_fraction_problem("add_same", rng, f"p{i}")
        run_problem(agent, TutorSession(script, "tutor"))
    dumped = agent.skills_to_dicts()
    assert len(dumped) == len(agent.skills) >= 3
    for entry in dumped:
        assert set(entry) == {"skill_id", "target_role", "action", "procedure",
                              "conditions", "required", "successes", "attempts"}
        assert entry["successes"] <= entry["attempts"]


def _count_derived_states(monkeypatch):
    """The roles ``WorkingMemory.with_value`` is called on, in call order."""
    roles = []
    derive = WorkingMemory.with_value

    def with_value(self, role, value):
        roles.append(role)
        return derive(self, role, value)
    monkeypatch.setattr(WorkingMemory, "with_value", with_value)
    return roles


def _fills_seen_later(steps):
    """How many steps filled a field (all but ``ERROR``) with a step after them."""
    return sum(outcome != ERROR for _role, outcome in steps[:-1])


def test_run_problem_derives_a_state_only_for_a_later_step(monkeypatch):
    # The state after a problem's last step is never read, so it is never
    # derived: one with_value per filled field that a later step sees.
    derived = _count_derived_states(monkeypatch)
    script = gen_fraction_problem("add_diff", random.Random(7), "p7")
    agent = Agent()
    agent.skills.append(Skill("s1", "conv_den1", "input_value",  # always wrong
                              ("add", "den1", "den2"), conditions=frozenset()))
    steps = run_problem(agent, TutorSession(script, "tutor"))
    assert steps[:4] == [("convert_check", ERROR), ("convert_check", HINT),
                         ("conv_den1", ERROR), ("conv_den1", HINT)]
    assert steps[-1] == ("done", HINT)
    assert derived == [s.selection for s in script.canonical_steps[:-1]]
    assert len(derived) == _fills_seen_later(steps)

    # A posttest attempt that ends on an ERROR saw every field it filled.
    derived.clear()
    script = gen_fraction_problem("add_same", random.Random(7), "post")
    agent.skills = [Skill("s1", "answer_num", "input_value", ("add", "num1", "num2"),
                          conditions=frozenset()),
                    Skill("s2", "answer_den", "input_value",  # always wrong
                          ("multiply", "den1", "den2"), conditions=frozenset())]
    steps = run_problem(agent, TutorSession(script, "posttest"))
    assert steps == [("answer_num", CORRECT), ("answer_den", ERROR)]
    assert derived == ["answer_num"]


def test_a_whole_cell_derives_a_state_only_for_a_later_step(monkeypatch):
    derived = _count_derived_states(monkeypatch)
    results = []
    solve = experiment.run_problem

    def run_problem(agent, session):
        results.append(solve(agent, session))
        return results[-1]
    monkeypatch.setattr(experiment, "run_problem", run_problem)
    run_agent(fractions_config(seed=7), 0, 1)
    assert {o for steps in results for _s, o in steps} == {CORRECT, ERROR, HINT}
    assert len(derived) == sum(map(_fills_seen_later, results))


def test_a_session_that_never_advances_is_a_protocol_error():
    session = TutorSession(gen_fraction_problem("add_same", random.Random(1), "p1"),
                           "tutor")
    session._lock = lambda sai: None  # every step is taken, and none is locked in
    with pytest.raises(ProtocolError, match="^tutor session failed to progress$"):
        run_problem(Agent(), session)


def test_identical_seeds_give_identical_transcripts():
    def transcript(seed):
        rng = random.Random(seed)
        agent = Agent()
        steps = []
        for i in range(8):
            script = gen_fraction_problem("add_diff", rng, f"p{i}")
            steps.extend(run_problem(agent, TutorSession(script, "tutor")))
        return steps

    assert transcript(42) == transcript(42)
    assert transcript(42) != transcript(43)  # different problems, different path


# -- whole agents against the reference agent ---------------------------------

_CONVERSION = frozenset(("convert_check", "conv_num1", "conv_den1", "conv_num2",
                         "conv_den2"))


def _no_convert(script):
    """``script`` without an ``add_diff`` item's five conversion steps and
    fields: its answer numerator is then only explained at depth 2, as
    ``(add (multiply num1 den2) (multiply num2 den1))``."""
    if script.problem_type != "add_diff":
        return script
    return script._replace(
        canonical_steps=tuple(s for s in script.canonical_steps
                              if s.selection not in _CONVERSION),
        editable_roles=script.editable_roles - _CONVERSION)


def _unexplained(problems):
    """``problems`` with its first training ``add_same`` item turned into
    1/2 + 1/2 whose answer numerator is 97: no depth-2 tree over those givens
    reaches 97, so the demonstration is explained by the constant."""
    pretrain, training, posttest = problems
    for i, script in enumerate(training):
        if script.problem_type == "add_same":
            training = list(training)
            training[i] = script._replace(
                given_fields={"num1": 1, "den1": 2, "op": "+", "num2": 1, "den2": 2},
                canonical_steps=(SAI("answer_num", "input_value", "97"),
                                 SAI("answer_den", "input_value", "2"),
                                 *script.canonical_steps[2:]))
            break
    return pretrain, training, posttest


@settings(max_examples=40, deadline=None)
@given(study=st.sampled_from((fractions_config, box_arrows_config)),
       seed=st.integers(0, 10_000), replication=st.integers(0, 9),
       agent_index=st.integers(0, 7),
       shape=st.sampled_from(("stock", "no-convert", "constant")), data=st.data())
def test_run_agent_equals_the_reference_agent(study, seed, replication, agent_index,
                                              shape, data):
    config = study(seed=seed)
    problems = None
    if shape == "no-convert":
        problems = tuple([_no_convert(s) for s in scripts]
                         for scripts in _generate_sets(config, replication, agent_index))
    elif shape == "constant":
        problems = _unexplained(_generate_sets(config, replication, agent_index))
    if data.draw(st.booleans(), label="reorder training"):
        pretrain, training, posttest = problems or _generate_sets(
            config, replication, agent_index)
        problems = pretrain, data.draw(st.permutations(training)), posttest
    assert run_agent(config, replication, agent_index, problems).entries == \
        reference_run_agent(config, replication, agent_index, problems)


def _depth(tree):
    return 1 + max(map(_depth, tree[1:])) if isinstance(tree, tuple) else 0


# The sha256 of the transactions.csv of 8 agents x 1 replication of the
# fractions study at seed 7, replayed with every add_diff item written and
# read back without its conversion steps.
NO_CONVERT_DIGEST = "75cac8cc9b510532b60642196abe3bb9d8977c218beb259513fee37cfd8a88c3"


def test_a_no_convert_replay_matches_its_golden_digest(tmp_path, monkeypatch):
    config = fractions_config(n_agents=8, replications=1, seed=7)
    sets = {cell: tuple([ProblemScript.from_record(_no_convert(s).to_record())
                         for s in scripts] for scripts in groups)
            for cell, groups in dump_problem_sets(config).items()}
    depths, explain = [], induction.explain

    def recorded(*args):
        found = explain(*args)
        depths.extend(map(_depth, found))
        return found
    monkeypatch.setattr(induction, "explain", recorded)
    path = tmp_path / "transactions.csv"
    write_transactions(path, run_study(config, problem_sets=sets))
    assert max(depths) == 2
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NO_CONVERT_DIGEST


@pytest.mark.parametrize("agent_index", [0, 1], ids=["blocked", "interleaved"])
def test_an_unexplained_answer_is_learned_as_a_constant_skill(agent_index, monkeypatch):
    config = fractions_config(seed=7)
    problems = tuple([ProblemScript.from_record(s.to_record()) for s in scripts]
                     for scripts in _unexplained(_generate_sets(config, 0, agent_index)))
    stores, induce = [], agent_module.induce_from_demo

    def recorded(skills, wm, demo):
        stores.append(skills)
        return induce(skills, wm, demo)
    monkeypatch.setattr(agent_module, "induce_from_demo", recorded)
    entries = run_agent(config, 0, agent_index, problems).entries
    assert [(sk.target_role, sk.procedure) for sk in stores[-1]
            if type(sk.procedure) is int] == [("answer_num", 97)]
    assert entries == reference_run_agent(config, 0, agent_index, problems)


_AGENT_STEPS = {agent_module: ("activations", "decide", "apply_feedback", "perceive",
                               "induce_from_demo", "refine_conditions"),
                induction: ("explain", "induce_from_demo", "refine_conditions",
                            "_compose_level", "_matching_keys", "_operands", "_tree")}


def test_the_reference_agent_calls_none_of_the_agents_steps(monkeypatch):
    configs = (fractions_config(), box_arrows_config())
    want = [run_agent(config, 0, 2).entries for config in configs]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the reference agent ran a step of the agent under test")
    for module, names in _AGENT_STEPS.items():
        for name in names:
            assert not hasattr(_oracles, name)
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(WorkingMemory, "with_value", refuse)
    assert [reference_run_agent(config, 0, 2) for config in configs] == want
