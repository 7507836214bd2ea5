"""The agent's perceive-decide-act cycle against a tutor session.

Each decision matches the skill store against working memory and fires the
highest-utility activation; when nothing matches the agent requests a
demonstration, which is routed to the induction machinery.  Agents share
nothing and are deterministic given the same experience stream.
"""
from __future__ import annotations

from .induction import Skill, evaluate, induce_from_demo, refine_conditions
from .state import (
    CORRECT,
    ERROR,
    HINT,
    SAI,
    InvariantError,
    ProtocolError,
    WorkingMemory,
    render_value,
)


def perceive(session) -> WorkingMemory:
    """Project a tutor session's visible state into working memory.

    ``run_problem`` perceives once per problem and then derives each later
    state with ``WorkingMemory.with_value``.
    """
    return WorkingMemory.from_snapshot(session.snapshot(), session.family)


def activations(wm: WorkingMemory, skills, excluded=frozenset()):
    """A (skill, value) pair for every skill whose gate holds and whose
    procedure can execute here; ``value`` is ``None`` for a structural action.

    Only skills whose target role is open (editable and empty) are tried.
    """
    open_roles = wm.open_roles
    preds = wm.predicates
    fields = wm.fields
    out = []
    if excluded:  # a retry's exclusions, applied once and in store order
        skills = [sk for sk in skills if sk.skill_id not in excluded]
    for sk in skills:
        if sk.target_role not in open_roles or not sk.required <= preds:
            continue
        value = None
        if sk.procedure is not None:
            value = evaluate(sk.procedure, fields)
            if value is None:
                continue
        out.append((sk, value))
    return out


def _outranks(a: Skill, b: Skill) -> bool:
    """Exact utility order, (s + 1) / (t + 2) cross-multiplied, then more
    attempts, then the smaller skill id."""
    lhs = (a.successes + 1) * (b.attempts + 2)
    rhs = (b.successes + 1) * (a.attempts + 2)
    if lhs != rhs:
        return lhs > rhs
    if a.attempts != b.attempts:
        return a.attempts > b.attempts
    return a.skill_id < b.skill_id


def decide(wm: WorkingMemory, skills, excluded=frozenset()):
    """The best activation by utility as (skill, proposed step), or None to
    request a demonstration.

    Ties break on higher attempt count, then smallest skill id.  Only the
    winner's step is built, its value rendered as input (none if structural).
    """
    best = None
    for cand in activations(wm, skills, excluded):
        if best is None or _outranks(cand[0], best[0]):
            best = cand
    if best is None:
        return None
    skill, value = best
    return skill, SAI(skill.target_role, skill.action,
                      None if value is None else render_value(value))


def apply_feedback(skills, fired: Skill, correct: bool, wm: WorkingMemory):
    """Credit or penalize the fired skill and refine its predicates."""
    for sk in skills:
        if sk is fired:
            sk.record(correct)
            refine_conditions(sk, wm, correct)
            return sk
    raise InvariantError(f"activation references unknown skill "
                         f"{fired.skill_id!r}")


class Agent:
    """A single simulated learner: its skill store."""

    def __init__(self):
        self.skills: list[Skill] = []

    def skills_to_dicts(self):
        return [sk.to_dict() for sk in self.skills]


def run_problem(agent: Agent, session) -> list:
    """Drive one agent through one tutor problem; returns its (step role,
    CORRECT|ERROR|HINT) pairs.

    Each step the agent fires its best activation or, when nothing matches,
    requests a demonstration.  In a "tutor" session: learn from every outcome,
    retry a failed step with the next best untried activation, and learn from
    each demonstration.  In a "posttest" session: no feedback reaches the
    agent, and the first wrong step or demonstration request ends the problem.
    """
    training = session.mode == "tutor"
    steps = []
    excluded = set()
    # Perceived once; a step that changes the interface changes exactly one
    # field, so each later state is derived from the one before, and only
    # when another step follows.  Feedback and induction always see the
    # state the step was taken in.
    wm = perceive(session)
    filled = None
    guard = 0
    while (step := session.next_step()) is not None:
        guard += 1
        if guard > 10_000:
            raise ProtocolError(f"{session.mode} session failed to progress")
        if filled is not None:
            wm = wm.with_value(filled, session.value(filled))
            filled = None
        fired = decide(wm, agent.skills, excluded)
        if fired is None:
            steps.append((step.selection, HINT))
            if not training:
                break
            sai = session.demonstrate()
            induce_from_demo(agent.skills, wm, sai)
        else:
            skill, sai = fired
            outcome = session.submit(sai)
            steps.append((step.selection, outcome))
            if training:
                apply_feedback(agent.skills, skill, outcome == CORRECT, wm)
            if outcome == ERROR:
                if not training:
                    break
                excluded.add(skill.skill_id)
                continue
        excluded.clear()
        filled = sai.selection
    return steps
