"""Tutor environments: fraction arithmetic and box-and-arrows.

A ProblemScript fixes an item's givens and its ordered canonical steps, the
``SAI``s of the expected entries.  A TutorSession judges every submitted step
CORRECT (and locks it in) or ERROR.  Its mode is a log phase: "tutor" accepts
only the next canonical step and can demonstrate it; "posttest" accepts the
steps in any order, with done last, and its first error ends the attempt.
"""
from __future__ import annotations

import json
from itertools import permutations
from typing import Callable, NamedTuple

from .state import (
    CHECK_BOX,
    CORRECT,
    ERROR,
    GenerationError,
    INPUT_VALUE,
    PRESS_DONE,
    ProtocolError,
    SAI,
    ConfigError,
    parse_integer,
)

class TutorFamily(NamedTuple):
    """What one tutor tells the agent about its interface.

    ``layout`` lists the field roles in display order.  ``derive`` maps the
    field values (role -> value, ``None`` when empty) to the tutor's derived
    predicates; it reads only the roles in ``derive_inputs``, so a change to
    any other field only swaps that field's filled/empty literal.
    """

    layout: tuple
    derive: Callable
    derive_inputs: frozenset


def _fraction_predicates(fields):
    preds = set()
    op = fields.get("op")
    if op is not None:
        preds.add(("op_equals", op))
    d1, d2 = fields.get("den1"), fields.get("den2")
    if type(d1) is int and type(d2) is int:
        preds.add(("denominators_equal",) if d1 == d2 else ("denominators_differ",))
    if fields.get("convert_check"):
        preds.add(("box_checked",))
    return preds


def _box_predicates(fields):
    return {("op_is", role, value) for role in ("r1_op", "r2_op")
            if (value := fields.get(role)) is not None}


FRACTION_FAMILY = TutorFamily(
    layout=("num1", "den1", "op", "num2", "den2",
            "convert_check", "conv_num1", "conv_den1", "conv_num2", "conv_den2",
            "answer_num", "answer_den", "done"),
    derive=_fraction_predicates,
    derive_inputs=frozenset(("op", "den1", "den2", "convert_check")),
)
FRACTION_EDITABLE = frozenset((
    "convert_check", "conv_num1", "conv_den1", "conv_num2", "conv_den2",
    "answer_num", "answer_den", "done",
))

# Editable roles vary per box item (the box's position), so scripts carry them.
BOX_FAMILY = TutorFamily(
    layout=("r1_a", "r1_op", "r1_b", "r2_a", "r2_op", "r2_b", "target", "done"),
    derive=_box_predicates,
    derive_inputs=frozenset(("r1_op", "r2_op")),
)

FAMILIES = {"fractions": FRACTION_FAMILY, "box": BOX_FAMILY}

FRACTION_TYPES = ("add_same", "add_diff", "multiply")
OPERATOR_ROLES = frozenset(("op", "r1_op", "r2_op"))  # every other given is an int

MAX_DRAWS = 10_000

# Structural canonical steps, built (and checked) once and shared by every script.
DONE_STEP = SAI("done", PRESS_DONE)
CONVERT_STEP = SAI("convert_check", CHECK_BOX)


class ProblemScript(NamedTuple):
    problem_id: str
    family: str
    problem_type: str
    given_fields: dict
    canonical_steps: tuple
    condition_tags: tuple = ()
    editable_roles: frozenset = frozenset()

    def to_record(self) -> str:
        return json.dumps({
            "problem_id": self.problem_id,
            "family": self.family,
            "type": self.problem_type,
            "givens": self.given_fields,
            "steps": self.canonical_steps,
            "tags": list(self.condition_tags),
            "editable": sorted(self.editable_roles),
        }, sort_keys=True)

    @staticmethod
    def from_record(line: str) -> "ProblemScript":
        """The script ``to_record`` wrote; ``ConfigError`` naming the problem, or
        saying the record has none, for any record that no session could run."""
        where = "problem record with no readable problem_id"
        try:
            raw = json.loads(line)
            where = name = f"problem {raw['problem_id']!r}"
            family, givens, tags = raw["family"], raw["givens"], raw["tags"]
            if type(tags) is not list or not all(
                    type(v) is str for v in (raw["problem_id"], raw["type"], *tags)):
                raise ValueError("problem_id and type must be strings, tags a list of strings")
            if family not in FAMILIES:
                raise ValueError(f"unknown tutor family {family!r}")
            editable = set(FAMILIES[family].layout).intersection(raw["editable"])
            steps = []
            for role, action, expected in raw["steps"]:
                where = f"{name} step {role!r}"
                if role not in editable:
                    raise ValueError(f"no editable {family!r} field has this role")
                steps.append(SAI(role, action, expected))
                if expected is not None:
                    parse_integer(expected)
                where = name
            roles = {step.selection for step in steps}
            for role in givens.keys():  # a given is shown, never entered
                if role not in FAMILIES[family].layout or role in roles:
                    raise ValueError(f"given {role!r} must be a field that no step fills")
                if type(givens[role]) is not (kind := str if role in OPERATOR_ROLES else int):
                    raise ValueError(f"given {role!r} must be of type {kind.__name__}")
            script = ProblemScript(raw["problem_id"], family, raw["type"], givens,
                                   tuple(steps), tuple(tags),
                                   frozenset(raw["editable"]))
        except KeyError as exc:
            raise ConfigError(f"{where}: no {exc} key") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if len(roles) < len(steps):
            raise ConfigError(f"{name} repeats a step role")
        return script


class TutorSession:
    """Single-owner state machine for one problem attempt."""

    def __init__(self, script: ProblemScript, mode: str):
        if mode not in ("tutor", "posttest"):
            raise ConfigError(f"unknown session mode {mode!r}")
        if script.family not in FAMILIES:
            raise ConfigError(f"unknown tutor family {script.family!r}")
        self.script = script
        self.mode = mode
        self.family = FAMILIES[script.family]
        self._editable = script.editable_roles
        self._values = {r: script.given_fields.get(r) for r in self.family.layout}
        self._locked = set()
        self._dead = False

    def snapshot(self):
        """(role, value, editable) for every field, in layout order.

        Every field is visible from problem start, including empty ones.
        """
        return [(r, self._values[r], r in self._editable) for r in self.family.layout]

    def value(self, role):
        """A field's current value, as ``snapshot`` reports it."""
        return self._values[role]

    def next_step(self):
        """The first canonical step not yet locked, or None when all are."""
        locked = self._locked
        for step in self.script.canonical_steps:
            if step[0] not in locked:  # the selection, also of a hand-built tuple
                return step
        return None

    def _lock(self, sai: SAI):
        role, _action, token = sai
        self._locked.add(role)
        try:  # a check or done step has no input, and its field reads True
            self._values[role] = True if token is None else parse_integer(token)
        except ValueError:
            self._values[role] = token

    def submit(self, sai: SAI) -> str:
        """Judge one step: ``CORRECT`` locks it in, ``ERROR`` changes no field.

        Correct is equal to the next canonical step (tutor) or to any
        unlocked one, ``done`` last (posttest, where ``ERROR`` ends the attempt).
        """
        step = self.next_step()
        if self._dead or step is None:
            raise ProtocolError("session is not accepting steps")
        locked = self._locked
        if self.mode == "tutor":
            if sai.selection in locked:
                raise ProtocolError(f"field {sai.selection!r} is locked")
            ok = sai == step
        else:
            steps = self.script.canonical_steps
            ok = sai.selection not in locked and sai in steps
            if ok and sai.action == PRESS_DONE:
                ok = all(s.selection in locked for s in steps if s != sai)
            self._dead = not ok
        if not ok:
            return ERROR
        self._lock(sai)
        return CORRECT

    def demonstrate(self) -> SAI:
        """Lock in the next canonical step and return it as the ``SAI`` it
        locked.  Tutor mode only."""
        if self.mode != "tutor":
            raise ProtocolError("demonstrations are unavailable at posttest")
        step = self.next_step()
        if step is None:
            raise ProtocolError("no step left to demonstrate")
        sai = SAI(*step)  # checked before the step is locked in
        self._lock(sai)
        return sai


def randbelow(rng, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, drawn as CPython's ``Random`` draws it.

    ``randint(lo, hi)`` is ``lo + randbelow(rng, hi - lo + 1)`` and
    ``choice(seq)`` is ``seq[randbelow(rng, len(seq))]``: the same
    ``getrandbits`` calls, so the values and the generator's state afterwards
    are identical, without ``randrange``'s argument checks on every draw.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# --------------------------------------------------------------------------
# Fraction arithmetic items
# --------------------------------------------------------------------------

def gen_fraction_problem(problem_type: str, rng, problem_id: str = "p") -> ProblemScript:
    """One fraction item: numerators 1-9, denominators 2-12, unsimplified answers."""
    if problem_type not in FRACTION_TYPES:
        raise ConfigError(f"unknown fraction problem type {problem_type!r}")
    # randint(1, 9) and randint(2, 12), on the same stream (see randbelow).
    n1, n2 = 1 + randbelow(rng, 9), 1 + randbelow(rng, 9)
    d1 = 2 + randbelow(rng, 11)
    if problem_type == "add_same":
        d2 = d1
    else:
        d2 = 2 + randbelow(rng, 11)
        while problem_type == "add_diff" and d2 == d1:
            d2 = 2 + randbelow(rng, 11)
    op = "x" if problem_type == "multiply" else "+"
    givens = {"num1": n1, "den1": d1, "op": op, "num2": n2, "den2": d2}

    if problem_type != "add_diff":
        num, den = (n1 + n2, d1) if problem_type == "add_same" else (n1 * n2, d1 * d2)
        steps = (
            SAI("answer_num", INPUT_VALUE, str(num)),
            SAI("answer_den", INPUT_VALUE, str(den)),
            DONE_STEP,
        )
    else:  # cross multiplication is the only accepted conversion strategy
        dd = d1 * d2
        steps = (
            CONVERT_STEP,
            SAI("conv_den1", INPUT_VALUE, str(dd)),
            SAI("conv_den2", INPUT_VALUE, str(dd)),
            SAI("conv_num1", INPUT_VALUE, str(n1 * d2)),
            SAI("conv_num2", INPUT_VALUE, str(n2 * d1)),
            SAI("answer_num", INPUT_VALUE, str(n1 * d2 + n2 * d1)),
            SAI("answer_den", INPUT_VALUE, str(dd)),
            DONE_STEP,
        )
    return ProblemScript(
        problem_id=problem_id,
        family="fractions",
        problem_type=problem_type,
        given_fields=givens,
        canonical_steps=steps,
        editable_roles=FRACTION_EDITABLE,
    )


# --------------------------------------------------------------------------
# Box-and-arrows items
# --------------------------------------------------------------------------

BOX_OPS = ("+", "-", "*", "/")
SLOTS = ("given_first", "box_first")


def _whole_op(op: str, a: int, b: int):
    """``a op b`` as an int, or None when it is not a whole number.

    Every generator rejects a fractional or undefined result alike, so no
    quotient is built for them.
    """
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0 or a % b:
        return None
    return a // b


def ambiguity_count(values, answer) -> int:
    """Candidate procedures consistent with an answer: distinct single
    applications of +, -, *, / over the visible numbers.

    Positions with equal values are one candidate; ordered operand pairs of
    the asymmetric operators are distinct candidates when their values differ.
    """
    seen = set()
    for a, b in permutations(values, 2):
        lo, hi = (a, b) if a <= b else (b, a)
        if a + b == answer:
            seen.add(("+", lo, hi))
        if a * b == answer:
            seen.add(("*", lo, hi))
        if a - b == answer:
            seen.add(("-", a, b))
        # a / b == answer, exactly and without building the quotient.
        if b != 0 and a == answer * b:
            seen.add(("/", a, b))
    return len(seen)


def _whole_row(rng):
    """A drawn row ``(a, op, b, a op b)``, or None unless ``a op b`` is a
    whole number of at least 1."""
    op = BOX_OPS[randbelow(rng, len(BOX_OPS))]
    a, b = 1 + randbelow(rng, 30), 1 + randbelow(rng, 30)
    v = _whole_op(op, a, b)
    return None if v is None or v < 1 else (a, op, b, v)


def gen_box_problem(difficulty: str, constraint: str, rng,
                    problem_id: str = "p", op2: str | None = None,
                    layout: str | None = None) -> ProblemScript:
    """One box-and-arrows item, rejection-sampled against the candidate oracle.

    Easy items show a row-1 expression whose value goes in the row-2 box.
    Hard items show a row-2 relation against an arrow target; the correct
    entry completes it.  Constrained items admit exactly one candidate
    procedure; unconstrained items admit at least two.  ``op2`` and ``layout``
    pin the row-2 relation for curriculum designs that cover the space evenly.
    """
    if difficulty not in ("easy", "hard"):
        raise ConfigError(f"unknown difficulty {difficulty!r}")
    if constraint not in ("constrained", "unconstrained"):
        raise ConfigError(f"unknown constraint {constraint!r}")

    for _ in range(MAX_DRAWS):
        if difficulty == "easy":
            row = _whole_row(rng)
            if row is None:
                continue
            a, op1, b, x = row
            if x in (a, b):
                continue
            givens = {"r1_a": a, "r1_op": op1, "r1_b": b}
            box_role, tags = "r2_a", (constraint,)
            break

        # Hard item: (given op2 x) = target, or (x op2 given) = target.
        rel_op = op2 if op2 is not None else BOX_OPS[randbelow(rng, len(BOX_OPS))]
        slot = layout if layout is not None else SLOTS[randbelow(rng, len(SLOTS))]
        g, x = 1 + randbelow(rng, 30), 1 + randbelow(rng, 30)
        t = _whole_op(rel_op, g, x) if slot == "given_first" else _whole_op(rel_op, x, g)
        if t is None or t < 1 or t > 99:
            continue
        # Constrained items make the row-1 shortcut fractional; unconstrained
        # items keep every row-1 reading whole-numbered.
        if constraint == "constrained":
            a, op1, b = 2 + randbelow(rng, 29), "/", 2 + randbelow(rng, 29)
            if a % b == 0:
                continue
        else:
            row1 = _whole_row(rng)
            if row1 is None:
                continue
            a, op1, b, _value = row1
        visible = [a, b, g, t]
        if x in visible:
            continue
        count = ambiguity_count(visible, x)
        if constraint == "constrained" and count != 1:
            continue
        if constraint == "unconstrained" and count < 2:
            continue
        given_role, box_role = (("r2_a", "r2_b") if slot == "given_first"
                                else ("r2_b", "r2_a"))
        givens = {"r1_a": a, "r1_op": op1, "r1_b": b, given_role: g,
                  "r2_op": rel_op, "target": t}
        tags = (constraint, slot)
        break
    else:
        raise GenerationError(
            f"no {constraint} {difficulty} item found in {MAX_DRAWS} draws")
    return ProblemScript(
        problem_id=problem_id,
        family="box",
        # A literal, so the log and its pickles hold one string per type.
        problem_type="box_easy" if difficulty == "easy" else "box_hard",
        given_fields=givens,
        canonical_steps=(SAI(box_role, INPUT_VALUE, str(x)),
                         DONE_STEP),
        condition_tags=tags,
        editable_roles=frozenset((box_role, "done")),
    )
