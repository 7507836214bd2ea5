"""Skill induction: explaining demonstrations and learning applicability.

A demonstrated value is explained by searching compositions of arithmetic
primitives (add, subtract, multiply, divide) over the visible numeric fields,
shallowest first, with exact arithmetic: values stay ``int``, and a
``Fraction`` appears only for a division that does not come out whole.  An
explanation generalizes into a reusable skill: a procedure over field roles
plus two predicate sets.  A procedure is plain data: a field role (``str``), a
constant (``int``) or an ``(op, left, right)`` tuple over two procedures.

``conditions`` is the skill's positive prototype: every predicate observed
true when the skill was demonstrated, shrunk to the intersection over later
positive examples (drop-literal).  ``required`` is the firing gate actually
enforced during matching.  It starts empty, so a newborn skill fires anywhere
its procedure can execute, and it grows only when the skill fires incorrectly:
each prototype predicate that failed to hold in the bad state becomes
required.  Wrong-in-context rules are thereby discriminated away while
wrong-everywhere rules die through utility competition.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .state import (
    INPUT_VALUE,
    SAI,
    InvariantError,
    WorkingMemory,
)

MAX_DEPTH = 2
OPS = ("add", "subtract", "multiply", "divide")
COMMUTATIVE = frozenset(("add", "multiply"))
_ARITH = {"add": operator.add, "subtract": operator.sub, "multiply": operator.mul}


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

def divide(left, right):
    """Exact quotient (an ``int`` when ints divide evenly), or None for a zero divisor."""
    if right == 0:
        return None
    if type(left) is int and type(right) is int:
        quotient, remainder = divmod(left, right)
        return quotient if remainder == 0 else Fraction(left, right)
    return left / right


def evaluate(expr, fields):
    """``expr``'s exact value over role -> field value, or None when a role
    is unbound or a divisor is zero.  A role binds only while its field holds
    an ``int``."""
    kind = type(expr)
    if kind is str:
        value = fields.get(expr)
        return value if type(value) is int else None
    if kind is int:
        return expr
    op, left, right = expr
    # Leaf operands are read inline, by the same rules as the two cases above.
    if type(left) is str:
        if type(left := fields.get(left)) is not int:
            return None
    elif type(left) is not int and (left := evaluate(left, fields)) is None:
        return None
    if type(right) is str:
        if type(right := fields.get(right)) is not int:
            return None
    elif type(right) is not int and (right := evaluate(right, fields)) is None:
        return None
    return _ARITH.get(op, divide)(left, right)


def depth(expr) -> int:
    if type(expr) is tuple:
        return 1 + max(depth(expr[1]), depth(expr[2]))
    return 0


def sexpr(expr) -> str:
    if type(expr) is tuple:
        return f"({expr[0]} {sexpr(expr[1])} {sexpr(expr[2])})"
    return str(expr)


def _operands(levels, d):
    """The (left entry, right entry) pairs of an exact-depth-d call over
    disjoint leaves, by operand depths, left, then right."""
    return [(left, right) for dl in range(d) for dr in range(d) if max(dl, dr) == d - 1
            for left in levels[dl] for right in levels[dr] if not left[1] & right[1]]


def _compose_level(levels, d):
    """All exact-depth-d trees over disjoint leaves, by operator, then ``_operands``.

    An entry is ``(key, used, value)``.  ``key`` spells the tree, ``(0, i)``
    for leaf ``i`` and ``(1, op index, left key, right key)`` for a call, and
    orders commutative operands; ``used`` is the bitmask of its leaves.
    """
    out = []
    operands = _operands(levels, d)
    for opi, op in enumerate(OPS):
        arith, commutative = _ARITH.get(op, divide), op in COMMUTATIVE
        for (lk, lu, lv), (rk, ru, rv) in operands:
            if not (commutative and lk > rk) and (v := arith(lv, rv)) is not None:
                out.append(((1, opi, lk, rk), lu | ru, v))
    return out


def _matching_keys(levels, d, target):
    """Keys of the exact-depth-d trees whose value is ``target``.

    Walks the trees in ``_compose_level``'s order but keeps only the keys
    that match, and stores no entry for the rest.  A quotient is tested as
    ``left == target * right``, exact for ints and ``Fraction``s alike, so
    the scan builds no ``Fraction``.
    """
    out = []
    operands = _operands(levels, d)
    for opi, op in enumerate(OPS):
        arith, commutative = _ARITH.get(op), op in COMMUTATIVE
        for (lk, _lu, lv), (rk, _ru, rv) in operands:
            if not (commutative and lk > rk) and (
                    arith(lv, rv) == target if arith else rv != 0 and lv == target * rv):
                out.append((1, opi, lk, rk))
    return out


def _tree(key, leaves):
    """The canonical tree a key spells over ``leaves`` (role, value) pairs,
    with commutative operands in rendering order, and its ``sexpr``."""
    if key[0] == 0:
        role = leaves[key[1]][0]
        return role, role
    _call, opi, left, right = key
    op = OPS[opi]
    (left, ltext), (right, rtext) = _tree(left, leaves), _tree(right, leaves)
    if op in COMMUTATIVE and ltext > rtext:
        left, right, ltext, rtext = right, left, rtext, ltext
    return (op, left, right), f"({op} {ltext} {rtext})"


def _demonstrated(demo: SAI) -> int:
    """The demonstrated value; ``InvariantError`` unless it is a number."""
    try:
        return int(demo.input)
    except (TypeError, ValueError):
        raise InvariantError(f"non-numeric demonstration {demo.input!r}") from None


def explain(wm: WorkingMemory, demo: SAI, allow_constant: bool = True):
    """All minimal-depth explanations of a demonstrated value.

    Search runs by iterative deepening over operator compositions of the
    visible numeric field values: depth, then operator order (add, subtract,
    multiply, divide), then leftmost field order.  Each tree uses a field at
    most once.  Each depth is scanned for the target before it is built, and
    it is built only when the search must go one depth deeper.  The constant
    explanation is returned only when no field-based explanation exists
    within ``MAX_DEPTH``.  No two explanations render alike: roles are
    unique, and a commutative pair is keyed in one operand order only.
    """
    if demo.action != INPUT_VALUE:
        return []
    target = _demonstrated(demo)
    leaves = wm.numeric_leaves()
    levels = [[((0, i), 1 << i, val) for i, (_role, val) in enumerate(leaves)]]
    for d in range(MAX_DEPTH + 1):
        if d == 0:
            keys = [key for key, _used, val in levels[0] if val == target]
        else:
            keys = _matching_keys(levels, d, target)
        if keys:
            return [_tree(key, leaves)[0] for key in keys]
        if 0 < d < MAX_DEPTH:
            levels.append(_compose_level(levels, d))
    if allow_constant:
        return [target]
    return []


# --------------------------------------------------------------------------
# Skills
# --------------------------------------------------------------------------

@dataclass
class Skill:
    """A learned production: procedure, applicability predicates, utility stats."""

    skill_id: str
    target_role: str
    action: str
    procedure: object  # an expression, or None for structural actions
    conditions: frozenset
    required: frozenset = frozenset()
    successes: int = 0
    attempts: int = 0

    def __post_init__(self):
        if self.successes > self.attempts:
            raise InvariantError("successes exceed attempts")

    def record(self, correct: bool) -> None:
        self.attempts += 1
        if correct:
            self.successes += 1

    def to_dict(self) -> dict:
        return {
            "skill_id": self.skill_id,
            "target_role": self.target_role,
            "action": self.action,
            "procedure": None if self.procedure is None else sexpr(self.procedure),
            "conditions": sorted(" ".join(map(str, p)) for p in self.conditions),
            "required": sorted(" ".join(map(str, p)) for p in self.required),
            "successes": self.successes,
            "attempts": self.attempts,
        }


def refine_conditions(skill: Skill, wm: WorkingMemory, correct: bool) -> Skill:
    """Update a skill's predicate sets after an outcome in ``wm``.

    Positive example: drop every predicate not satisfied by the state, from
    both the prototype and the gate.  Negative example: the prototype is left
    unchanged; prototype predicates that failed in the state join the gate.
    A set that the example leaves as it was is not rebuilt.
    """
    sat = wm.predicates
    if correct:
        if not skill.conditions <= sat:
            skill.conditions = skill.conditions & sat
        if not skill.required <= sat:
            skill.required = skill.required & sat
    else:
        missing = skill.conditions - sat
        if not missing <= skill.required:
            skill.required = skill.required | missing
    return skill


def induce_from_demo(skills, wm: WorkingMemory, demo: SAI):
    """Fold one tutor demonstration into the skill store.

    Any existing skill for the same field role and action whose procedure
    reproduces the demonstrated value is credited as a positive example.
    Otherwise a new skill, numbered from the store (``s0001`` first) and
    conditioned on the whole observed state, is appended and returned.  Its
    procedure is the first explanation in search order (the constant when
    nothing else explains the value), or None for a structural action.
    """
    role = demo.selection
    if role not in wm.fields:
        raise InvariantError(f"unknown field {role!r}")
    value = _demonstrated(demo) if demo.action == INPUT_VALUE else None

    credited = False
    for sk in skills:
        if sk.target_role != role or sk.action != demo.action:
            continue
        if sk.procedure is None or evaluate(sk.procedure, wm.fields) == value:
            sk.record(True)
            refine_conditions(sk, wm, True)
            credited = True
    if credited:
        return None

    procedure = explain(wm, demo)[0] if demo.action == INPUT_VALUE else None
    created = Skill(f"s{len(skills) + 1:04d}", role, demo.action, procedure, wm.predicates)
    skills.append(created)
    return created
