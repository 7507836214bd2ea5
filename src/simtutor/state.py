"""Tutor interface state as the agent perceives it, plus the step vocabulary.

A tutor exposes an ordered set of fields.  Every field carries a semantic
role, a current value (``None`` when empty), and an editability flag.  Agents
act by submitting a selection/action/input triple against one field.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

INPUT_VALUE = "input_value"
PRESS_DONE = "press_done"
CHECK_BOX = "check_box"
ACTIONS = (INPUT_VALUE, PRESS_DONE, CHECK_BOX)

CORRECT = "CORRECT"
ERROR = "ERROR"
HINT = "HINT"


class MalformedTutorError(ValueError):
    """A tutor snapshot violates the interface contract."""


class InvariantError(ValueError):
    """Internal consistency violation (stale ids, bad references)."""


class ProtocolError(RuntimeError):
    """Illegal interaction with a tutor session."""


class GenerationError(RuntimeError):
    """A problem generator could not satisfy its constraints."""


class ConfigError(ValueError):
    """Invalid experiment or CLI configuration."""


class FieldState(NamedTuple):
    """One interface field: semantic role, current value, editability.

    A named tuple rather than a frozen dataclass: working memory builds one
    per field per problem and one per step, and a tuple is built in half the
    time.
    """

    role: str
    value: object = None
    editable: bool = False

    @property
    def filled(self) -> bool:
        return self.value is not None

    @property
    def numeric(self) -> bool:
        return isinstance(self.value, int) and not isinstance(self.value, bool)


@dataclass(frozen=True)
class SAI:
    """A (selection, action, input) step proposal submitted to a tutor."""

    selection: str
    action: str
    input: str | None = None

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise InvariantError(f"unknown action {self.action!r}")
        if (self.input is not None) != (self.action == INPUT_VALUE):
            raise InvariantError("input is present iff action is input_value")


def render_value(value) -> str:
    """Canonical token for a computed value: integers bare, otherwise n/d.

    ``value`` is an ``int`` or a ``Fraction``; both carry ``numerator`` and
    ``denominator``.
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Field ids read by derived (non-fill) predicates.  A change to any other
# field only swaps its filled/empty literal.
_DERIVED_INPUTS = frozenset(("op", "r1_op", "r2_op", "den1", "den2", "convert_check"))


def _fill_literal(field_id, state):
    return ("filled", field_id) if state.value is not None else ("empty", field_id)


def _derived_predicates(fields):
    preds = set()
    op = fields.get("op")
    if op is not None and op.filled:
        preds.add(("op_equals", op.value))
    for fid in ("r1_op", "r2_op"):
        st = fields.get(fid)
        if st is not None and st.filled:
            preds.add(("op_is", fid, st.value))
    d1, d2 = fields.get("den1"), fields.get("den2")
    if d1 is not None and d2 is not None and d1.numeric and d2.numeric:
        preds.add(("denominators_equal",) if d1.value == d2.value
                  else ("denominators_differ",))
    chk = fields.get("convert_check")
    if chk is not None and bool(chk.value):
        preds.add(("box_checked",))
    return preds


class WorkingMemory:
    """The visible tutor state: ordered fields plus the true predicate set.

    Field ids and roles must both be unique; in the bundled tutors every
    field id equals its role.  ``values`` maps the role of every numeric
    field to its exact ``int`` value, and ``open_roles`` holds the roles of
    the editable fields that are still empty.  Working memory is never
    mutated: ``with_value`` derives the state after one field changes.
    """

    __slots__ = ("order", "fields", "by_role", "predicates", "values", "open_roles")

    def __init__(self, entries):
        order = []
        fields = {}
        by_role = {}
        preds = set()
        values = {}
        open_roles = set()
        for field_id, state in entries:
            role = state.role
            if field_id in fields:
                raise MalformedTutorError(f"duplicate field id {field_id!r}")
            if role in by_role:
                raise MalformedTutorError(f"duplicate role {role!r}")
            order.append(field_id)
            fields[field_id] = state
            by_role[role] = field_id
            preds.add(_fill_literal(field_id, state))
            if state.numeric:
                values[role] = state.value
            elif state.value is None and state.editable:
                open_roles.add(role)
        if not order:
            raise MalformedTutorError("empty tutor snapshot")
        self.order = tuple(order)
        self.fields = fields
        self.by_role = by_role
        self.predicates = frozenset(preds | _derived_predicates(fields))
        self.values = values
        self.open_roles = frozenset(open_roles)

    def with_value(self, field_id, value) -> WorkingMemory:
        """Working memory after ``field_id`` takes ``value``; ``self`` is unchanged.

        Copies the field map once and applies a predicate delta: the field's
        filled/empty literal, plus the derived predicates when the field is
        one of their inputs.
        """
        old = self.field(field_id)
        role = old.role
        new = FieldState(role, value, old.editable)
        fields = self.fields.copy()
        fields[field_id] = new
        wm = WorkingMemory.__new__(WorkingMemory)
        wm.order = self.order
        wm.fields = fields
        wm.by_role = self.by_role
        preds = self.predicates
        open_roles = self.open_roles
        if old.filled != new.filled:
            preds = preds.difference((_fill_literal(field_id, old),)).union(
                (_fill_literal(field_id, new),))
            if new.editable:
                open_roles = (open_roles.difference((role,)) if new.filled
                              else open_roles.union((role,)))
        if field_id in _DERIVED_INPUTS:
            preds = preds.difference(_derived_predicates(self.fields)).union(
                _derived_predicates(fields))
        wm.predicates = preds
        wm.open_roles = open_roles
        values = self.values
        if new.numeric or role in values:
            values = values.copy()
            if new.numeric:
                values[role] = value
            else:
                del values[role]
        wm.values = values
        return wm

    def field(self, field_id):
        try:
            return self.fields[field_id]
        except KeyError:
            raise InvariantError(f"unknown field {field_id!r}") from None

    def numeric_leaves(self):
        """(role, exact value) pairs for every numeric field, in field order."""
        values = self.values
        out = []
        for fid in self.order:
            role = self.fields[fid].role
            if role in values:
                out.append((role, values[role]))
        return out

    def __repr__(self):
        parts = ", ".join(f"{fid}={self.fields[fid].value!r}" for fid in self.order)
        return f"WorkingMemory({parts})"
