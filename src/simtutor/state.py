"""Tutor interface state as the agent perceives it, plus the step vocabulary.

A tutor exposes an ordered set of fields.  Every field is identified by its
semantic role and carries a current value (``None`` when empty) and an
editability flag.  Agents act by submitting a selection/action/input triple
against one field, selected by its role.
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


# What a simulation run can raise; the command line exits 2 on each.
SIMULATION_ERRORS = (GenerationError, InvariantError, MalformedTutorError,
                     ProtocolError)


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


def _fill_literal(role, state):
    return ("filled", role) if state.value is not None else ("empty", role)


class WorkingMemory:
    """The visible tutor state: fields by role, plus the true predicate set.

    ``fields`` maps each role to its ``FieldState`` in layout order.  The
    predicates are every field's filled/empty literal plus what the tutor
    family derives (none without a family).  ``values`` maps the role of
    every numeric field to its exact ``int`` value, and ``open_roles`` holds
    the roles of the editable fields that are still empty.  Working memory is
    never mutated: ``with_value`` derives the state after one field changes.
    """

    __slots__ = ("fields", "family", "predicates", "values", "open_roles")

    def __init__(self, entries, family=None):
        fields = {}
        preds = set()
        values = {}
        open_roles = set()
        for role, state in entries:
            if role != state.role:
                raise MalformedTutorError(
                    f"field {role!r} carries the role {state.role!r}")
            if role in fields:
                raise MalformedTutorError(f"duplicate role {role!r}")
            fields[role] = state
            preds.add(_fill_literal(role, state))
            if type(state.value) is int:
                values[role] = state.value
            elif state.value is None and state.editable:
                open_roles.add(role)
        if not fields:
            raise MalformedTutorError("empty tutor snapshot")
        if family is not None:
            preds |= family.derive(fields)
        self.fields = fields
        self.family = family
        self.predicates = frozenset(preds)
        self.values = values
        self.open_roles = frozenset(open_roles)

    def with_value(self, role, value) -> WorkingMemory:
        """Working memory after field ``role`` takes ``value``; ``self`` is unchanged.

        Copies the field map once and applies a predicate delta: the field's
        filled/empty literal, plus the derived predicates when the field is
        one of the family's derive inputs.
        """
        old = self.field(role)
        new = FieldState(role, value, old.editable)
        fields = self.fields.copy()
        fields[role] = new
        wm = WorkingMemory.__new__(WorkingMemory)
        wm.fields = fields
        wm.family = family = self.family
        preds = self.predicates
        open_roles = self.open_roles
        if old.filled != new.filled:
            preds = preds.difference((_fill_literal(role, old),)).union(
                (_fill_literal(role, new),))
            if new.editable:
                open_roles = (open_roles.difference((role,)) if new.filled
                              else open_roles.union((role,)))
        if family is not None and role in family.derive_inputs:
            preds = preds.difference(family.derive(self.fields)).union(
                family.derive(fields))
        wm.predicates = preds
        wm.open_roles = open_roles
        values = self.values
        numeric = type(value) is int
        if numeric or role in values:
            values = values.copy()
            if numeric:
                values[role] = value
            else:
                del values[role]
        wm.values = values
        return wm

    def field(self, role):
        try:
            return self.fields[role]
        except KeyError:
            raise InvariantError(f"unknown field {role!r}") from None

    def numeric_leaves(self):
        """(role, exact value) pairs for every numeric field, in layout order."""
        values = self.values
        return [(role, values[role]) for role in self.fields if role in values]

    def __repr__(self):
        parts = ", ".join(f"{role}={state.value!r}" for role, state in self.fields.items())
        return f"WorkingMemory({parts})"
