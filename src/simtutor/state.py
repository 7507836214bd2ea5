"""Tutor interface state as the agent perceives it, plus the step vocabulary.

A tutor exposes an ordered set of fields.  Every field is identified by its
semantic role and carries a current value (``None`` when empty) and an
editability flag.  Agents act by submitting a selection/action/input triple
against one field, selected by its role.
"""
from __future__ import annotations

from functools import cache
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

    The checked ``WorkingMemory`` constructor's input and ``field``'s result;
    working memory itself keeps the values and one set of editable roles.
    """

    role: str
    value: object = None
    editable: bool = False


class SAI(NamedTuple("SAI", [("selection", str), ("action", str),
                              ("input", str | None)])):
    """A (selection, action, input) step, proposed or canonical; checked as built."""

    __slots__ = ()
    expected = property(lambda self: self[2])  # a canonical step's input token

    def __new__(cls, selection, action, input=None):
        if action not in ACTIONS:
            raise InvariantError(f"unknown action {action!r}")
        if (input is not None) != (action == INPUT_VALUE):
            raise InvariantError("input is present iff action is input_value")
        return tuple.__new__(cls, (selection, action, input))


def render_value(value) -> str:
    """Canonical token for a computed value: integers bare, otherwise n/d.

    ``value`` is an ``int`` or a ``Fraction``; both carry ``numerator`` and
    ``denominator``.
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_integer(token):
    """The ``int`` that ``render_value`` writes as exactly ``token``; raises
    ``ValueError`` for any other text."""
    value = int(token)
    if str(value) != token:
        raise ValueError(f"non-canonical integer {token!r}")
    return value


@cache
def _shape(layout, kinds, editable):
    """Fill literals, open roles and editable roles shared by every snapshot
    of ``layout`` with these value types (None when empty) and editable
    flags; cached by shape alone, never by value."""
    empty = [kind is type(None) for kind in kinds]
    literals = frozenset(("empty" if e else "filled", r) for r, e in zip(layout, empty))
    open_roles = frozenset(r for r, e, ed in zip(layout, empty, editable) if e and ed)
    return literals, open_roles, frozenset(r for r, ed in zip(layout, editable) if ed)


class WorkingMemory:
    """The visible tutor state: field values by role, plus the true predicate set.

    ``fields`` maps each role to its value (``None`` when empty) in layout
    order, and ``editable`` holds the editable roles.  The predicates are
    every field's filled/empty literal plus what the tutor family derives
    (none without a family).  ``open_roles`` holds the roles of the editable
    fields that are still empty.  Working memory is never mutated:
    ``with_value`` derives the state after one field changes.
    """

    __slots__ = ("fields", "editable", "family", "predicates", "open_roles")

    def __init__(self, entries, family=None):
        states = {}
        for role, state in entries:
            if role != state.role:
                raise MalformedTutorError(
                    f"field {role!r} carries the role {state.role!r}")
            if role in states:
                raise MalformedTutorError(f"duplicate role {role!r}")
            states[role] = state
        if not states:
            raise MalformedTutorError("empty tutor snapshot")
        self._build(tuple(zip(*states.values())), family)

    @classmethod
    def from_snapshot(cls, snapshot, family):
        """Working memory of a snapshot of (role, value, editable) triples.  One
        in layout order, as a ``TutorSession`` gives, is built from its columns;
        any other goes through the checks of the constructor."""
        columns = tuple(zip(*snapshot))  # roles, values, editable flags
        if not columns or columns[0] != family.layout:
            for role, _value, _editable in snapshot:
                if role not in family.layout:
                    raise MalformedTutorError(f"role {role!r} not in the tutor's layout")
            return cls([(r, FieldState(r, v, e)) for r, v, e in snapshot], family)
        return cls.__new__(cls)._build(columns, family)

    def _build(self, columns, family):
        """Set every attribute from the checked roles, values and editable
        flags over the cached shape; returns ``self``."""
        roles, values, editable = columns
        literals, self.open_roles, self.editable = _shape(
            roles, tuple(map(type, values)), editable)
        self.fields = fields = dict(zip(roles, values))
        self.family = family
        self.predicates = (literals if family is None
                           else literals.union(family.derive(fields)))
        return self

    def with_value(self, role, value) -> WorkingMemory:
        """Working memory after field ``role`` takes ``value``; ``self`` is unchanged.

        Copies the value map once and applies a predicate delta: the field's
        filled/empty literal, plus the derived predicates when the field is
        one of the family's derive inputs.
        """
        # field() raises on an unknown role.
        old = self.fields[role] if role in self.fields else self.field(role)
        fields = self.fields.copy()
        fields[role] = value
        wm = WorkingMemory.__new__(WorkingMemory)
        wm.fields = fields
        wm.editable = self.editable
        wm.family = family = self.family
        preds = self.predicates
        open_roles = self.open_roles
        filled = value is not None
        if (old is not None) != filled:
            # Swaps the field's literal: the old one is in, the new one is not.
            preds = preds.symmetric_difference((("filled", role), ("empty", role)))
            if role in self.editable:
                open_roles = (open_roles.difference((role,)) if filled
                              else open_roles.union((role,)))
        if family is not None and role in family.derive_inputs:
            preds = preds.difference(family.derive(self.fields)).union(
                family.derive(fields))
        wm.predicates = preds
        wm.open_roles = open_roles
        return wm

    def field(self, role) -> FieldState:
        """Field ``role`` as a ``FieldState``; ``InvariantError`` if unknown."""
        if role not in self.fields:
            raise InvariantError(f"unknown field {role!r}")
        return FieldState(role, self.fields[role], role in self.editable)

    def numeric_leaves(self):
        """(role, value) of every field that holds an ``int``, in layout order."""
        return [(role, value) for role, value in self.fields.items()
                if type(value) is int]

    def __repr__(self):
        parts = ", ".join(f"{role}={value!r}" for role, value in self.fields.items())
        return f"WorkingMemory({parts})"
