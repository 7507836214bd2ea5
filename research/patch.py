"""Patch named attributes of modules or classes for the length of one block.

A harness observes a run by replacing names that simtutor looks up at call
time (``simtutor.agent.decide``, ``simtutor.tutors.TutorSession.submit`` and
so on), as ``bench/tracer.py`` does.  Every original is restored when the
block ends, also when it raises, so a later unpatched run is the plain one.
"""
from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def patched(*patches):
    """Set each ``(owner, name, value)`` of ``patches`` for the block.

    An original is read through ``vars(owner)[name]``, so a name that the
    owner does not define itself raises ``KeyError`` before anything is set,
    and a class's descriptor (a ``staticmethod``, say) is restored as itself.
    """
    originals = [(owner, name, vars(owner)[name]) for owner, name, _value in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
