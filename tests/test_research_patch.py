"""``research.patch.patched`` sets names for one block and always restores them.

A harness observes a run by wrapping names that simtutor looks up at call
time.  A patch that outlived its block would change every later run, so the
test ends with an unpatched run that reproduces the pinned 8-agent digest.
"""
from __future__ import annotations

import hashlib

import pytest

from research.patch import patched
from simtutor import agent, tutors
from simtutor.experiment import fractions_config, run_study, write_transactions

# tests/test_fingerprint.py's fractions digest: 8 agents x 1 replication, seed 7.
FRACTIONS_8X1 = "609b6c7e68dd5cbd10ffcea1bc8f08220596dc17eb0c86c0e3ad0e6de8cdffac"


def _config():
    return fractions_config(n_agents=8, replications=1, seed=7)


def test_a_patch_holds_for_its_block_and_a_later_run_is_the_plain_one(tmp_path):
    decide, submit = agent.decide, vars(tutors.TutorSession)["submit"]
    calls = []

    def counting(*args):
        calls.append(args)
        return decide(*args)

    with patched((agent, "decide", counting)):
        assert agent.decide is counting
        log = run_study(_config())
    # run_problem looks decide up at call time: one call per logged step.
    assert len(calls) == len(log) == 2117
    assert agent.decide is decide

    with pytest.raises(RuntimeError, match="^inside the block$"):
        with patched((agent, "decide", counting), (tutors.TutorSession, "submit", None)):
            assert tutors.TutorSession.submit is None
            raise RuntimeError("inside the block")
    assert agent.decide is decide
    assert vars(tutors.TutorSession)["submit"] is submit

    path = tmp_path / "transactions.csv"
    write_transactions(path, run_study(_config()))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FRACTIONS_8X1


@pytest.mark.parametrize("owner, name", [
    (agent, "no_such_name"),
    (tutors.TutorSession, "__eq__"),  # inherited from object, not its own
])
def test_a_name_the_owner_does_not_define_is_a_key_error_that_sets_nothing(owner, name):
    decide = agent.decide
    with pytest.raises(KeyError):
        with patched((agent, "decide", None), (owner, name, None)):
            pass
    assert agent.decide is decide
    assert name not in vars(owner)
