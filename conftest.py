import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).parent / "tests"))


@pytest.fixture
def outcome_builds(monkeypatch):
    """Every problem-outcome build from here on, as (phase, log) in order."""
    from simtutor import analytics

    builds, build = [], analytics._outcomes

    def counted(log, phase):
        builds.append((phase, log))
        return build(log, phase)

    monkeypatch.setattr(analytics, "_outcomes", counted)
    return builds
