import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).parent / "tests"))


@pytest.fixture
def outcome_builds(monkeypatch):
    """Every outcome-cell build through ``analytics.problem_outcomes`` from
    here on, as (phase, records) in order."""
    from simtutor import analytics

    builds, build = [], analytics.problem_outcomes

    def counted(records, phase="tutor"):
        builds.append((phase, records))
        return build(records, phase)

    monkeypatch.setattr(analytics, "problem_outcomes", counted)
    return builds
