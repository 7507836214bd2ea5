"""Golden fingerprints: the sha256 of a small fixed run of each study.

The log is the system's observable behaviour, so these digests pin it across
refactors and speed-ups.  Every run path must produce the same bytes: the
serial loop, the process pool, and replay of dumped problem sets through
either.  A change that moves a digest changes behaviour and must say why.
"""
from __future__ import annotations

import hashlib

import pytest

from simtutor.experiment import (
    box_arrows_config,
    dump_problem_sets,
    fractions_config,
    run_study,
    write_transactions,
)

# 8 agents x 1 replication at seed 7, written by write_transactions.
GOLDEN = {
    "fractions": (fractions_config,
                  "609b6c7e68dd5cbd10ffcea1bc8f08220596dc17eb0c86c0e3ad0e6de8cdffac"),
    "box": (box_arrows_config,
            "386d9880ff09ea4293ac7ebc19e3a849faf7d729afbd0ae4fb0d73d3c06cb767"),
}


def _log_sha256(records, path):
    write_transactions(path, records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("study", sorted(GOLDEN))
@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("replay", (False, True), ids=("generated", "replayed"))
def test_small_run_matches_its_golden_digest(tmp_path, study, jobs, replay):
    factory, digest = GOLDEN[study]
    config = factory(n_agents=8, replications=1, seed=7, jobs=jobs)
    sets = dump_problem_sets(config) if replay else None
    records = run_study(config, problem_sets=sets)
    assert _log_sha256(records, tmp_path / "transactions.csv") == digest
