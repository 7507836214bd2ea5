"""Sequencing, study runs, log schema, determinism, and replay."""
from __future__ import annotations

import csv
import gc
import io
import json
import pickle
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simtutor import experiment
from simtutor.analytics import accuracy_by_condition, problem_outcomes
from simtutor.experiment import (
    COLUMNS,
    ExperimentConfig,
    TrialRecord,
    agent_condition,
    box_arrows_config,
    dump_problem_sets,
    filter_hard,
    fractions_config,
    read_transactions,
    run_study,
    sequence_fractions,
    write_transactions,
)
from simtutor.state import ConfigError, InvariantError, ProtocolError
from simtutor.tutors import ProblemScript

from _oracles import csv_read_transactions, csv_write_transactions


# -- sequencing ---------------------------------------------------------------

def test_blocked_sequence_transitions_at_positions_11_and_25():
    order = [p.problem_type for p in
             sequence_fractions("blocked", random.Random(0))]
    assert order[:10] == ["add_same"] * 10
    assert order[10:24] == ["add_diff"] * 14
    assert order[24:] == ["multiply"] * 24


def test_interleaved_sequence_preserves_the_type_multiset():
    order = [p.problem_type for p in
             sequence_fractions("interleaved", random.Random(3))]
    assert Counter(order) == {"add_same": 10, "add_diff": 14, "multiply": 24}


def test_blocked_sequences_differ_within_blocks_across_seeds():
    a = [p.given_fields["num1"] for p in sequence_fractions("blocked", random.Random(0))]
    b = [p.given_fields["num1"] for p in sequence_fractions("blocked", random.Random(1))]
    assert a != b


def test_unknown_condition_is_rejected():
    with pytest.raises(ConfigError):
        sequence_fractions("mixed", random.Random(0))


# -- config -------------------------------------------------------------------

def test_defaults_match_the_study_designs():
    f = fractions_config()
    assert f.n_agents == 78
    assert [agent_condition(f, i) for i in range(3)] == \
        ["blocked", "interleaved", "blocked"]
    b = box_arrows_config()
    assert b.n_agents == 202
    assert [agent_condition(b, i) for i in range(3)] == \
        ["constrained", "unconstrained", "constrained"]


def test_invalid_configs_fail_before_simulation():
    with pytest.raises(ConfigError, match="^n_agents must be at least 1$"):
        fractions_config(n_agents=0)
    with pytest.raises(ConfigError, match="^replications must be at least 1$"):
        fractions_config(replications=0)
    with pytest.raises(ConfigError, match="^jobs must be at least 1$"):
        box_arrows_config(jobs=0)
    with pytest.raises(ConfigError, match="^n_agents must be at least 1$"):
        replace(fractions_config(), n_agents=0)
    with pytest.raises(ConfigError, match="^unknown study 'chess'$"):
        ExperimentConfig(study="chess", n_agents=1)


def test_condition_allocation_is_balanced():
    cfg = fractions_config(n_agents=9)
    assigned = Counter(agent_condition(cfg, i) for i in range(9))
    assert abs(assigned["blocked"] - assigned["interleaved"]) <= 1


# -- run_study ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_fraction_log():
    return run_study(fractions_config(n_agents=4, replications=2, seed=11))


def test_log_shape_per_agent(small_fraction_log):
    problems = {(r.replication, r.agent_id, r.phase, r.problem_id)
                for r in small_fraction_log}
    per_agent = Counter((rep, agent, phase) for rep, agent, phase, _p in problems)
    for (rep, agent, phase), count in per_agent.items():
        assert count == (48 if phase == "tutor" else 8)


def test_every_agent_starts_with_a_hint(small_fraction_log):
    first = {}
    for r in small_fraction_log:
        first.setdefault((r.replication, r.agent_id), r)
    assert all(r.outcome == "HINT" for r in first.values())
    assert all(r.problem_correct is False for r in first.values())


def test_opportunity_counts_increase_per_type(small_fraction_log):
    seen = {}
    for r in small_fraction_log:
        key = (r.replication, r.agent_id, r.problem_type)
        last, pid = seen.get(key, (-1, None))
        if pid == r.problem_id:
            assert r.opportunity == last
        else:
            assert r.opportunity == last + 1
            seen[key] = (r.opportunity, r.problem_id)


def test_run_study_is_deterministic_and_job_count_independent():
    base = fractions_config(n_agents=4, replications=1, seed=5)
    serial = run_study(base)
    parallel = run_study(fractions_config(n_agents=4, replications=1, seed=5, jobs=2))
    assert serial == parallel


@pytest.mark.parametrize("n_agents, replications, jobs, workers", [
    (2, 1, 8, 1),    # 2 tasks: one chunk of 8
    (9, 1, 8, 2),    # 9 tasks: two chunks
    (4, 4, 8, 2),    # 16 tasks: two full chunks
    (17, 1, 2, 2),   # three chunks, two jobs
])
def test_run_study_starts_no_more_workers_than_chunks(
        monkeypatch, n_agents, replications, jobs, workers):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            assert chunksize == 8
            return [fn(t) for t in tasks]

    monkeypatch.setattr(experiment.multiprocessing, "Pool", SerialPool)
    cfg = fractions_config(n_agents=n_agents, replications=replications,
                           seed=5, jobs=jobs)
    rows = run_study(cfg)
    assert started == [workers]
    if n_agents == 2:
        assert rows == run_study(replace(cfg, jobs=1))


def test_tiny_logs_match_their_golden_digests():
    # Pins the exact behavior of the whole pipeline on two-agent runs; any
    # change to generators, agent dynamics, or log assembly shows up here.
    import hashlib

    def digest(rows):
        payload = "\n".join(",".join(r.as_row()) for r in rows)
        return hashlib.sha256(payload.encode()).hexdigest()

    fractions = run_study(fractions_config(n_agents=2, replications=1, seed=7))
    assert digest(fractions) == \
        "4ba59df0f77318c3a2dd4a275aed74fdcaa4e6415c1b4589bc2406104c3b9972"
    box = run_study(box_arrows_config(n_agents=2, replications=1, seed=7))
    assert digest(box) == \
        "54ee3893204f2797e85e6849c1d9fde0322147352b0aa1d474740092adc83e61"


@settings(max_examples=10, deadline=None)
@given(study=st.sampled_from((fractions_config, box_arrows_config)),
       seed=st.integers(0, 2**31 - 1))
@example(study=fractions_config, seed=9)
def test_replaying_dumped_problem_sets_reproduces_the_log(study, seed):
    cfg = study(n_agents=2, replications=1, seed=seed)
    sets = dump_problem_sets(cfg)
    assert sets == {(0, i): experiment._generate_sets(cfg, 0, i) for i in range(2)}
    assert run_study(cfg, problem_sets=sets) == run_study(cfg)


_PHASES = ("pretrain", "training", "posttest")


def save_problem_sets(path, sets):
    """Persist problem sets as JSON lines keyed by (replication, agent), each
    script written with ``to_record``."""
    with open(path, "w") as fh:
        for (rep, idx), groups in sorted(sets.items()):
            scripts = {phase: [s.to_record() for s in group]
                       for phase, group in zip(_PHASES, groups)}
            fh.write(json.dumps({"replication": rep, "agent": idx, **scripts},
                                sort_keys=True) + "\n")


def load_problem_sets(path):
    sets = {}
    with open(path) as fh:
        for line in fh:
            raw = json.loads(line)
            sets[(raw["replication"], raw["agent"])] = tuple(
                [ProblemScript.from_record(s) for s in raw[phase]] for phase in _PHASES)
    return sets


def test_replaying_a_persisted_problem_file_reproduces_the_log(tmp_path):
    cfg = box_arrows_config(n_agents=2, replications=1, seed=4)
    direct = run_study(cfg)
    path = tmp_path / "problems.jsonl"
    save_problem_sets(path, dump_problem_sets(cfg))
    replayed = run_study(cfg, problem_sets=load_problem_sets(path))
    assert direct == replayed


def _never_run(*args):
    raise AssertionError("a cell ran before its problem sets were checked")


def test_problem_sets_without_a_cell_are_rejected_up_front(monkeypatch):
    cfg = fractions_config(n_agents=2, replications=2, seed=3)
    sets = dump_problem_sets(cfg)
    del sets[(1, 0)], sets[(1, 1)]
    monkeypatch.setattr(experiment, "run_agent", _never_run)
    with pytest.raises(ConfigError) as err:
        run_study(cfg, problem_sets=sets)
    assert str(err.value) == "problem sets for replication 1, agent 0 are missing"


@pytest.mark.parametrize("reshape", [
    # The former shape: a dict of JSON strings per phase.
    lambda groups: {phase: [s.to_record() for s in group]
                    for phase, group in zip(_PHASES, groups)},
    lambda groups: tuple([s.to_record() for s in group] for group in groups),
    lambda groups: groups[1:],
    lambda groups: groups[1],
])
def test_malformed_problem_sets_are_rejected_up_front(monkeypatch, reshape):
    cfg = box_arrows_config(n_agents=3, replications=1, seed=3)
    sets = dump_problem_sets(cfg)
    sets[(0, 1)] = reshape(sets[(0, 1)])
    monkeypatch.setattr(experiment, "run_agent", _never_run)
    with pytest.raises(ConfigError) as err:
        run_study(cfg, problem_sets=sets)
    assert str(err.value) == ("problem sets for replication 0, agent 1 must be "
                              "(pretrain, training, posttest) lists of ProblemScript")


def test_cells_hand_back_plain_rows():
    # A cell's log holds plain tuples: one per problem, and a plain
    # (step_id, outcome) tuple per row.
    cfg = box_arrows_config(n_agents=2, replications=1, seed=3)
    log = experiment.run_agent(cfg, 0, 1)
    assert log and all(type(e) is tuple and len(e) == 9 for e in log.entries)
    assert all(type(pair) is tuple and len(pair) == 2
               for entry in log.entries for pair in entry[8])
    # Equal step runs are one object, and some problems do repeat a run.
    runs = [entry[8] for entry in log.entries]
    assert len(set(map(id, runs))) == len(set(runs)) < len(runs)
    assert b"TrialRecord" not in pickle.dumps(experiment._worker((cfg, 0, 1, None)))
    # A log pickles as its entries: the copy has no outcome memo to carry.
    accuracy_by_condition(log)
    copy = pickle.loads(pickle.dumps(log))
    assert log.outcomes and copy.outcomes == {}
    assert len(copy) == len(log) and copy.entries == log.entries


def test_len_counts_the_rows_that_bench_reads(tmp_path):
    # The benchmark's row counts (cell.rows_mean, rows_written, rows_read and
    # the harness's row checks) are len() of what these return.
    cfg = box_arrows_config(n_agents=2, replications=2, seed=3)
    cells = [experiment.run_agent(cfg, rep, idx) for rep in range(2)
             for idx in range(2)]
    assert [len(cell) for cell in cells] == [len(list(cell)) for cell in cells]
    log = run_study(cfg)
    assert len(log) == len(list(log)) == sum(map(len, cells))
    path = tmp_path / "transactions.csv"
    write_transactions(path, log)
    assert len(path.read_bytes().splitlines()) == 1 + len(log)
    assert len(read_transactions(path)) == len(log)
    # A cell's log survives pickling unchanged, without TrialRecord.
    for cell in cells:
        blob = pickle.dumps(cell)
        assert b"TrialRecord" not in blob
        copy = pickle.loads(blob)
        assert copy.entries == cell.entries and len(copy) == len(cell)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_study_builds_records_in_cell_order(jobs):
    cfg = box_arrows_config(n_agents=2, replications=2, seed=3, jobs=jobs)
    records = run_study(cfg)
    assert all(type(r) is TrialRecord for r in records)
    assert records == [row for rep in range(2) for idx in range(2)
                       for row in experiment.run_agent(cfg, rep, idx)]
    assert records.entries == [entry for rep in range(2) for idx in range(2)
                               for entry in experiment.run_agent(cfg, rep, idx).entries]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_cell_names_itself(monkeypatch, jobs):
    run_problem = experiment.run_problem

    def fail_one_cell(agent, session):
        if session.script.problem_id.startswith("fractions-r1-a002-"):
            raise ProtocolError("tutor session failed to progress")
        return run_problem(agent, session)

    monkeypatch.setattr(experiment, "run_problem", fail_one_cell)
    cfg = fractions_config(n_agents=4, replications=2, seed=3, jobs=jobs)
    with pytest.raises(ProtocolError) as err:
        run_study(cfg)
    assert str(err.value) == \
        "replication 1, agent 2: tutor session failed to progress"


@pytest.mark.parametrize("token", ["²5", "--5"])
def test_a_non_numeric_demonstration_names_its_cell(token):
    # A fresh agent asks for its first training step, so the tutor shows the
    # replaced token; it is no number, and the agent cannot explain it.
    cfg = fractions_config(n_agents=1, replications=1, seed=3)
    sets = dump_problem_sets(cfg)
    pretrain, training, posttest = sets[(0, 0)]
    steps = list(training[0].canonical_steps)
    i = next(i for i, step in enumerate(steps) if step.input is not None)
    steps[i] = steps[i]._replace(input=token)
    training = [training[0]._replace(canonical_steps=tuple(steps)), *training[1:]]
    sets[(0, 0)] = (pretrain, training, posttest)
    with pytest.raises(InvariantError) as err:
        run_study(cfg, problem_sets=sets)
    assert str(err.value) == f"replication 0, agent 0: non-numeric demonstration {token!r}"


def test_box_study_counts_and_hard_filter():
    cfg = box_arrows_config(n_agents=4, replications=1, seed=2)
    rows = run_study(cfg)
    assert {r.phase for r in rows} == {"tutor"}
    problems = {(r.agent_id, r.problem_id, r.problem_type) for r in rows}
    per_agent = Counter(a for a, _p, _t in problems)
    assert set(per_agent.values()) == {32}
    hard_rows = filter_hard(rows)
    assert {r.problem_type for r in hard_rows} == {"box_hard"}
    # scoring filter preserves every hard row
    assert len(hard_rows) == sum(1 for r in rows if r.problem_type == "box_hard")
    hard_problems = {(a, p) for a, p, t in problems if t == "box_hard"}
    assert len(hard_problems) == 4 * 16


def test_curve_positions_count_every_agent(small_fraction_log):
    from simtutor.analytics import learning_curve

    per_condition = {}
    for r in small_fraction_log:
        per_condition.setdefault(r.condition, set()).add((r.replication, r.agent_id))
    for point in learning_curve(small_fraction_log):
        assert point.n == len(per_condition[point.condition])


def test_pretraining_affects_half_the_box_agents():
    cfg = box_arrows_config(n_agents=8, replications=1, seed=3)
    rows = run_study(cfg)
    # Pretrained agents enter the main phase with easy-problem opportunity
    # counts already advanced; their first logged easy row starts at 16.
    first_easy = {}
    for r in rows:
        if r.problem_type == "box_easy":
            first_easy.setdefault(r.agent_id, r.opportunity)
    starts = Counter(first_easy.values())
    assert starts[16] == 4 and starts[0] == 4


# -- persistence ----------------------------------------------------------------

def test_transaction_round_trip(tmp_path, small_fraction_log):
    path = tmp_path / "transactions.csv"
    write_transactions(path, small_fraction_log)
    assert read_transactions(path) == small_fraction_log
    header = path.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)


def test_schema_validation_rejects_corruption(tmp_path, small_fraction_log):
    path = tmp_path / "transactions.csv"
    write_transactions(path, small_fraction_log)
    lines = path.read_text().splitlines()
    (tmp_path / "bad_header.csv").write_text(
        "\n".join(["a,b,c"] + lines[1:]) + "\n")
    with pytest.raises(ConfigError):
        read_transactions(tmp_path / "bad_header.csv")
    truncated = [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:3]]
    (tmp_path / "bad_rows.csv").write_text("\n".join(truncated) + "\n")
    with pytest.raises(ConfigError):
        read_transactions(tmp_path / "bad_rows.csv")


_TEXT_COLUMNS = ("agent_id", "condition", "phase", "problem_id", "problem_type",
                 "step_id", "outcome")


def test_records_read_together_share_one_object_per_distinct_string(
        tmp_path, small_fraction_log):
    path = tmp_path / "transactions.csv"
    write_transactions(path, small_fraction_log)
    records = read_transactions(path)
    for column in _TEXT_COLUMNS:
        values = [getattr(r, column) for r in records]
        assert len({id(v) for v in values}) == len(set(values)), column


def test_read_transactions_keeps_few_bytes_per_row(tmp_path, small_fraction_log):
    # About 550 bytes per row when every row holds its own seven strings,
    # about 150 when records share them, and about 61 in one entry per
    # problem with interned (step_id, outcome) pairs.
    path = tmp_path / "transactions.csv"
    write_transactions(path, small_fraction_log)
    tracemalloc.start()
    try:
        records = read_transactions(path)
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records == small_fraction_log
    assert kept / len(records) < 70


# Any text a CSV file can hold; lone surrogates cannot be encoded.
_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)

# Text that no CSV field quotes (empty included), and text that may need quoting.
_plain_texts = st.text(st.characters(blacklist_categories=("Cs",),
                                     blacklist_characters=',"\r\n'), max_size=8)
_quoted_texts = st.one_of(_plain_texts, st.sampled_from(
    (",", '"', "\r", "\n", 'say "hi"', "a\r\nb")))


def _records(texts):
    return st.builds(
        TrialRecord, agent_id=texts, replication=st.integers(-5, 10**6),
        condition=texts, phase=texts, problem_id=texts, problem_type=texts,
        opportunity=st.integers(-5, 10**6), step_id=texts,
        outcome=st.sampled_from(("CORRECT", "ERROR", "HINT")),
        problem_correct=st.booleans())


records = _records(_texts)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    """One file that every generated example overwrites."""
    return tmp_path_factory.mktemp("logs") / "transactions.csv"


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(records, max_size=6))
def test_record_row_round_trip(log_path, rows):
    write_transactions(log_path, rows)
    assert read_transactions(log_path) == rows


_CHUNK = experiment.WRITE_CHUNK
# A quote and a line break but no comma, so only a full guard sends it to csv.
_QUOTED = TrialRecord('a"1', 0, "", "tutor", "p", "t", 0, "s\n", "ERROR", False)
_RUN = _QUOTED._replace(agent_id="a", step_id="s")


@settings(max_examples=40, deadline=None)
@given(plain=st.lists(_records(_plain_texts), min_size=1, max_size=4),
       quoted=st.lists(st.tuples(st.integers(0, 4 * _CHUNK),
                                 _records(_quoted_texts)), max_size=4),
       tail=st.integers(1, _CHUNK - 1))
@example(plain=[_QUOTED._replace(agent_id="a", step_id="s")],
         quoted=[(_CHUNK + 3, _QUOTED)], tail=1)
def test_writer_matches_csv_writer_byte_for_byte(log_path, plain, quoted, tail):
    # Several chunks of entries and a short tail; a few rows may need
    # quoting.  Each opportunity holds two rows, so an entry holds one or two.
    n = 6 * _CHUNK + tail
    log = [rec._replace(opportunity=i // 2) for i, rec in enumerate((plain * n)[:n])]
    for position, record in quoted:
        log[position % n] = record
    reference = log_path.with_name("reference.csv")
    write_transactions(log_path, log)
    csv_write_transactions(reference, log)
    assert log_path.read_bytes() == reference.read_bytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(records, max_size=6))
def test_records_survive_pickling(rows):
    # Records pickle as themselves, for callers that pass them between processes.
    copies = pickle.loads(pickle.dumps(rows))
    assert copies == rows
    assert all(type(r) is TrialRecord for r in copies)


@settings(max_examples=200, deadline=None)
@given(record=records, token=_texts.filter(lambda t: t not in ("0", "1")))
def test_problem_correct_other_than_0_or_1_is_rejected(log_path, record, token):
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerow(record.as_row()[:9] + (token,))
    with pytest.raises(ConfigError, match="malformed transaction row") as err:
        read_transactions(log_path)
    assert repr(token) in str(err.value)


_READ = experiment.READ_CHUNK
# Rows csv reads but the column-wise decoder declines -> their line ends.
_QUIRKS = {"quoted": "\r\n", "lf": "\n", "cr": "\r"}


def _plant(rows, defect, i):
    """Make ``rows[i]`` (a list of (fields, line end) pairs) malformed."""
    fields, end = rows[i]
    fields = list(fields)
    if defect == "empty":
        rows.insert(i, ((), "\r\n"))
        return
    if defect == "columns":
        # The line break moves one field right: 11 fields, then 9.
        if i + 1 < len(rows):
            after, after_end = rows[i + 1]
            rows[i + 1] = (after[1:], after_end)
            fields.append(after[0])
        else:
            fields.append("")
    elif defect == "outcome":
        fields[8] = "WRONG"
    elif defect == "integer":
        fields[6] = "0" + fields[6]
    elif defect == "byte":
        fields[7] += "\udcff"  # written as the byte 0xff
    else:
        fields[7] = "x" * (csv.field_size_limit() + 1)
    rows[i] = (fields, end)


@settings(max_examples=40, deadline=None)
@given(plain=st.lists(_records(_plain_texts), min_size=1, max_size=4),
       quirks=st.lists(st.tuples(st.integers(0, 4 * _READ),
                                 st.sampled_from(sorted(_QUIRKS)),
                                 _records(_quoted_texts)), max_size=3),
       defect=st.none() | st.tuples(
           st.sampled_from(("empty", "columns", "outcome", "integer", "byte",
                            "long")), st.integers(0, 4 * _READ)),
       tail=st.integers(1, _READ - 1))
@example(plain=[_QUOTED._replace(agent_id="a", step_id="s")], quirks=[],
         defect=("columns", _READ + 5), tail=1)
@example(plain=[_QUOTED._replace(agent_id="a", step_id="s")],
         quirks=[(2 * _READ, "cr", _QUOTED)], defect=None, tail=1)
# Runs of two, one, two... rows: the first chunk ends inside a run of two,
# which csv.reader reads on when a quirk follows.
@example(plain=[_RUN, _RUN, _RUN._replace(problem_id="q")], quirks=[], defect=None,
         tail=1)
@example(plain=[_RUN, _RUN, _RUN._replace(problem_id="q")],
         quirks=[(_READ + 9, "cr", _QUOTED)], defect=None, tail=1)
def test_reader_matches_csv_reader(log_path, plain, quirks, defect, tail):
    # Several chunks and a short tail; a quirk sends its chunk and the rest
    # of the file to csv.reader.
    n = 3 * _READ + tail
    rows = [(r.as_row(), "\r\n") for r in (plain * n)[:n]]
    for position, quirk, record in quirks:
        fields = record.as_row() if quirk == "quoted" else rows[position % n][0]
        rows[position % n] = (fields, _QUIRKS[quirk])
    if defect is not None:
        _plant(rows, defect[0], defect[1] % n)
    text = io.StringIO()
    csv.writer(text).writerow(COLUMNS)
    for fields, end in rows:
        csv.writer(text, lineterminator=end).writerow(fields)
    log_path.write_bytes(text.getvalue().encode("utf-8", "surrogateescape"))
    if defect is not None:
        with pytest.raises(ConfigError) as expected:
            csv_read_transactions(log_path)
        with pytest.raises(ConfigError) as err:
            read_transactions(log_path)
        assert str(err.value) == str(expected.value)
        return
    records = read_transactions(log_path)
    assert records == csv_read_transactions(log_path)
    assert all(type(r) is TrialRecord for r in records)
    for column in _TEXT_COLUMNS:
        values = [getattr(r, column) for r in records]
        assert len({id(v) for v in values}) == len(set(values)), column
    # Equal step runs are one object, also where a chunk split one.
    runs = [entry[8] for entry in records.entries]
    assert len(set(map(id, runs))) == len(set(runs))


def _problem_rows(problem, opportunity, n):
    return [TrialRecord("a0", 0, "blocked", "tutor", problem, "add_same",
                        opportunity, f"s{i}", "CORRECT", True) for i in range(n)]


# Runs of a problem's rows: a problem's key fields, and how many rows it logs
# there.  Few problems, so a problem recurs after another's rows, and counts up
# to past a chunk, so a run can cross a chunk boundary.
_problem = st.builds(TrialRecord, agent_id=st.sampled_from(("a0", "a1")),
                     replication=st.just(0), condition=st.just("blocked"),
                     phase=st.just("tutor"), problem_id=st.sampled_from(("p0", "p1")),
                     problem_type=st.just("add_same"), opportunity=st.integers(0, 1),
                     step_id=st.just(""), outcome=st.just("CORRECT"),
                     problem_correct=st.booleans())
_P0 = TrialRecord("a0", 0, "blocked", "tutor", "p0", "add_same", 0, "", "CORRECT", True)


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.tuples(_problem, st.integers(1, _READ + 8)), max_size=4))
@example(runs=[(_P0, 3), (_P0._replace(problem_id="p1"), 2), (_P0, 4)])  # p0 resumes
@example(runs=[(_P0, 3), (_P0._replace(problem_correct=False), 2)])
@example(runs=[(_P0, _READ - 3), (_P0._replace(problem_id="p1"), 7)])
def test_rows_round_trip_through_a_log(log_path, runs):
    # Each run's rows take step ids and outcomes in turn.
    rows = [rec._replace(step_id=f"s{i % 3}", outcome=("CORRECT", "ERROR")[i % 2])
            for rec, n in runs for i in range(n)]
    log = experiment.TransactionLog.of(rows)
    assert list(log) == rows and len(log) == len(rows)
    assert all(type(r) is TrialRecord for r in log)
    # One entry per run of rows with equal keys, and one object per equal pair.
    keys = [r[:7] + r[9:] for r in rows]
    assert len(log.entries) == sum(a != b for a, b in zip(keys, [None] + keys))
    pairs = [pair for entry in log.entries for pair in entry[8]]
    assert len(set(map(id, pairs))) == len(set(pairs))
    # A log read back holds the same entries, whatever chunks split its runs.
    write_transactions(log_path, rows)
    assert read_transactions(log_path).entries == log.entries


def test_a_problem_straddling_a_chunk_boundary_is_read_whole(tmp_path):
    path = tmp_path / "transactions.csv"
    log = (_problem_rows("p0", 0, _READ - 3) + _problem_rows("p1", 1, 7)
           + _problem_rows("p2", 2, 5))
    write_transactions(path, log)
    records = read_transactions(path)
    assert records == log == csv_read_transactions(path)
    # p1's rows in both chunks hold the same objects.
    heads = {tuple(map(id, r[:7])) for r in records if r.problem_id == "p1"}
    assert len(heads) == 1


@pytest.mark.parametrize("row", [8, _READ + 12])
def test_a_bad_prefix_first_seen_mid_chunk_names_its_row(tmp_path, row):
    # Problems of four rows each; the one at ``row`` gets a new problem id
    # and an opportunity that ``as_row`` would not write, on its first row.
    path = tmp_path / "transactions.csv"
    log = [r for i in range(0, 2 * _READ, 4) for r in _problem_rows(f"p{i}", 0, 4)]
    write_transactions(path, log)
    lines = path.read_bytes().split(b"\r\n")
    lines[1 + row] = lines[1 + row].replace(f",p{row},add_same,0,".encode(),
                                            b",q,add_same,007,")
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ConfigError) as err:
        read_transactions(path)
    assert str(err.value) == (f"malformed transaction row {row + 2}: "
                              "non-canonical integer '007'")
    with pytest.raises(ConfigError) as expected:
        csv_read_transactions(path)
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("short", ["a,b", "x", "", "a000,0,blocked"],
                         ids=["two-fields", "one-field", "empty", "three-fields"])
def test_a_row_of_fewer_than_four_fields_in_a_plain_chunk_names_its_row(
        tmp_path, short):
    path = tmp_path / "transactions.csv"
    row = "a000,0,blocked,tutor,p0,add_same,0,answer_num,CORRECT,1\r\n"
    path.write_text(",".join(COLUMNS) + "\r\n" + row * 5 + short + "\r\n" + row * 3,
                    newline="")
    with pytest.raises(ConfigError) as err:
        read_transactions(path)
    fields = short.split(",") if short else []
    assert str(err.value) == ("malformed transaction row 7: "
                              f"expected 10 columns, got {fields!r}")
    with pytest.raises(ConfigError) as expected:
        csv_read_transactions(path)
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("header", [b"a,b,c\r\n", b"",
                                   ",".join(COLUMNS).encode() + b"\xff\r\n"])
def test_a_wrong_header_is_named_as_such(tmp_path, header):
    path = tmp_path / "transactions.csv"
    path.write_bytes(header + b"a0,0,blocked,tutor,p,t,0,s,CORRECT,1\r\n")
    with pytest.raises(ConfigError) as err:
        read_transactions(path)
    assert str(err.value) == f"unexpected transaction header in {path}"


class _RecordingEntries(list):
    """Entries that note the collector's state each time they are iterated."""

    def __init__(self, entries, seen):
        super().__init__(entries)
        self.seen = seen

    def __iter__(self):
        self.seen.append(gc.isenabled())
        return super().__iter__()


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_leave_the_collector_as_the_caller_set_it(
        tmp_path, monkeypatch, small_fraction_log, enabled):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_transactions(good, small_fraction_log)
    bad.write_text(good.read_text().replace("CORRECT", "RIGHT", 1))
    plain_entries, reads, builds = experiment._plain_entries, [], []

    def checked(*args):
        reads.append(gc.isenabled())
        return plain_entries(*args)

    monkeypatch.setattr(experiment, "_plain_entries", checked)
    log = experiment.TransactionLog(())
    log.entries = _RecordingEntries(small_fraction_log.entries, builds)
    (gc.enable if enabled else gc.disable)()
    try:
        assert read_transactions(good) == small_fraction_log
        assert gc.isenabled() is enabled
        with pytest.raises(ConfigError, match="unknown outcome 'RIGHT'"):
            read_transactions(bad)
        assert gc.isenabled() is enabled
        assert problem_outcomes(log) == problem_outcomes(small_fraction_log)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert reads and set(reads) == {enabled}
    assert builds == [enabled]


def test_cells_run_with_the_collector_on(monkeypatch):
    run_agent, seen = experiment.run_agent, []

    def checked(*args):
        seen.append(gc.isenabled())
        return run_agent(*args)

    monkeypatch.setattr(experiment, "run_agent", checked)
    run_study(box_arrows_config(n_agents=2, replications=1, seed=3))
    assert seen == [True, True]
    assert gc.isenabled()
