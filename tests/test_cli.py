"""End-to-end command-line behavior on scaled-down runs."""
from __future__ import annotations

import csv
import gc
import io
import json

import pytest

from simtutor import cli, experiment
from simtutor.analytics import (
    MAX_ITER,
    DesignError,
    SeparationError,
    curve_rows,
    fit_logistic,
    fit_logit,
    learning_curve,
    posttest_effect,
)
from simtutor.cli import main
from simtutor.experiment import TrialRecord, read_transactions, write_transactions
from simtutor.state import (
    GenerationError,
    InvariantError,
    MalformedTutorError,
    ProtocolError,
)


def run_dir(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["run", "fractions", "--agents", "4", "--replications", "1",
                 "--seed", "3", "--out", str(out), *extra])
    assert code == 0
    return out


def test_run_writes_the_expected_artifacts(tmp_path):
    out = run_dir(tmp_path)
    names = {p.name for p in out.iterdir()}
    assert {"transactions.csv", "curves.csv", "regression.txt",
            "regression.csv", "manifest.json"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["agents"] == 4
    assert set(manifest["phase_seconds"]) == {"simulate", "write", "fit"}
    records = read_transactions(out / "transactions.csv")
    assert records


def test_identical_invocations_are_byte_identical(tmp_path):
    a = run_dir(tmp_path / "a")
    b = run_dir(tmp_path / "b")
    assert (a / "transactions.csv").read_bytes() == (b / "transactions.csv").read_bytes()
    assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


def test_job_count_does_not_change_outputs(tmp_path):
    serial = run_dir(tmp_path / "serial", "--jobs", "1")
    parallel = run_dir(tmp_path / "parallel", "--jobs", "2")
    assert (serial / "transactions.csv").read_bytes() == \
        (parallel / "transactions.csv").read_bytes()


def test_box_run_applies_hard_only_scoring(tmp_path):
    out = tmp_path / "box"
    code = main(["run", "box-arrows", "--agents", "4", "--replications", "1",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    regression = (out / "regression.txt").read_text()
    assert "hard_problems" in regression
    assert "condition[unconstrained]" in regression


def test_zero_agents_is_a_config_error(tmp_path):
    code = main(["run", "fractions", "--agents", "0",
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "nonsense"])
    assert err.value.code == 1


@pytest.mark.parametrize("error", [GenerationError, ProtocolError, InvariantError,
                                   MalformedTutorError],
                         ids=lambda error: error.__name__)
def test_simulation_failures_exit_two(tmp_path, monkeypatch, capsys, error):
    from simtutor import cli

    def explode(config):
        raise error("no item found")

    monkeypatch.setattr(cli, "run_study", explode)
    capsys.readouterr()
    assert main(["run", "fractions", "--agents", "2", "--replications", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "simtutor: failure: no item found\n"


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"agents": 4, "replications": 1, "seed": 5}))
    out = tmp_path / "from_config"
    assert main(["run", "fractions", "--config", str(cfg),
                 "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3  # flag beats file
    assert manifest["config"]["agents"] == 4


def test_rerunning_from_a_manifest_reproduces_outputs(tmp_path):
    first = run_dir(tmp_path / "first")
    again = tmp_path / "again"
    assert main(["run", "fractions", "--config", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    assert (first / "transactions.csv").read_bytes() == \
        (again / "transactions.csv").read_bytes()


def test_report_summarizes_a_fractions_log(tmp_path, capsys):
    out = run_dir(tmp_path)
    assert main(["report", str(out / "transactions.csv")]) == 0
    printed = capsys.readouterr().out
    assert "tutor accuracy by condition" in printed
    assert "blocked" in printed and "interleaved" in printed
    assert "posttest accuracy by condition" in printed


def test_report_rejects_a_truncated_log(tmp_path, capsys):
    out = run_dir(tmp_path)
    log = out / "transactions.csv"
    lines = log.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0]] + [l.rsplit(",", 2)[0] for l in lines[1:5]]))
    assert main(["report", str(bad)]) == 1


@pytest.mark.parametrize("enabled", [True, False])
def test_report_pauses_and_restores_the_collector(tmp_path, capsys, monkeypatch,
                                                  enabled):
    log = run_dir(tmp_path) / "transactions.csv"
    bad = tmp_path / "bad.csv"
    bad.write_bytes(log.read_bytes().replace(b"CORRECT", b"RIGHT", 1))
    read, regressions, seen = cli.read_transactions, cli._regressions, []

    def checked_read(path):
        records = read(path)
        seen.append(gc.isenabled())
        return records

    def checked(box, records):
        seen.append(gc.isenabled())
        return regressions(box, records)

    monkeypatch.setattr(cli, "read_transactions", checked_read)
    monkeypatch.setattr(cli, "_regressions", checked)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["report", str(log)]) == 0
        assert gc.isenabled() is enabled
        assert main(["report", str(bad)]) == 1
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
    assert "unknown outcome 'RIGHT'" in capsys.readouterr().err


def test_run_collapses_the_log_once(tmp_path, monkeypatch):
    # Cells build the log one entry per problem, so nothing collapses rows
    # again, and every summary reads the log that run_study returned.
    entries, run_study, collapsed, read, ran = (experiment._entries, cli.run_study,
                                                [], {}, [])

    def collapsing(records, pairs):
        collapsed.append(entries(records, pairs))
        return collapsed[-1]

    def running(config):
        ran.append(run_study(config))
        return ran[-1]

    def reading(name):
        original = getattr(cli, name)

        def wrapped(records):
            read.setdefault(name, records)
            return original(records)
        return wrapped

    monkeypatch.setattr(experiment, "_entries", collapsing)
    monkeypatch.setattr(cli, "run_study", running)
    for name in ("learning_curve", "fit_logistic", "posttest_effect"):
        monkeypatch.setattr(cli, name, reading(name))
    out = run_dir(tmp_path)
    assert collapsed == [] and len(ran) == 1
    assert all(records is ran[0] for records in read.values())
    assert set(read) == {"learning_curve", "fit_logistic", "posttest_effect"}
    # The outputs are those of the whole log.
    monkeypatch.undo()
    records = read_transactions(out / "transactions.csv")
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(curve_rows(learning_curve(records)))
    assert (out / "curves.csv").read_bytes() == buf.getvalue().encode()
    expected = []
    for model, fit in (("tutor", fit_logistic), ("posttest", posttest_effect)):
        try:
            expected.append(f"== {model} ==\n{fit(records).table()}\n")
        except (DesignError, SeparationError) as exc:
            expected.append(f"== {model} ==\nnot estimable: {exc}\n")
    assert (out / "regression.txt").read_text() == "\n".join(expected)


def test_run_builds_each_phase_once(tmp_path, outcome_builds):
    # The curve and the tutor model share one build of the log run_study gave.
    run_dir(tmp_path)
    assert [phase for phase, _log in outcome_builds] == ["tutor", "posttest"]
    assert outcome_builds[0][1] is outcome_builds[1][1]


def test_report_builds_each_phase_once(tmp_path, monkeypatch, capsys, outcome_builds):
    log = run_dir(tmp_path) / "transactions.csv"
    del outcome_builds[:]
    read, original = [], cli.read_transactions
    monkeypatch.setattr(cli, "read_transactions",
                        lambda path: read.append(original(path)) or read[-1])
    assert main(["report", str(log)]) == 0
    assert [phase for phase, _log in outcome_builds] == ["tutor", "posttest"]
    assert all(built is read[0] for _phase, built in outcome_builds)
    # A later curve of the same log, as a caller writing curves.csv makes it,
    # builds nothing.
    learning_curve(read[0])
    assert len(outcome_builds) == 2


# The report of a 4-agent box run at seed 2, as every summary gave it when
# each collapsed and filtered the log for itself.
BOX_REPORT = f"""\
log: <log> (367 rows)
hard-problem accuracy by condition:
  constrained     0.219
  unconstrained   0.031

hard_problems regression:
term                      OR [95% CI]            p
Intercept                 0.14 [0.02, 0.76]     0.0229*
condition[unconstrained]  0.11 [0.01, 0.98]     0.0480*
count                     1.09 [0.92, 1.30]     0.3119{' '}
n = 64, logLik = -20.73, Tjur R2 = 0.110
"""


def test_box_report_collapses_the_hard_log_once(tmp_path, capsys, outcome_builds):
    out = tmp_path / "box"
    assert main(["run", "box-arrows", "--agents", "4", "--replications", "1",
                 "--seed", "2", "--out", str(out)]) == 0
    del outcome_builds[:]
    capsys.readouterr()
    log = out / "transactions.csv"
    assert main(["report", str(log)]) == 0
    assert capsys.readouterr().out.replace(str(log), "<log>") == BOX_REPORT
    # The accuracy table and the model read one build of one filtered log.
    assert [phase for phase, _log in outcome_builds] == ["tutor"]
    assert {entry[5] for entry in outcome_builds[0][1].entries} == {"box_hard"}


def test_env_var_sets_the_default_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMTUTOR_OUT", str(tmp_path / "root"))
    assert main(["run", "fractions", "--agents", "2", "--replications", "1",
                 "--seed", "4"]) == 0
    out = tmp_path / "root" / "fractions_seed4"
    assert (out / "manifest.json").exists()
    assert len(list(out.glob("manifest.json"))) == 1


def test_gen_problems_emits_json_lines(capsys):
    assert main(["gen-problems", "fractions", "--type", "add_diff",
                 "-n", "3", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        raw = json.loads(line)
        assert raw["type"] == "add_diff"
        assert raw["givens"]["den1"] != raw["givens"]["den2"]


def test_gen_problems_box_constraint(capsys):
    assert main(["gen-problems", "box-arrows", "--type", "box_hard",
                 "-n", "2", "--seed", "4", "--constraint", "unconstrained"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(l)["type"] == "box_hard" for l in lines)
    assert all("unconstrained" in json.loads(l)["tags"] for l in lines)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_problems_rejects_a_count_below_one(capsys, count):
    assert main(["gen-problems", "fractions", "--type", "add_diff",
                 "-n", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"simtutor: config error: --count must be at least 1, not {count}"]


@pytest.mark.parametrize("argv, message", [
    (["report", "LOG"], "empty transaction log"),
    (["gen-problems", "box-arrows", "--type", "box_medium"],
     "unknown box problem type 'box_medium'"),
], ids=["header-only-log", "unknown-box-type"])
def test_an_empty_log_or_unknown_box_type_exits_one_in_one_line(tmp_path, capsys,
                                                                 argv, message):
    log = tmp_path / "transactions.csv"
    _write_log(log, [])
    capsys.readouterr()
    assert main([str(log) if arg == "LOG" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"simtutor: config error: {message}"]


# Number tokens that int() accepts but as_row never writes.
_NON_CANONICAL = {"plus-sign": "+3", "underscore": "1_0", "leading-space": " 3",
                  "arabic-indic-digit": "\u0663", "leading-zero": "03"}


@pytest.mark.parametrize("column, token", [
    (1, "first"), (8, "MAYBE"), (9, "yes"),
    *[(column, token) for column in (1, 6) for token in _NON_CANONICAL.values()],
], ids=["replication", "outcome", "problem_correct",
        *[f"{name}-{kind}" for name in ("replication", "opportunity")
          for kind in _NON_CANONICAL]])
def test_report_rejects_non_integer_numbers_in_one_line(tmp_path, capsys,
                                                        column, token):
    out = run_dir(tmp_path)
    lines = (out / "transactions.csv").read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = token
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], lines[1], ",".join(fields)]) + "\n")
    capsys.readouterr()
    assert main(["report", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "malformed transaction row 3:" in err and f"'{token}'" in err


@pytest.mark.parametrize("content, message", [
    (["agents"], "must be a JSON object"),
    ([1, 2], "must be a JSON object"),
    ({"config": "fractions"}, "must be a JSON object"),
    ({"agents": "two"}, "must be an integer"),
    ({"agents": 2.0}, "must be an integer"),
    ({"seed": True}, "must be an integer"),
    ({"agent": 2}, "unknown config key 'agent'"),
    ({"config": {"study": "box-arrows", "agents": 2}}, "is for study 'box-arrows'"),
], ids=["list-of-strings", "list-of-numbers", "manifest-config-not-object",
        "string-value", "float-value", "bool-value", "unknown-key", "other-study"])
def test_bad_config_files_exit_one_in_one_line(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    capsys.readouterr()
    assert main(["run", "fractions", "--config", str(cfg), "--replications", "1",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "x").exists()


def test_a_deeply_nested_config_file_exits_one_in_one_line(tmp_path, capsys):
    # json.load gives up on the nesting with RecursionError, not ValueError.
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main(["run", "fractions", "--config", str(cfg), "--replications", "1",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("simtutor: config error: cannot read config ")
    assert not (tmp_path / "x").exists()


def test_each_cli_study_name_is_a_study_with_conditions():
    """The CLI's study names and ``CONDITIONS`` name the same studies, so
    ``report`` can tell every study's log by its conditions."""
    studies = {name: factory().study for name, factory in cli.STUDY_CONFIGS.items()}
    assert set(studies.values()) == set(experiment.CONDITIONS)
    assert all(name == study.replace("_", "-") for name, study in studies.items())


def _write_log(path, rows):
    write_transactions(path, [TrialRecord("a000", 0, condition, "tutor", problem_id,
                                          problem_type, 0, step, outcome, False)
                              for condition, problem_id, problem_type, step, outcome
                              in rows])


@pytest.mark.parametrize("rows, empty_model", [
    ([("blocked", "p0", "add_same", "answer_num", "HINT"),
      ("blocked", "p0", "add_same", "answer_den", "CORRECT"),
      ("blocked", "p0", "add_same", "done", "CORRECT")], "posttest"),
    ([("constrained", "p0", "box_easy", "r2_a", "HINT"),
      ("unconstrained", "p1", "box_easy", "r2_a", "ERROR")], "hard_problems"),
    ([("blocked", "p0", "box_easy", "answer_num", "HINT")], "posttest"),
], ids=["fractions-without-posttest", "box-without-hard-items",
        "fractions-condition-with-a-box-type"])
def test_report_on_a_log_with_an_empty_phase_is_not_estimable(tmp_path, capsys,
                                                              rows, empty_model):
    log = tmp_path / "transactions.csv"
    _write_log(log, rows)
    capsys.readouterr()
    assert main(["report", str(log)]) == 0
    printed = capsys.readouterr().out
    assert (f"{empty_model} regression:\n"
            "not estimable: no problem outcomes to fit") in printed


def _unconverged_fit(records):
    """A fit that stops at MAX_ITER short of the separation bound: design rows
    (x, b, y, count) whose coefficients drift near 14 with SEs near 10**5."""
    cells = [(1, 0, 1, 1), (2, 0, 1, 2), (0, 1, 0, 5), (2, 0, 1, 1),
             (2, 1, 1, 2), (2, 0, 1, 5), (0, 1, 1, 6), (0, 1, 1, 3)]
    fit = fit_logit([(1, x, b) for x, b, _y, _n in cells], [y for *_, y, _n in cells],
                    ["Intercept", "x", "b"], weights=[n for *_, n in cells])
    assert not fit.converged and fit.n_iterations == MAX_ITER
    return fit


def test_a_fit_that_does_not_converge_is_not_estimable(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "fit_logistic", _unconverged_fit)
    out = run_dir(tmp_path)
    message = f"not estimable: no convergence in {MAX_ITER} iterations"
    regression = (out / "regression.txt").read_text()
    assert regression.startswith(f"== tutor ==\n{message}\n\n== posttest ==\n")
    assert not any(line.startswith("tutor,")
                   for line in (out / "regression.csv").read_text().splitlines())
    capsys.readouterr()
    assert main(["report", str(out / "transactions.csv")]) == 0
    assert f"\ntutor regression:\n{message}\n" in capsys.readouterr().out


def _bad_input(tmp_path, case):
    """(argv, expected message) for a command whose input is undecodable or
    has an over-long field."""
    if case == "config-not-utf8":
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"agents": "\xff"}')
        return (["run", "fractions", "--config", str(cfg), "--out",
                 str(tmp_path / "x")], "cannot read config")
    log = tmp_path / "transactions.csv"
    _write_log(log, [("blocked", f"p{i}", "add_same", "done", "CORRECT")
                     for i in range(2100)])
    lines = log.read_bytes().split(b"\r\n")
    if case == "header-not-utf8":
        lines[0] = lines[0].replace(b"agent_id", b"agent\xffid")
        message = "unexpected transaction header"
    elif case == "row-not-utf8":
        # Far enough in that decoding runs a chunk ahead of the csv reader.
        lines[2001] = lines[2001].replace(b",p2000,", b",p\xff2000,")
        message = "malformed transaction row 2002: "
    else:
        lines[5] = lines[5].replace(b",p4,", b",p" + b"4" * 140_000 + b",")
        message = "malformed transaction row 6: field larger than field limit"
    log.write_bytes(b"\r\n".join(lines))
    return ["report", str(log)], message


@pytest.mark.parametrize("case", ["header-not-utf8", "row-not-utf8",
                                  "over-long-field", "config-not-utf8"])
def test_undecodable_or_over_long_input_exits_one_in_one_line(tmp_path, capsys,
                                                               case):
    argv, message = _bad_input(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("simtutor: config error: ") and message in err
