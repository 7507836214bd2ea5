"""Learning curves and the logistic regression engine."""
from __future__ import annotations

import math
import pickle
import random
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simtutor import analytics
from simtutor.analytics import (
    DesignError,
    RegressionSummary,
    SeparationError,
    TermEstimate,
    accuracy_by_condition,
    build_design,
    curve_rows,
    fit_logistic,
    fit_logit,
    hard_problem_effect,
    learning_curve,
    log_likelihood,
    posttest_effect,
    problem_outcomes,
    score,
)
from simtutor.experiment import (
    TransactionLog,
    TrialRecord,
    box_arrows_config,
    filter_hard,
    fractions_config,
    run_agent,
    run_study,
)
from simtutor.state import ConfigError

from _oracles import (
    first_rows,
    reference_fit,
    reference_problem_outcomes,
    row_design_cells,
    row_filter_hard,
    row_outcome_cells,
)


def record(agent, problem, correct, *, ptype="add_same", condition="blocked",
           phase="tutor", opportunity=0, outcome=None, rep=0):
    return TrialRecord(
        agent_id=agent, replication=rep, condition=condition, phase=phase,
        problem_id=problem, problem_type=ptype, opportunity=opportunity,
        step_id="answer_num",
        outcome=outcome or ("CORRECT" if correct else "ERROR"),
        problem_correct=correct)


# -- learning curves -----------------------------------------------------------

def test_all_correct_log_gives_zero_error_everywhere():
    rows = [record(f"a{i}", f"p{j}", True) for i in range(3) for j in range(4)]
    for point in learning_curve(rows):
        assert point.mean_error == 0.0
        assert point.n == 3


def test_hand_built_three_agent_curve():
    # Position 1: agents correct, correct, wrong -> error 1/3.
    # Position 2: correct, wrong, wrong -> error 2/3.
    rows = []
    outcomes = {("a0", "p0"): True, ("a1", "p0"): True, ("a2", "p0"): False,
                ("a0", "p1"): True, ("a1", "p1"): False, ("a2", "p1"): False}
    for (agent, problem), correct in outcomes.items():
        rows.append(record(agent, problem, correct))
    points = {p.position: p for p in learning_curve(rows)}
    assert points[1].mean_error == pytest.approx(1 / 3)
    assert points[2].mean_error == pytest.approx(2 / 3)
    # 95% normal interval computed by hand: p +- 1.96 * sqrt(p(1-p)/3)
    se = math.sqrt((1 / 3) * (2 / 3) / 3)
    assert points[1].ci_low == pytest.approx(max(0.0, 1 / 3 - 1.959963984540054 * se))
    assert points[1].ci_high == pytest.approx(1 / 3 + 1.959963984540054 * se)


def test_curve_is_invariant_to_agent_interleaving():
    # Positions come from each agent's own problem order; interleaving the
    # agents' streams (as parallel execution would) must not move any point.
    rng = random.Random(0)
    rows = [record(f"a{i}", f"p{j}", rng.random() < 0.5)
            for i in range(5) for j in range(6)]
    base = learning_curve(rows)
    for _ in range(5):
        streams = {}
        for r in rows:
            streams.setdefault(r.agent_id, []).append(r)
        interleaved = []
        pending = {a: list(rs) for a, rs in streams.items()}
        while pending:
            agent = rng.choice(sorted(pending))
            interleaved.append(pending[agent].pop(0))
            if not pending[agent]:
                del pending[agent]
        assert learning_curve(interleaved) == base


def test_curve_counts_every_agent_at_every_position():
    rows = [record(f"a{i}", f"p{j}", True, condition="interleaved")
            for i in range(7) for j in range(3)]
    assert all(p.n == 7 for p in learning_curve(rows))


def test_curve_requires_rows_for_the_phase():
    with pytest.raises(ConfigError, match="no 'tutor' rows"):
        learning_curve([record("a0", "p0", True, phase="posttest")])


def test_curve_csv_rows_have_the_documented_header():
    rows = [record("a0", "p0", True)]
    header = next(iter(curve_rows(learning_curve(rows))))
    assert header == ("condition", "position", "mean_error", "ci_low", "ci_high", "n")


# Few agents, problems and phases, so keys repeat, problems interleave and
# phases mix within one list.
_colliding_records = st.builds(
    TrialRecord, agent_id=st.sampled_from(("a0", "a1")),
    replication=st.integers(0, 1), condition=st.sampled_from(("blocked", "interleaved")),
    phase=st.sampled_from(("tutor", "posttest")),
    problem_id=st.sampled_from(("p0", "p1", "p2")),
    problem_type=st.sampled_from(("add_same", "multiply")),
    opportunity=st.integers(0, 3), step_id=st.sampled_from(("answer_num", "done")),
    outcome=st.sampled_from(("CORRECT", "ERROR", "HINT")),
    problem_correct=st.booleans())


def _cells(problems):
    """The outcome cells of per-problem reference tuples."""
    return Counter(problem[2:] for problem in problems)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_colliding_records, max_size=30))
def test_problem_outcomes_match_the_reference(rows):
    for phase in ("tutor", "posttest"):
        assert problem_outcomes(rows, phase) == \
            _cells(reference_problem_outcomes(rows, phase))


def test_non_contiguous_problem_rows_collapse_to_the_first():
    # p0's rows resume after p1's: p0 keeps position 1 and its first row.
    rows = [record("a0", "p0", False), record("a0", "p0", False),
            record("a0", "p1", True, ptype="multiply"),
            record("a0", "p0", True, opportunity=5)]
    assert problem_outcomes(rows) == Counter({("blocked", "add_same", 0, 1, False): 1,
                                              ("blocked", "multiply", 0, 2, True): 1})


def _drawn_row(rep, agent, problem, phase, ptype, correct, opportunity):
    return record(agent, problem, correct, ptype=ptype, phase=phase,
                  opportunity=opportunity, rep=rep)


# Few values per field, so ids recur across agents, phases and types.
_log_rows = st.lists(st.builds(
    _drawn_row, st.integers(0, 1), st.sampled_from(("a0", "a1")),
    st.sampled_from(("p0", "p1", "p2")), st.sampled_from(("tutor", "posttest")),
    st.sampled_from(("add_same", "box_easy", "box_hard")), st.booleans(),
    st.integers(0, 3)), max_size=30)


def _problem_key(r):
    return (r.replication, r.agent_id, r.problem_id, r.phase, r.problem_type)


@settings(max_examples=300, deadline=None)
@given(rows=_log_rows, grouped=st.booleans())
@example(rows=[  # non-contiguous p0; p1 under two agents; p2 in both phases,
    # and with two types in its tutor rows
    _drawn_row(0, "a0", "p0", "tutor", "box_hard", False, 0),
    _drawn_row(0, "a0", "p1", "tutor", "box_easy", True, 0),
    _drawn_row(0, "a0", "p0", "tutor", "box_hard", True, 3),
    _drawn_row(0, "a1", "p1", "tutor", "box_easy", False, 1),
    _drawn_row(0, "a1", "p2", "posttest", "add_same", True, 0),
    _drawn_row(0, "a1", "p2", "tutor", "box_easy", False, 2),
    _drawn_row(0, "a1", "p2", "tutor", "box_hard", True, 2),
    _drawn_row(0, "a1", "p2", "tutor", "box_easy", True, 0)], grouped=False)
@example(rows=[  # contiguous problems with distinct ids, as in a study log
    _drawn_row(0, "a0", "p0", "tutor", "box_hard", False, 0),
    _drawn_row(0, "a0", "p0", "tutor", "box_hard", False, 0),
    _drawn_row(0, "a0", "p1", "posttest", "box_easy", True, 1),
    _drawn_row(1, "a1", "p2", "tutor", "add_same", True, 0),
    _drawn_row(1, "a1", "p2", "tutor", "add_same", True, 0)], grouped=False)
def test_first_rows_give_every_summary_the_whole_log(rows, grouped):
    if grouped:  # each problem's rows in one run
        rows = sorted(rows, key=_problem_key)
    first = first_rows(rows)
    keys = [_problem_key(r) for r in first]
    assert len(set(keys)) == len(keys) == len({_problem_key(r) for r in rows})
    # The first row of each key, in log order, as the same objects.
    firsts = {}
    for r in rows:
        firsts.setdefault(_problem_key(r), r)
    assert [id(r) for r in first] == [id(r) for r in firsts.values()]
    for phase in ("tutor", "posttest"):
        assert problem_outcomes(first, phase) == problem_outcomes(rows, phase) == \
            _cells(reference_problem_outcomes(rows, phase))
        assert problem_outcomes(filter_hard(first), phase) == \
            problem_outcomes(filter_hard(rows), phase)
    assert {r.problem_type for r in first} == {r.problem_type for r in rows}


# -- the outcome memo ------------------------------------------------------------

def _two_phase_rows():
    # a0 and a1 alternate, so a0's problem ids are fetched back after a1's.
    return [record("a0", "p0", True),
            record("a1", "p0", False, condition="interleaved"),
            record("a0", "p1", False), record("a0", "p0", False),
            record("a0", "q0", True, phase="posttest"),
            record("a1", "q0", False, phase="posttest", condition="interleaved")]


def test_outcomes_are_built_once_per_log_and_phase(outcome_builds):
    log = TransactionLog.of(_two_phase_rows())
    learning_curve(log)
    accuracy_by_condition(log)
    accuracy_by_condition(log, "posttest")
    fit_logistic(log, terms=())
    assert [phase for phase, _log in outcome_builds] == ["tutor", "posttest"]
    assert all(built is log for _phase, built in outcome_builds)
    assert log.outcomes == {
        "tutor": Counter({("blocked", "add_same", 0, 1, True): 1,
                          ("interleaved", "add_same", 0, 1, False): 1,
                          ("blocked", "add_same", 0, 2, False): 1}),
        "posttest": Counter({("blocked", "add_same", 0, 1, True): 1,
                             ("interleaved", "add_same", 0, 1, False): 1})}
    # A plain list of rows becomes a new log, and is counted anew, each call.
    rows = _two_phase_rows()
    accuracy_by_condition(rows)
    accuracy_by_condition(rows)
    assert [phase for phase, _log in outcome_builds[2:]] == ["tutor", "tutor"]
    assert outcome_builds[2][1] is not outcome_builds[3][1]


def test_each_call_returns_a_new_counter():
    log = TransactionLog.of(_two_phase_rows())
    accuracy = accuracy_by_condition(log)  # fills the memo
    first = problem_outcomes(log)
    assert first == log.outcomes["tutor"] and first is not log.outcomes["tutor"]
    expected = Counter(first)
    first.clear()
    second = problem_outcomes(log)
    assert second == expected and second is not first
    assert problem_outcomes(log) is not second
    assert accuracy_by_condition(log) == accuracy


def test_the_memo_never_crosses_a_pickle():
    log = TransactionLog.of(_two_phase_rows())
    blob = pickle.dumps(log)
    tutor = accuracy_by_condition(log, "tutor")
    assert log.outcomes and pickle.dumps(log) == blob
    copy = pickle.loads(blob)
    assert copy.outcomes == {} and copy.entries == log.entries
    assert len(copy) == len(log)
    assert accuracy_by_condition(copy, "tutor") == tutor
    # A cell's log after a summary still pickles as its plain entries alone.
    cell = run_agent(box_arrows_config(n_agents=2, replications=1, seed=3), 0, 1)
    blob = pickle.dumps(cell)
    assert learning_curve(cell) and cell.outcomes
    assert pickle.dumps(cell) == blob
    assert b"TrialRecord" not in blob


def test_filter_hard_returns_a_log_of_hard_problems_as_it_is():
    rows = [record("a0", "p0", True, ptype="box_hard"),
            record("a0", "p1", False, ptype="box_easy")]
    log = TransactionLog.of(rows)
    hard = filter_hard(log)
    assert hard is not log and hard == rows[:1]
    assert filter_hard(hard) is hard
    empty = TransactionLog([])
    assert filter_hard(empty) is empty


# -- regression engine -----------------------------------------------------------

def _synthetic(n, beta, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x])
    p = 1.0 / (1.0 + np.exp(-(X @ np.asarray(beta))))
    y = (rng.random(n) < p).astype(float)
    return X, y


def test_recovers_known_coefficients_on_synthetic_data():
    X, y = _synthetic(50_000, (-1.0, 0.5), seed=1)
    fit = fit_logit(X, y, ["Intercept", "x"])
    assert fit.terms["Intercept"].coef == pytest.approx(-1.0, abs=0.05)
    assert fit.terms["x"].coef == pytest.approx(0.5, abs=0.05)
    assert fit.converged


def test_mle_agrees_with_a_coarse_grid_search():
    X, y = _synthetic(4_000, (-1.0, 0.5), seed=2)
    fit = fit_logit(X, y, ["Intercept", "x"])
    grid = [(b0, b1)
            for b0 in np.arange(-2.0, 0.01, 0.05)
            for b1 in np.arange(-0.5, 1.51, 0.05)]
    best = max(grid, key=lambda b: log_likelihood(X, y, np.asarray(b)))
    assert fit.terms["Intercept"].coef == pytest.approx(best[0], abs=0.05)
    assert fit.terms["x"].coef == pytest.approx(best[1], abs=0.05)


def test_gradient_vanishes_at_the_solution():
    X, y = _synthetic(5_000, (0.3, -0.7), seed=3)
    fit = fit_logit(X, y, ["Intercept", "x"])
    beta = np.array([fit.terms["Intercept"].coef, fit.terms["x"].coef])
    assert np.max(np.abs(score(X, y, beta))) < 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4), per_p=st.integers(3, 15),
       copies=st.integers(2, 5))
def test_gradient_vanishes_on_random_non_separable_designs(seed, p, per_p, copies):
    rng = np.random.default_rng(seed)
    n = p * per_p
    base = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    assume(np.linalg.cond(base) < 30)  # full rank, and not nearly singular
    beta_true = rng.normal(scale=1.5, size=p)
    p_true = 1.0 / (1.0 + np.exp(-(base @ beta_true)))
    # Each design row appears once failed and once solved, so no hyperplane
    # separates the outcomes; the other copies follow a logistic model.
    drawn = [(rng.random(n) < p_true).astype(float) for _ in range(copies - 2)]
    X = np.vstack([base] * copies)
    y = np.concatenate([np.zeros(n), np.ones(n), *drawn])
    fit = fit_logit(X, y, [f"x{j}" for j in range(p)])
    beta = np.array([est.coef for est in fit.terms.values()])
    assert fit.converged
    assert np.max(np.abs(score(X, y, beta))) < 1e-6


def test_analytic_gradient_matches_central_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, p = 40, 3
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = (rng.random(n) < 0.5).astype(float)
        beta = rng.normal(scale=0.5, size=p)
        g = score(X, y, beta)
        h = 1e-6
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd = (log_likelihood(X, y, beta + e) - log_likelihood(X, y, beta - e)) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(g[j] - fd) / denom < 1e-6


def test_log_likelihood_is_monotone_across_iterations():
    X, y = _synthetic(2_000, (0.2, 1.2), seed=5)
    fit = fit_logit(X, y, ["Intercept", "x"])
    diffs = np.diff(fit.ll_history)
    assert np.all(diffs >= -1e-9)


def test_a_step_that_lowers_the_likelihood_is_halved(monkeypatch):
    # Two full Newton steps on this design lower the log-likelihood, and each
    # is halved once: one evaluation at the start, one per iteration and one
    # per halving.
    X = [[1, 0, -3, 15], [1, 1, -15, -1], [1, -3, -1, -15], [1, 40, 2, 60],
         [1, 40, -15, -1], [1, 15, -2, -5], [1, 20, -40, -1]]
    calls, log_likelihood = [], analytics.log_likelihood

    def counted(*args):
        calls.append(args)
        return log_likelihood(*args)
    monkeypatch.setattr(analytics, "log_likelihood", counted)
    fit = fit_logit(X, [0, 1, 0, 0, 1, 0, 0], ["Intercept", "a", "b", "c"],
                    weights=[500, 500, 5, 2, 2, 2, 500])
    assert fit.converged and fit.n_iterations == 10
    assert len(calls) == 1 + fit.n_iterations + 2
    # Never lower than the step acceptance's rounding tolerance allows.
    assert np.all(np.diff(fit.ll_history) >= -1e-12)


def test_identical_outcomes_raise_a_separation_error():
    X = np.column_stack([np.ones(200), np.linspace(-1, 1, 200)])
    y = np.ones(200)
    with pytest.raises(SeparationError) as err:
        fit_logit(X, y, ["Intercept", "x"])
    assert "Intercept" in str(err.value)


def test_perfectly_separated_covariate_names_the_term():
    x = np.linspace(-1, 1, 200)
    X = np.column_stack([np.ones(200), x])
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError) as err:
        fit_logit(X, y, ["Intercept", "x"])
    assert "x" in str(err.value)


def test_duplicate_columns_raise_a_design_error():
    x = np.linspace(-1, 1, 100)
    X = np.column_stack([np.ones(100), x, x])
    y = (x > 0).astype(float)
    with pytest.raises(DesignError):
        fit_logit(X, y, ["Intercept", "x", "x2"])


def test_odds_ratio_is_exp_coef_with_wald_interval():
    X, y = _synthetic(3_000, (0.4, -0.6), seed=6)
    fit = fit_logit(X, y, ["Intercept", "x"])
    est = fit.terms["x"]
    assert est.odds_ratio == pytest.approx(math.exp(est.coef))
    assert est.ci_low == pytest.approx(math.exp(est.coef - 1.959963984540054 * est.se))
    assert est.ci_high == pytest.approx(math.exp(est.coef + 1.959963984540054 * est.se))


def _outcome(fit, *args, **kwargs):
    """The fit's summary, or the (type, message) of the error it raised."""
    try:
        return fit(*args, **kwargs)
    except (DesignError, SeparationError) as exc:
        return type(exc), str(exc)


def _assert_same_fit(fit, ref):
    if isinstance(ref, tuple):
        assert fit == ref
        return
    assert list(fit.terms) == list(ref.terms)
    # A fit stopped at MAX_ITER drifts along a direction where the likelihood
    # is flat, so only its likelihood, not its coefficients, is determined.
    for key in ("coef", "se") if ref.converged else ():
        np.testing.assert_allclose([getattr(t, key) for t in fit.terms.values()],
                                   [getattr(t, key) for t in ref.terms.values()],
                                   rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(fit.ll_history, ref.ll_history, rtol=1e-9, atol=1e-9)
    assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-9, abs=1e-9)
    assert fit.tjur_r2 == pytest.approx(ref.tjur_r2, rel=1e-9, abs=1e-9, nan_ok=True)
    assert (fit.n_observations, fit.converged, fit.n_iterations) == \
        (ref.n_observations, ref.converged, ref.n_iterations)
    assert type(fit.n_observations) is int


# A design of small categorical columns, with a count and an outcome per row.
_counted_rows = st.lists(st.tuples(st.integers(0, 2), st.booleans(), st.booleans(),
                                   st.integers(1, 6)), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(rows=_counted_rows)
@example(rows=[(x, b, y, c) for x in range(3) for b in (False, True)
               for y, c in ((False, 3), (True, 1 + x))])
@example(rows=[  # separated: x and b diverge together, 1e-5 apart
    (1, False, True, 1), (2, True, True, 1), (0, True, False, 3), (0, True, True, 1)])
@example(rows=[  # stops at MAX_ITER, with upper CI bounds past the float range
    (1, False, True, 1), (2, False, True, 2), (0, True, False, 5), (2, False, True, 1),
    (2, True, True, 2), (2, False, True, 5), (0, True, True, 6), (0, True, True, 3)])
def test_weighted_fit_equals_the_fit_on_repeated_rows(rows):
    X = np.array([(1.0, x, float(b)) for x, b, _y, _c in rows])
    y = np.array([float(y) for _x, _b, y, _c in rows])
    counts = np.array([c for *_row, c in rows])
    names = ["Intercept", "x", "b"]
    _assert_same_fit(
        _outcome(fit_logit, X, y, names, weights=counts),
        _outcome(fit_logit, np.repeat(X, counts, axis=0), np.repeat(y, counts), names))


def test_weighted_score_vanishes_at_the_weighted_solution():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(12), np.repeat([0.0, 1.0, 2.0], 4),
                         np.tile([0.0, 1.0], 6)])
    y = np.tile([0.0, 0.0, 1.0, 1.0], 3)
    counts = rng.integers(1, 20, size=12)
    fit = fit_logit(X, y, ["Intercept", "x", "b"], weights=counts)
    beta = np.array([est.coef for est in fit.terms.values()])
    assert fit.converged and fit.n_observations == counts.sum()
    assert np.max(np.abs(score(X, y, beta, counts))) < 1e-6
    np.testing.assert_allclose(
        score(X, y, beta, counts),
        score(np.repeat(X, counts, axis=0), np.repeat(y, counts), beta), atol=1e-9)
    assert log_likelihood(X, y, beta, counts) == pytest.approx(
        log_likelihood(np.repeat(X, counts, axis=0), np.repeat(y, counts), beta))


def test_an_interval_past_the_float_range_has_an_infinite_bound():
    # Nearly separated: x and b stay under the bound, with SEs above 1e5.
    X = np.repeat([[1.0, 0, 0], [1, 2, 1], [1, 2, 0], [1, 1, 1], [1, 0, 0]],
                  [12, 4, 5, 1, 1], axis=0)
    y = np.zeros(len(X))
    y[-1] = 1.0
    fit = fit_logit(X, y, ["Intercept", "x", "b"])
    assert fit.terms["x"].ci_high == math.inf
    assert fit.terms["x"].ci_low == 0.0
    assert "[0.00, inf]" in fit.table()


def test_weights_of_one_change_no_bit_of_the_fit():
    X, y = _synthetic(3_000, (0.4, -0.6), seed=7)
    assert fit_logit(X, y, ["Intercept", "x"], weights=np.ones(3_000, dtype=int)) == \
        fit_logit(X, y, ["Intercept", "x"])


@pytest.mark.parametrize("weights", [[1, 2], [1, 0, 2], [1.0, 1.0, 2.0], [1, -1, 2]])
def test_weights_must_be_a_positive_integer_count_per_row(weights):
    X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="integer count"):
        fit_logit(X, np.array([0.0, 1.0, 0.0]), ["Intercept", "x"], weights=weights)


def test_a_tie_between_diverging_terms_names_the_first_in_design_order():
    # Posttest outcomes that condition and type separate symmetrically: both
    # coefficients diverge at the same rate, equal to about 12 digits.
    records = run_study(fractions_config(n_agents=6, replications=1, seed=1))
    message = "separation detected on term 'condition[interleaved]'"
    with pytest.raises(SeparationError, match=re.escape(message)):
        posttest_effect(records)
    with pytest.raises(SeparationError, match=re.escape(message)):
        reference_fit(records, "posttest", ("condition", "type"))
    # The same holds whatever order the design rows come in.
    X, y, names = build_design(row_design_cells(records, "posttest"),
                               ("condition", "type"))
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(y))
        with pytest.raises(SeparationError, match=re.escape(message)):
            fit_logit(X[order], y[order], names)


def _summary(**cis):
    terms = {name: TermEstimate(coef=0.0, se=1.0, odds_ratio=ci[0], ci_low=ci[1],
                                ci_high=ci[2], p_value=ci[3])
             for name, ci in cis.items()}
    return RegressionSummary(terms=terms, log_likelihood=-1.0, n_observations=10,
                             tjur_r2=0.5, converged=True, n_iterations=3)


def test_table_keeps_its_layout_when_every_interval_fits():
    assert _summary(Intercept=(0.77, 0.21, 2.77, 0.6845),
                    count=(2.09, 0.42, 10.41, 0.0012)).table() == (
        "term       OR [95% CI]            p\n"
        "Intercept  0.77 [0.21, 2.77]     0.6845 \n"
        "count      2.09 [0.42, 10.41]    0.0012*\n"
        "n = 10, logLik = -1.00, Tjur R2 = 0.500")


def test_table_keeps_a_space_before_the_p_column():
    lines = _summary(Intercept=(0.77, 0.21, 2.77, 0.6845),
                     count=(598.08, 371.54, 962.75, 0.0)).table().splitlines()
    assert lines[2] == "count      598.08 [371.54, 962.75] 0.0000*"
    assert lines[1] == "Intercept  0.77 [0.21, 2.77]       0.6845 "
    # The header's p moves with the column, one place right as before.
    assert lines[0].index("p") == lines[2].index("0.0000") + 1


# -- log-level model builders ------------------------------------------------------

def _balanced_null_log(seed=0):
    rng = random.Random(seed)
    rows = []
    for i in range(300):
        condition = "blocked" if i % 2 == 0 else "interleaved"
        for j, ptype in enumerate(("add_same", "add_diff", "multiply")):
            rows.append(record(f"a{i}", f"p{j}", rng.random() < 0.5,
                               condition=condition, ptype=ptype,
                               phase="posttest", opportunity=j))
    return rows


def test_null_effect_interval_covers_one():
    fit = posttest_effect(_balanced_null_log())
    est = fit.terms["condition[interleaved]"]
    assert est.ci_low < 1.0 < est.ci_high


def test_design_reference_levels():
    rows = _balanced_null_log()
    cells = row_design_cells(rows, "posttest")
    X, y, names = build_design(cells, ("condition", "type", "count", "type:count"))
    assert names == ["Intercept", "condition[interleaved]", "type[add_same]",
                     "type[multiply]", "count", "type[add_same]:count",
                     "type[multiply]:count"]
    assert X.shape == (900, 7)


def test_posttest_effect_excludes_count():
    fit = posttest_effect(_balanced_null_log())
    assert "count" not in fit.terms
    assert "type[add_same]" in fit.terms


def test_fit_logistic_counts_problems_not_steps():
    rows = []
    for i in range(40):
        correct = i % 2 == 0
        condition = "blocked" if i % 4 < 2 else "interleaved"
        for _step in range(3):  # three step rows for one problem
            rows.append(record(f"a{i}", "p0", correct, condition=condition))
    fit = fit_logistic(rows, terms=("condition",))
    assert fit.n_observations == 40


def test_hard_problem_effect_uses_condition_and_count():
    rng = random.Random(1)
    rows = []
    for i in range(120):
        condition = "constrained" if i % 2 == 0 else "unconstrained"
        rate = 0.35 if condition == "constrained" else 0.12
        for j in range(8):
            rows.append(record(f"a{i}", f"p{j}", rng.random() < rate,
                               condition=condition, ptype="box_hard",
                               opportunity=j))
            rows.append(record(f"a{i}", f"e{j}", True, condition=condition,
                               ptype="box_easy", opportunity=j))
    fit = hard_problem_effect(rows)
    assert set(fit.terms) == {"Intercept", "condition[unconstrained]", "count"}
    assert fit.n_observations == 120 * 8
    assert fit.terms["condition[unconstrained]"].odds_ratio < 1.0


# Few values per field, so design cells repeat; small logs are often
# separated or rank deficient, and the models must fail alike then too.
_categorical_logs = st.lists(st.builds(
    record, st.sampled_from([f"a{i}" for i in range(6)]),
    st.sampled_from([f"p{j}" for j in range(6)]), st.booleans(),
    ptype=st.sampled_from(("add_diff", "multiply", "box_hard")),
    condition=st.sampled_from(("blocked", "interleaved")),
    phase=st.sampled_from(("tutor", "posttest")), opportunity=st.integers(0, 2),
    rep=st.integers(0, 1)), max_size=80)


def _mixed_log(seed=0):
    rng = random.Random(seed)
    return [record(f"a{i}", f"p{j}", rng.random() < 0.3 + 0.1 * (i % 2) + 0.1 * j,
                   ptype=ptype, condition=("blocked", "interleaved")[i % 2],
                   phase=phase, opportunity=(i // 2 + j) % 3)
            for i in range(40) for j, ptype in enumerate(("add_diff", "multiply",
                                                         "box_hard", "add_diff"))
            for phase in ("tutor", "posttest")]


_MODELS = ((fit_logistic, lambda rows: reference_fit(
                rows, "tutor", ("condition", "type", "count", "type:count"))),
           (posttest_effect, lambda rows: reference_fit(
                rows, "posttest", ("condition", "type"))),
           (hard_problem_effect, lambda rows: reference_fit(
                filter_hard(rows), "tutor", ("condition", "count"))))


@settings(max_examples=200, deadline=None)
@given(rows=_categorical_logs, mirrored=st.booleans())
@example(rows=_mixed_log(), mirrored=False)
def test_cell_count_fits_match_the_row_level_fit(rows, mirrored):
    if mirrored:  # each problem again, with the other outcome: no separation
        rows = rows + [r._replace(replication=r.replication + 2,
                                  problem_correct=not r.problem_correct) for r in rows]
    for fit, reference in _MODELS:
        _assert_same_fit(_outcome(fit, rows), _outcome(reference, rows))


def _summaries(records):
    """Every summary of ``records``, or the (type, message) of its error,
    with ``problem_outcomes`` and ``filter_hard`` looked up when called."""
    def outcome(summary):
        try:
            return summary()
        except (ConfigError, DesignError, SeparationError) as exc:
            return type(exc), str(exc)
    return ([outcome(lambda: analytics.problem_outcomes(records, phase))
             for phase in ("tutor", "posttest")]
            + [outcome(lambda: learning_curve(records))]
            + [outcome(lambda: accuracy_by_condition(records, phase))
               for phase in ("tutor", "posttest")],
            [outcome(lambda: fit(records)) for fit, _reference in _MODELS])


@settings(max_examples=200, deadline=None)
@given(rows=_categorical_logs)
@example(rows=_mixed_log())
def test_summaries_of_a_log_match_those_of_its_rows(rows):
    # The reference collapses and filters the rows one row at a time.
    with mock.patch.multiple(analytics, problem_outcomes=row_outcome_cells,
                             filter_hard=row_filter_hard):
        expected, expected_fits = _summaries(rows)
    log = TransactionLog.of(rows)
    assert len(log) == len(rows)
    tables, fits = _summaries(log)
    assert tables == expected
    for fit, ref in zip(fits, expected_fits):
        _assert_same_fit(fit, ref)


def test_the_mixed_log_fits_every_model():
    # The explicit example above compares fitted models, not two errors.
    for fit, _reference in _MODELS:
        assert fit(_mixed_log()).converged


def test_accuracy_by_condition_groups_problem_level():
    rows = [record("a0", "p0", True, condition="blocked"),
            record("a0", "p1", False, condition="blocked"),
            record("a1", "p0", True, condition="interleaved")]
    acc = accuracy_by_condition(rows)
    assert acc == {"blocked": 0.5, "interleaved": 1.0}
