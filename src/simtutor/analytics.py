"""Learning curves and fixed-effects logistic regression over transaction logs.

The regression engine is a from-scratch maximum-likelihood fit via
iteratively reweighted least squares with step halving, Wald standard errors
from the inverse observed information, and Wald z p-values.  Problem-level
correctness is the unit of analysis throughout; the log-level models fit it
as binomial counts of the distinct design cells, which gives the same
maximum-likelihood fit as one row per problem.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .experiment import CONDITIONS, TransactionLog, filter_hard
from .state import ConfigError

TYPE_REFERENCE = "add_diff"
CONDITION_REFERENCES = tuple(pair[0] for pair in CONDITIONS.values())
SEPARATION_BOUND = 15.0
MAX_ITER, TOL = 100, 1e-8


class SeparationError(RuntimeError):
    """A coefficient diverged, indicating (quasi-)complete separation."""


class DesignError(ValueError):
    """The design matrix is empty or rank deficient."""


@dataclass(frozen=True)
class CurvePoint:
    condition: str
    position: int
    mean_error: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class TermEstimate:
    coef: float
    se: float
    odds_ratio: float
    ci_low: float
    ci_high: float
    p_value: float


@dataclass
class RegressionSummary:
    terms: dict  # name -> TermEstimate, in design order
    log_likelihood: float
    n_observations: int
    tjur_r2: float
    converged: bool
    n_iterations: int
    ll_history: list = field(default_factory=list)

    def table(self) -> str:
        width = max(len(n) for n in self.terms)
        cis = [f"{est.odds_ratio:.2f} [{est.ci_low:.2f}, {est.ci_high:.2f}]"
               for est in self.terms.values()]
        ci_width = max(22, max(map(len, cis)) + 1)  # a space before p, always
        lines = [f"{'term'.ljust(width)}  {'OR [95% CI]'.ljust(ci_width + 1)}p"]
        for (name, est), ci in zip(self.terms.items(), cis):
            star = "*" if est.p_value < 0.05 else " "
            lines.append(f"{name.ljust(width)}  {ci.ljust(ci_width)}"
                         f"{est.p_value:.4f}{star}")
        lines.append(f"n = {self.n_observations}, logLik = {self.log_likelihood:.2f}, "
                     f"Tjur R2 = {self.tjur_r2:.3f}")
        return "\n".join(lines)


def problem_outcomes(records, phase: str = "tutor"):
    """The problems of ``phase`` in a log or its rows, counted by (condition,
    problem_type, opportunity, position, correct): the cells every summary
    reads.  A problem is its key's first entry, contiguous or not, and its
    position is its 1-based index within the agent's phase.  A new
    ``Counter`` on every call; ``_tally`` keeps one per log and phase."""
    return Counter(_problems(TransactionLog.of(records), phase))


def _problems(log, phase):
    """The cell of each problem of ``phase``, in log order."""
    sets, rep, agent = {}, None, None
    for (agent_id, replication, condition, rec_phase, problem_id, problem_type,
         opportunity, correct, _steps) in log.entries:
        if rec_phase != phase:
            continue
        if agent_id != agent or replication != rep:
            rep, agent = replication, agent_id
            seen = sets.setdefault((rep, agent), set())  # a position is its size
        if problem_id not in seen:
            seen.add(problem_id)
            yield condition, problem_type, opportunity, len(seen), correct


def _tally(records, phase, fields):
    """The problems of ``phase``, and the correct ones among them, counted by
    the cell fields at indexes ``fields``; each log keeps its cells by phase."""
    log = TransactionLog.of(records)
    if phase not in log.outcomes:
        log.outcomes[phase] = problem_outcomes(log, phase)
    key, totals, good = itemgetter(*fields), Counter(), Counter()
    for cell, n in log.outcomes[phase].items():
        totals[key(cell)] += n
        if cell[4]:  # correct
            good[key(cell)] += n
    return totals, good


def _interval(p_hat: float, n: int):
    se = math.sqrt(p_hat * (1 - p_hat) / n)
    return max(0.0, p_hat - 1.959963984540054 * se), \
        min(1.0, p_hat + 1.959963984540054 * se)


def learning_curve(records):
    """Mean problem-level training error per (condition, position), with 95% CIs."""
    counts, good = _tally(records, "tutor", (0, 3))  # condition, position
    if not counts:
        raise ConfigError("no 'tutor' rows in the log")
    points = []
    for (condition, position), n in sorted(counts.items()):
        mean = (n - good[condition, position]) / n
        points.append(CurvePoint(condition, position, mean, *_interval(mean, n), n))
    return points


def curve_rows(points):
    yield ("condition", "position", "mean_error", "ci_low", "ci_high", "n")
    for p in points:
        yield (p.condition, str(p.position), f"{p.mean_error:.6f}",
               f"{p.ci_low:.6f}", f"{p.ci_high:.6f}", str(p.n))


# --------------------------------------------------------------------------
# Logistic regression core
# --------------------------------------------------------------------------

def log_likelihood(X, y, beta, weights=1.0):
    """Log-likelihood, each row counted ``weights`` times (a count per row)."""
    eta = X @ beta
    # log(sigma(eta)) and log(1 - sigma(eta)) without overflow
    return float(np.sum(weights * (y * eta - np.logaddexp(0.0, eta))))


def score(X, y, beta, weights=1.0):
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    return X.T @ (weights * (y - mu))


def _information(X, beta, counts):
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    w = counts * np.clip(mu * (1.0 - mu), 1e-12, None)
    return mu, (X * w[:, None]).T @ X


def _diverged(beta, names):
    """The first term in design order whose |coef| is within 0.1% of the
    largest.  Terms that diverge together then get one name whatever the
    rounding: near the bound the information matrix is ill conditioned, and
    fits on cells and on problems differ by up to about 1e-5 relative."""
    size = np.abs(beta)
    return names[int(np.argmax(size >= size.max() * (1.0 - 1e-3)))]


def _exp(x):
    """``math.exp``, but infinite past the float range, as the upper bound of
    a nearly separated term's interval can be."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def fit_logit(X, y, names, weights=None):
    """IRLS maximum-likelihood fit; returns a RegressionSummary.

    ``weights`` holds an integer count per row of ``X`` (binomial counts of
    the distinct design rows); ``None`` counts each row once.  The fit equals
    the one on the rows repeated by their counts, and ``n_observations`` is
    the total count.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    counts = np.ones(n, dtype=int) if weights is None else np.asarray(weights)
    if counts.shape != (n,) or counts.dtype.kind not in "iu" or np.any(counts < 1):
        raise ValueError("weights must be one integer count of at least 1 per row")
    counts = counts.astype(float)
    if np.linalg.matrix_rank(X) < p:
        raise DesignError("design matrix is rank deficient")
    beta = np.zeros(p)
    ll = log_likelihood(X, y, beta, counts)
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        _, H = _information(X, beta, counts)
        g = score(X, y, beta, counts)
        try:
            delta = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise DesignError(f"singular information matrix: {exc}") from exc
        step = 1.0
        while True:
            candidate = beta + step * delta
            cand_ll = log_likelihood(X, y, candidate, counts)
            if cand_ll >= ll - 1e-12 or step < 1e-8:
                break
            step *= 0.5
        applied = step * delta
        beta, ll = candidate, cand_ll
        history.append(ll)
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            raise SeparationError(
                f"separation detected on term {_diverged(beta, names)!r}")
        if np.max(np.abs(applied)) < TOL:
            converged = True
            break
    mu, H = _information(X, beta, counts)
    cov = np.linalg.inv(H)
    se = np.sqrt(np.diag(cov))
    terms = {}
    for j, name in enumerate(names):
        z = beta[j] / se[j] if se[j] > 0 else math.inf
        p_value = math.erfc(abs(z) / math.sqrt(2.0))
        terms[name] = TermEstimate(
            coef=float(beta[j]), se=float(se[j]),
            odds_ratio=_exp(beta[j]),
            ci_low=_exp(beta[j] - 1.959963984540054 * se[j]),
            ci_high=_exp(beta[j] + 1.959963984540054 * se[j]),
            p_value=p_value)
    y_bool = y > 0.5
    tjur = float(np.average(mu[y_bool], weights=counts[y_bool])
                 - np.average(mu[~y_bool], weights=counts[~y_bool])) \
        if y_bool.any() and (~y_bool).any() else float("nan")
    return RegressionSummary(terms=terms, log_likelihood=ll,
                             n_observations=int(counts.sum()), tjur_r2=tjur,
                             converged=converged, n_iterations=iterations,
                             ll_history=history)


def build_design(cells, terms):
    """Design matrix with one row per (condition, problem_type, opportunity,
    correct) cell.  Reference levels: the blocked / constrained condition and
    the different-denominator addition type."""
    if not cells:
        raise DesignError("no problem outcomes to fit")
    condition, problem_type, opportunity, correct = zip(*cells)
    names = ["Intercept"]
    cols = [np.ones(len(cells))]
    conditions = sorted(set(condition))
    types = sorted(set(problem_type))
    if "condition" in terms and len(conditions) > 1:
        ref = next((ref for ref in CONDITION_REFERENCES if ref in conditions),
                   conditions[0])
        for level in conditions:
            if level == ref:
                continue
            names.append(f"condition[{level}]")
            cols.append(np.array([float(c == level) for c in condition]))
    type_dummies = []
    if "type" in terms and len(types) > 1:
        ref = TYPE_REFERENCE if TYPE_REFERENCE in types else types[0]
        for level in types:
            if level == ref:
                continue
            col = np.array([float(t == level) for t in problem_type])
            names.append(f"type[{level}]")
            cols.append(col)
            type_dummies.append((level, col))
    count = np.array(opportunity, dtype=float)
    if "count" in terms:
        names.append("count")
        cols.append(count)
    if "type:count" in terms:
        for level, col in type_dummies:
            names.append(f"type[{level}]:count")
            cols.append(col * count)
    return np.column_stack(cols), np.array(correct, dtype=float), names


def fit_logistic(records, phase: str = "tutor",
                 terms=("condition", "type", "count", "type:count")):
    """Problem-level correctness on condition, type, count, and type x count.

    The problems are counted by the fields the design reads, and the model is
    fitted on one row per distinct cell, weighted by its count."""
    counts, _good = _tally(records, phase, (0, 1, 2, 4))  # all but position
    cells = sorted(counts)
    X, y, names = build_design(cells, terms)
    return fit_logit(X, y, names, weights=[counts[cell] for cell in cells])


def posttest_effect(records):
    """Posttest correctness on condition and type; count is excluded."""
    return fit_logistic(records, phase="posttest", terms=("condition", "type"))


def hard_problem_effect(records):
    """Box study scoring: hard-problem correctness on condition and count."""
    return fit_logistic(filter_hard(records), phase="tutor",
                        terms=("condition", "count"))


def accuracy_by_condition(records, phase: str = "tutor"):
    totals, good = _tally(records, phase, (0,))  # condition
    return {cond: good[cond] / count for cond, count in sorted(totals.items())}
