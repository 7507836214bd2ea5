"""A/B experiment harness: condition assignment, curricula, replications.

Every agent is fresh (empty skill store), gets its own seeded problem stream,
trains through its curriculum, and (for the fractions study) takes a
feedback-free posttest.  Agent runs are independent, so they can execute in
parallel; the transaction log is always assembled in (replication, agent,
problem) order, making output independent of scheduling.
"""
from __future__ import annotations

import csv
import multiprocessing
import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, groupby, islice, repeat
from operator import eq, itemgetter
from typing import NamedTuple

from .agent import Agent, run_problem
from .state import CORRECT, ERROR, HINT, SIMULATION_ERRORS, ConfigError, parse_integer
from .tutors import (
    BOX_OPS,
    SLOTS,
    ProblemScript,
    TutorSession,
    gen_box_problem,
    gen_fraction_problem,
    randbelow,
)

FRACTIONS_TRAINING = {"add_same": 10, "add_diff": 14, "multiply": 24}
FRACTIONS_POSTTEST = {"multiply": 4, "add_same": 2, "add_diff": 2}
BOX_TRAINING = {"box_easy": 16, "box_hard": 16}
BOX_PRETRAIN_EASY = 16
# Each study's two conditions; agents alternate between them.
CONDITIONS = {"fractions": ("blocked", "interleaved"),
              "box_arrows": ("constrained", "unconstrained")}

# A row's first seven fields as ``csv.writer`` writes them when none is quoted.
_PREFIX = "%s,%s,%s,%s,%s,%s,%s,"
# Log entries formatted, or lines decoded (ten strings each), at once: enough
# to amortize the checks, few enough for flat RSS.
WRITE_CHUNK, READ_CHUNK = 256, 256
_OUTCOMES = frozenset((CORRECT, ERROR, HINT))
_FLAGS = frozenset(("0\r\n", "1\r\n"))  # problem_correct and its line end


class TrialRecord(NamedTuple):
    """One per-step transaction row; its field names are the log's ``COLUMNS``."""

    agent_id: str
    replication: int
    condition: str
    phase: str  # tutor | posttest
    problem_id: str
    problem_type: str
    opportunity: int  # prior problems of the same type for this agent
    step_id: str
    outcome: str  # CORRECT | ERROR | HINT
    problem_correct: bool

    def as_row(self):
        return (*map(str, self[:9]), "1" if self.problem_correct else "0")


COLUMNS = TrialRecord._fields


def _entries(records, pairs):
    """The ``TransactionLog`` entries of rows ``records``; each (step_id, outcome)
    pair, and then each run's tuple of pairs, becomes the equal one that dict
    ``pairs`` holds, or is added to it."""
    out = []
    for key, rows in groupby(records, itemgetter(0, 1, 2, 3, 4, 5, 6, 9)):
        steps = list(map(itemgetter(7, 8), rows))
        steps = tuple(map(pairs.setdefault, steps, steps))
        out.append((*key, pairs.setdefault(steps, steps)))
    return out


def _extend(entries, more, pairs):
    """Append list ``more`` to ``entries``, merging a run split between them
    into the equal run that dict ``pairs`` holds, or adding it there."""
    if entries and more and entries[-1][:8] == more[0][:8]:
        *key, steps = entries.pop()
        steps += more[0][8]
        more[0] = (*key, pairs.setdefault(steps, steps))
    entries += more


class TransactionLog:
    """The transaction log, one entry per run of consecutive rows that share
    the seven problem-level fields and ``problem_correct``: those eight values
    in ``COLUMNS`` order, then a tuple of the run's (step_id, outcome) pairs.

    It reads as its rows: ``len()`` counts them, iteration yields one
    ``TrialRecord`` per row in log order, and a log equals any sequence of
    the same rows."""

    __slots__ = ("entries", "_rows", "outcomes")

    def __init__(self, entries):
        self.entries = list(entries)
        self._rows = sum(len(entry[8]) for entry in self.entries)
        self.outcomes = {}  # phase -> its analytics outcome cells, never pickled

    def __reduce__(self):  # the entries alone: no memo, no row count
        return TransactionLog, (self.entries,)

    @classmethod
    def of(cls, records):
        """``records`` if it is a log, else the log of those rows."""
        return records if isinstance(records, cls) else cls(_entries(records, {}))

    def __len__(self):
        return self._rows

    def __iter__(self):
        for entry in self.entries:
            head, tail = entry[:7], entry[7:8]
            for pair in entry[8]:
                yield tuple.__new__(TrialRecord, head + pair + tail)

    def __eq__(self, other):
        if not isinstance(other, (TransactionLog, Sequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class _Memo(dict):
    """Token -> parsed value; a token is parsed on first sight, then looked up."""

    __slots__ = ("parse",)

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, token):
        value = self[token] = self.parse(token)
        return value


def _text(token):
    """``token`` itself, unless it holds a byte that was not UTF-8, which
    ``read_transactions`` decodes to a lone surrogate."""
    if not token.isascii():
        try:
            token.encode()
        except UnicodeEncodeError:
            raise ValueError(f"undecodable bytes in {token!r}") from None
    return token


def _record(row, texts, numbers):
    """Check one row and build its record, parsing tokens through the memos.

    ``texts`` is a ``_Memo(_text)``, which maps a token to the first equal
    token it saw, since ``_text`` returns its argument; ``numbers`` is a
    ``_Memo(parse_integer)``.
    """
    if len(row) != len(COLUMNS):
        raise ValueError(f"expected {len(COLUMNS)} columns, got {row!r}")
    (agent_id, replication, condition, phase, problem_id, problem_type,
     opportunity, step_id, outcome, problem_correct) = row
    if outcome not in _OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    if problem_correct not in ("0", "1"):
        raise ValueError(
            f"problem_correct must be 0 or 1, not {problem_correct!r}")
    return TrialRecord(texts[agent_id], numbers[replication], texts[condition],
                       texts[phase], texts[problem_id], texts[problem_type],
                       numbers[opportunity], texts[step_id], texts[outcome],
                       problem_correct == "1")


def _plain_entries(lines, texts, numbers, pairs):
    """The entries of ``lines`` split on commas, as ``csv.reader`` splits ten
    unquoted NUL-free fields ending in CRLF; None for other lines or a bad token.

    Each line is split at its last three commas.  A problem's rows share the
    seven fields before them, so each distinct prefix is parsed once a chunk;
    ``pairs`` is a ``_Memo`` of (step_id, outcome) token pairs, which also
    interns each run's tuple of pairs."""
    text = "".join(lines)
    if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:  # a line with fewer than three commas leaves fewer than four columns
        prefixes, steps, outcomes, flags = zip(*map(str.rsplit, lines, repeat(","),
                                                    repeat(3)))
    except ValueError:
        return None
    # A flag of "0\r\n" or "1\r\n" ends its line, so no other CR or LF is in it,
    # and every line holds nine commas when every prefix holds six.
    distinct = dict.fromkeys(prefixes)
    if not (_OUTCOMES.issuperset(outcomes) and _FLAGS.issuperset(flags)
            and set(map(str.count, distinct, repeat(","))) == {6}):
        return None
    fields = ",".join(distinct).split(",")
    t, n = texts.__getitem__, numbers.__getitem__
    try:
        heads = dict(zip(distinct, zip(*map(map, (t, n, t, t, t, t, n),
                                            [fields[j::7] for j in range(7)]))))
        row_pairs = list(map(pairs.__getitem__, zip(steps, outcomes)))
    except ValueError:
        return None
    runs = groupby(zip(prefixes, flags, row_pairs), itemgetter(0, 1))
    return [(*heads[prefix], flag == "1\r\n", pairs.setdefault(steps, steps))
            for (prefix, flag), run in runs
            for steps in [tuple(map(itemgetter(2), run))]]


@dataclass(frozen=True)
class ExperimentConfig:
    study: str
    n_agents: int
    replications: int = 10
    seed: int = 7
    jobs: int = 1

    def __post_init__(self):
        if self.study not in CONDITIONS:
            raise ConfigError(f"unknown study {self.study!r}")
        for name in ("n_agents", "replications", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")


def fractions_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(study="fractions", n_agents=78)
    return replace(cfg, **overrides)


def box_arrows_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(study="box_arrows", n_agents=202)
    return replace(cfg, **overrides)


def _mix(a: int, b: int) -> int:
    """Stable per-agent stream seed; independent of PYTHONHASHSEED."""
    return (a * 1_000_003 + b * 7_919) % 2_147_483_647


def sequence_fractions(condition: str, rng, id_prefix: str = "p"):
    """48 training items ordered by condition.

    Blocked: same-denominator addition, then different-denominator addition,
    then multiplication, shuffled within block, so the type transitions fall
    at positions 11 and 25.  Interleaved: one uniform shuffle of all 48.
    """
    if condition not in CONDITIONS["fractions"]:
        raise ConfigError(f"unknown fractions condition {condition!r}")
    items = []
    for ptype, count in FRACTIONS_TRAINING.items():
        block = [gen_fraction_problem(ptype, rng, f"{id_prefix}-{ptype}-{i}")
                 for i in range(count)]
        rng.shuffle(block)
        items += block
    if condition == "interleaved":
        rng.shuffle(items)
    return items


def _fractions_posttest(rng, id_prefix: str):
    items = [gen_fraction_problem(ptype, rng, f"{id_prefix}-post-{ptype}-{i}")
             for ptype, count in FRACTIONS_POSTTEST.items() for i in range(count)]
    rng.shuffle(items)
    return items


def _box_curriculum(constraint: str, rng, id_prefix: str):
    items = [gen_box_problem("easy", constraint, rng, f"{id_prefix}-easy-{i}")
             for i in range(BOX_TRAINING["box_easy"])]
    # Hard items cover the relation-operator x layout space at least once;
    # the remainder of the set is sampled uniformly.
    combos = [(op, layout) for op in BOX_OPS for layout in SLOTS]
    deals = combos + [combos[randbelow(rng, len(combos))]
                      for _ in range(BOX_TRAINING["box_hard"] - len(combos))]
    rng.shuffle(deals)
    items += [gen_box_problem("hard", constraint, rng, f"{id_prefix}-hard-{i}",
                              op2=op, layout=layout)
              for i, (op, layout) in enumerate(deals)]
    rng.shuffle(items)
    return items


def agent_condition(config: ExperimentConfig, agent_index: int) -> str:
    return CONDITIONS[config.study][agent_index % 2]


def _generate_sets(config: ExperimentConfig, replication: int, agent_index: int):
    """(pretrain, training, posttest) problem lists for one agent cell."""
    condition = agent_condition(config, agent_index)
    rng = random.Random(_mix(config.seed + replication, agent_index))
    prefix = f"{config.study}-r{replication}-a{agent_index:03d}"
    if config.study == "fractions":
        return [], sequence_fractions(condition, rng, prefix), \
            _fractions_posttest(rng, prefix)
    pretrain = []
    # Crossed with condition: indices 0,1 pretrain; 2,3 do not; and so on.
    if (agent_index // 2) % 2 == 0:
        pretrain = [gen_box_problem("easy", condition, rng, f"{prefix}-pre-{i}")
                    for i in range(BOX_PRETRAIN_EASY)]
    return pretrain, _box_curriculum(condition, rng, prefix), []


def run_agent(config: ExperimentConfig, replication: int, agent_index: int,
              problems=None):
    """Simulate one agent over ``problems``, its (pretrain, training, posttest)
    script lists, generated when None; returns its ``TransactionLog``, one entry
    per logged problem."""
    condition = agent_condition(config, agent_index)
    agent_id = f"a{agent_index:03d}"
    if problems is None:
        problems = _generate_sets(config, replication, agent_index)
    pretrain, training, posttest = problems

    agent = Agent()
    opportunities: dict = {}
    entries, pairs = [], {}
    for scripts, phase, logged in ((pretrain, "tutor", False), (training, "tutor", True),
                                   (posttest, "posttest", True)):
        for script in scripts:
            steps = run_problem(agent, TutorSession(script, phase))
            problem_type = script.problem_type
            opp = opportunities.get(problem_type, 0)
            if logged and steps:
                correct = all(outcome == CORRECT for _role, outcome in steps)
                steps = tuple(map(pairs.setdefault, steps, steps))
                entries.append((
                    agent_id, replication, condition, phase, script.problem_id,
                    problem_type, opp, correct, pairs.setdefault(steps, steps)))
            opportunities[problem_type] = opp + 1
    return TransactionLog(entries)


def _worker(args):
    config, replication, agent_index, problems = args
    try:
        return run_agent(config, replication, agent_index, problems)
    except SIMULATION_ERRORS as exc:
        raise type(exc)(f"replication {replication}, agent {agent_index}: "
                        f"{exc}") from exc


def _check_problem_sets(problem_sets, cells):
    """Raise ``ConfigError`` naming the first of ``cells`` that ``problem_sets``
    lacks or gives as anything but three lists of ``ProblemScript``s."""
    for rep, idx in cells:
        name = f"problem sets for replication {rep}, agent {idx}"
        try:
            sets = problem_sets[(rep, idx)]
        except KeyError:
            raise ConfigError(f"{name} are missing") from None
        if not (isinstance(sets, (list, tuple)) and len(sets) == 3 and all(
                isinstance(group, (list, tuple))
                and all(isinstance(script, ProblemScript) for script in group)
                for group in sets)):
            raise ConfigError(f"{name} must be (pretrain, training, posttest) "
                              "lists of ProblemScript")


def run_study(config: ExperimentConfig, problem_sets=None):
    """Run every (replication, agent) cell; returns the full transaction log.

    ``problem_sets`` optionally maps each (replication, agent) to the script
    lists that cell runs instead of its own, as ``dump_problem_sets`` gives them.
    """
    cells = [(rep, idx) for rep in range(config.replications)
             for idx in range(config.n_agents)]
    if problem_sets is not None:
        _check_problem_sets(problem_sets, cells)
    tasks = [(config, rep, idx,
              None if problem_sets is None else problem_sets[(rep, idx)])
             for rep, idx in cells]
    if config.jobs > 1:
        # At most one worker per chunk of 8 tasks: a spare one only forks.
        with multiprocessing.Pool(min(config.jobs, -(-len(tasks) // 8))) as pool:
            results = pool.map(_worker, tasks, chunksize=8)
    else:
        results = [_worker(t) for t in tasks]
    # In task order, which is (replication, agent, problem) order.
    return TransactionLog(chain.from_iterable(log.entries for log in results))


def dump_problem_sets(config: ExperimentConfig):
    """Every cell's (pretrain, training, posttest) ``ProblemScript`` lists by
    (replication, agent), as ``run_study`` generates them; to persist them, write
    each script with ``to_record`` and read it with ``ProblemScript.from_record``."""
    return {(rep, idx): _generate_sets(config, rep, idx)
            for rep in range(config.replications)
            for idx in range(config.n_agents)}


def filter_hard(records):
    """Box study scoring: the log of hard problems, ``records`` itself if only those."""
    log = TransactionLog.of(records)
    hard = [entry for entry in log.entries if entry[5] == "box_hard"]  # problem_type
    return log if len(hard) == len(log.entries) else TransactionLog(hard)


def _lines(entry):
    """An entry's rows as ``csv.writer`` writes them when none is quoted."""
    head, flag = _PREFIX % entry[:7], ",1\r\n" if entry[7] else ",0\r\n"
    return "".join((head, (flag + head).join(map(",".join, entry[8])), flag))


def write_transactions(path, records):
    """Write the log exactly as ``csv.writer`` writes each ``as_row()``.

    Each entry's prefix is formatted once.  A chunk of entries whose text
    holds 9 commas, one CR, one LF and no quote per row has no field to quote,
    and is written as formatted; any other chunk goes through ``csv.writer``.
    Step ids and outcomes must be ``str``, as ``TrialRecord`` declares."""
    entries = TransactionLog.of(records).entries
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for start in range(0, len(entries), WRITE_CHUNK):
            chunk = TransactionLog(entries[start:start + WRITE_CHUNK])
            text, n = "".join(map(_lines, chunk.entries)), len(chunk)
            if (text.count(",") == 9 * n and text.count("\r") == n
                    and text.count("\n") == n and '"' not in text):
                fh.write(text)
            else:
                writer.writerows(rec.as_row() for rec in chunk)


def read_transactions(path):
    """Parse and check a whole log into a ``TransactionLog``, ``READ_CHUNK``
    lines at a time; from the first chunk ``_plain_entries`` declines on,
    ``csv.reader`` reads it."""
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        # One memo per read: each distinct token and (step_id, outcome) pair
        # is checked and parsed once, and every entry holding it, or an equal
        # run of pairs, shares one object.
        texts, numbers = _Memo(_text), _Memo(parse_integer)
        pairs = _Memo(lambda pair: tuple(map(texts.__getitem__, pair)))
        consumed = 0  # lines read before ``reader``'s first
        try:
            if tuple(next(reader, ())) == COLUMNS:
                consumed, entries = reader.line_num, []
                while (lines := list(islice(fh, READ_CHUNK))) and (chunk := (
                        _plain_entries(lines, texts, numbers, pairs))) is not None:
                    _extend(entries, chunk, pairs)
                    consumed += len(lines)
                reader = csv.reader(chain(lines, fh))
                _extend(entries, _entries(
                    (_record(row, texts, numbers) for row in reader), pairs), pairs)
                return TransactionLog(entries)
        except (ValueError, csv.Error) as exc:
            # Decoding cannot fail a chunk ahead: line_num is the failing row's.
            raise ConfigError(f"malformed transaction row "
                              f"{consumed + reader.line_num}: {exc}") from None
    raise ConfigError(f"unexpected transaction header in {path}")
