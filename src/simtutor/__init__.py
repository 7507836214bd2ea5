"""simtutor: simulated learners, two tutor environments, and an A/B harness."""

__version__ = "0.1.0"

from .agent import Agent, decide, perceive, run_problem
from .analytics import (
    CurvePoint,
    RegressionSummary,
    fit_logistic,
    hard_problem_effect,
    learning_curve,
    posttest_effect,
)
from .experiment import (
    ExperimentConfig,
    TransactionLog,
    TrialRecord,
    box_arrows_config,
    fractions_config,
    run_study,
    sequence_fractions,
)
from .induction import Skill, explain, induce_from_demo, refine_conditions
from .state import SAI, FieldState, WorkingMemory
from .tutors import (
    ProblemScript,
    TutorSession,
    ambiguity_count,
    gen_box_problem,
    gen_fraction_problem,
)

__all__ = [
    "Agent", "decide", "perceive", "run_problem",
    "CurvePoint", "RegressionSummary", "fit_logistic", "hard_problem_effect",
    "learning_curve", "posttest_effect",
    "ExperimentConfig", "TransactionLog", "TrialRecord", "box_arrows_config",
    "fractions_config", "run_study", "sequence_fractions",
    "Skill", "explain", "induce_from_demo", "refine_conditions",
    "SAI", "FieldState", "WorkingMemory",
    "ProblemScript", "TutorSession", "ambiguity_count", "gen_box_problem",
    "gen_fraction_problem",
]
