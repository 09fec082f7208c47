"""Equilibrium analysis of score-reporting policies for standardized testing.

Two student populations are equally talented but differ in how many times
they may take a noisy pass/fail test. The library computes, enumerates,
verifies, and simulates the equilibria of this game under two reporting
policies (best score only vs. the full score sequence) and reports the
resulting fairness and accuracy statistics.
"""

from .beliefs import (
    OFF_PATH,
    OffPath,
    PrefixBelief,
    posterior,
    posterior_max,
    prefix_belief,
)
from .equilibria import (
    ACCEPT_ALL,
    FIRST_SCORE,
    NON_FIRST_SCORE,
    REJECT_ALL,
    SEPARATING,
    AdmissionPolicy,
    EquilibriumProfile,
    Region,
    RejectAllFamily,
    Reporting,
    boundary_thresholds,
    closed_form_profiles,
    construct_first_score_equilibrium,
    construct_non_first_score_equilibrium,
    is_boundary,
    non_first_score_region,
    p_double_star,
    p_star,
    reject_all_threshold,
    report_all_regions,
    report_max_reject_all,
    report_max_separating,
    report_max_thresholds,
)
from .errors import (
    BadIndex,
    EmptyPopulation,
    MalformedProfile,
    MissingStrategyEntry,
    NoEquilibrium,
    RetestingError,
    ScopeTooLarge,
    UnsupportedK,
)
from .metrics import (
    FairnessReport,
    PolicyComparison,
    admission_probabilities,
    college_payoff,
    compare_policies,
    confusion_rates,
    fairness_report,
    payoff_gap,
    predictive_values,
)
from .model import (
    COHORTS,
    Category,
    Cohort,
    ModelParams,
    OutcomeDistribution,
    Score,
    ScoreSeq,
    StudentStrategy,
    StudentType,
    all_sequences,
    as_fraction,
    best_score,
    best_score_projection,
    max_score_distribution,
    outcome_distribution,
    seq,
    seq_str,
)
from .search import (
    SCOPE_ALL_B_REJECT,
    SCOPE_B_THEN_A,
    SCOPE_FIRST_SCORE,
    SCOPE_REPORT_ALL,
    SCOPE_REPORT_MAX,
    SCOPES,
    BestResponseSet,
    Enumeration,
    OutcomeClass,
    Verdict,
    best_response,
    enumerate_outcomes,
    free_stop_intervals,
    verify_equilibrium,
)
from .simulate import EmpiricalReport, SimConfig, simulate

__version__ = "0.1.0"
