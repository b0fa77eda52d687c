"""Exact combinatorics of staircase tableaux.

The package computes with the weighted ensemble of staircase tableaux:
closed-form partition functions, exact box and diagonal laws, factorial
moments and probability mass functions of diagonal symbol counts, total
variation distance to their Poisson limits, exact random sampling, and
the stationary-measure bridge to the open asymmetric exclusion process.
"""

from .asep import AsepParams, cross_validate, steady_state_via_generator, \
    steady_state_via_tableaux, tableau_type, uq_fill
from .constraints import ConstraintSet, Requirement, second_diag_event, \
    third_diag_event
from .core import (
    STATISTIC_NAMES,
    SymbolCounts,
    Tableau,
    diagonal_statistic,
    main_diagonal,
    second_diag_max_count,
    second_diagonal,
    staircase_boxes,
    third_diag_max_count,
    third_diagonal,
)
from .dpcount import conditional_cell_law, constrained_partition, event_prob, \
    statistic_pmf
from .enumeration import all_tableaux, brute_partition, count_tableaux, \
    enumerate_four_symbol, enumerate_tableaux, oracle_event_prob, \
    oracle_statistic_pmf
from .formulas import BoxLaw, JointValue, MainTerm, box_law, partition_closed, \
    second_diag_joint_alpha, second_diag_joint_nonempty, third_diag_main_term
from .measure import FourWeights, Weights, parse_rational
from .moments import (
    POISSON_RATES,
    ConvergenceRow,
    convergence_report,
    exact_statistic_pmf,
    factorial_moments_second_diag,
    factorial_moments_third_diag,
    pmf_from_factorial_moments,
    tv_to_poisson,
)
from .pmf import Pmf
from .sampler import EmpiricalLaw, empirical_pmf, randomize_four_params, \
    sample, sample_many

__all__ = [
    "AsepParams",
    "BoxLaw",
    "ConstraintSet",
    "ConvergenceRow",
    "EmpiricalLaw",
    "FourWeights",
    "JointValue",
    "MainTerm",
    "POISSON_RATES",
    "Pmf",
    "Requirement",
    "STATISTIC_NAMES",
    "SymbolCounts",
    "Tableau",
    "Weights",
    "all_tableaux",
    "box_law",
    "brute_partition",
    "conditional_cell_law",
    "constrained_partition",
    "convergence_report",
    "count_tableaux",
    "cross_validate",
    "diagonal_statistic",
    "empirical_pmf",
    "enumerate_four_symbol",
    "enumerate_tableaux",
    "event_prob",
    "exact_statistic_pmf",
    "factorial_moments_second_diag",
    "factorial_moments_third_diag",
    "main_diagonal",
    "oracle_event_prob",
    "oracle_statistic_pmf",
    "parse_rational",
    "partition_closed",
    "pmf_from_factorial_moments",
    "randomize_four_params",
    "sample",
    "sample_many",
    "second_diag_event",
    "second_diag_joint_alpha",
    "second_diag_joint_nonempty",
    "second_diag_max_count",
    "second_diagonal",
    "staircase_boxes",
    "statistic_pmf",
    "steady_state_via_generator",
    "steady_state_via_tableaux",
    "tableau_type",
    "third_diag_event",
    "third_diag_main_term",
    "third_diag_max_count",
    "third_diagonal",
    "tv_to_poisson",
    "uq_fill",
]
