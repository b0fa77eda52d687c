"""Exact combinatorics of staircase tableaux.

The package computes with the weighted ensemble of staircase tableaux:
closed-form partition functions, exact box and diagonal laws, factorial
moments and probability mass functions of diagonal symbol counts, total
variation distance to their Poisson limits, exact random sampling, and
the stationary-measure bridge to the open asymmetric exclusion process.

``import staircase_lab`` loads none of the package's modules: the first
use of a public name imports the module that defines it and binds the
name here, so a process compiles only the modules its calls reach.
"""

#: Each public name's home module, the one that defines it.
_HOMES = {
    "asep": ("AsepParams", "cross_validate", "steady_state_via_generator",
             "steady_state_via_tableaux", "tableau_type", "uq_fill"),
    "constraints": ("ConstraintSet", "Requirement", "second_diag_event", "third_diag_event"),
    "core": ("STATISTIC_NAMES", "SymbolCounts", "Tableau", "diagonal_statistic",
             "main_diagonal", "second_diag_max_count", "second_diagonal", "staircase_boxes",
             "third_diag_max_count", "third_diagonal"),
    "dpcount": ("conditional_cell_law", "constrained_partition", "event_prob", "statistic_pmf"),
    "enumeration": ("all_tableaux", "brute_partition", "count_tableaux",
                    "enumerate_four_symbol", "enumerate_tableaux", "oracle_event_prob",
                    "oracle_statistic_pmf"),
    "formulas": ("JointValue", "MainTerm", "box_law", "partition_closed",
                 "second_diag_joint_alpha", "second_diag_joint_nonempty",
                 "third_diag_main_term"),
    "measure": ("BoxLaw", "FourWeights", "Weights", "parse_rational"),
    "moments": ("POISSON_RATES", "ConvergenceRow", "convergence_report", "exact_statistic_pmf",
                "factorial_moments_second_diag", "factorial_moments_third_diag",
                "pmf_from_factorial_moments", "tv_to_poisson"),
    "pmf": ("Pmf",),
    "sampler": ("EmpiricalLaw", "empirical_pmf", "randomize_four_params", "sample",
                "sample_many"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own hook, which ``-X importtime`` reports
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return list(__all__)
