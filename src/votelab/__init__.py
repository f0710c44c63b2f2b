"""Quantitative manipulability of three-alternative voting rules.

The package measures how far a social choice function is from the
dictatorial family (manipulation power, pairwise manipulability, minority
preference), reduces those measures to an isoperimetric inequality on the
ternary lattice, and connects them to paradox probabilities of pairwise
preference aggregation.
"""

from .orders import (
    LinearOrder,
    Profile,
    order_from_index,
    order_to_index,
    profile_from_index,
)
from .rules import (
    ScfRule,
    ScfTable,
    anonymity_counts,
    dist_to_antidictatorship,
    dist_to_dictatorship,
    is_anonymous,
    is_neutral,
    neutrality_counts,
    range_min_prob,
    register_rule,
    zoo_rules,
)
from .metrics import (
    ColumnStats,
    MetricReport,
    column_stats,
    mab,
    manipulation_power,
    manipulation_power_total,
    manipulation_reports,
    nab,
    pair_reports,
)
from .lattice import (
    BorderReport,
    EdgeBorder,
    HarrisReport,
    SetStack,
    TernarySet,
    border_counts,
    border_total,
    check_border_inequality,
    check_harris,
    direction_counts,
    edge_border,
    is_monotone,
    random_set,
    sets_ab,
    shift_coordinate,
    shift_monotone,
)
from .welfare import (
    ChainReport,
    CompositionReport,
    GswfIia,
    IdentityReport,
    TrMember,
    anti_dictator_swf,
    check_composition,
    check_identities,
    check_reduction_chain,
    dictator_swf,
    dist_dict2,
    dist_tr3,
    gcw,
    gcw_winner_at,
    gswf_from_scf,
    is_neutral_gswf,
    is_odd,
    majority_g,
    neutral_tensor,
    ngcw,
    nt,
    random_iia_gswf,
    random_odd_g,
    restrict_gswf,
    scf_from_gswf,
)
from .fileio import read_gswf, read_scf, write_gswf, write_scf
from .reports import report_from_dict, report_to_dict, reports_to_csv, reports_to_json
from .sampling import EXACT_BUDGET, BudgetError, exact_feasible
from .suites import SUITES, SuiteReport, replay, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
