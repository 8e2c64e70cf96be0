"""Dynamic monetary utility functions on finite filtered spaces.

Worst-case portfolio aggregation, scenario duality and time-preservation
harnesses, all at brute-force desk scale.
"""

from .space import (
    CapExceededError,
    ConditionalValue,
    FiniteFilteredSpace,
    StoppingTime,
    cond_expect,
    dyadic_uniform,
    enumerate_events,
    enumerate_stopping_times,
    is_stopping_time,
)
from .processes import (
    AdaptedProcess,
    DensityProcess,
    TerminalDensity,
    concatenate,
    m1_closure,
    mean_portfolio,
    membership,
    pairing,
    paste,
    remaining_mass,
    stability_check,
)
from .utility import (
    DualFiniteUtility,
    EntropicUtility,
    RobustEntropicUtility,
    UtilityProcess,
    argmax_density,
    check_axioms,
    entropic_process,
    normalize_to_window,
    normalized_scenario_process,
    penalty,
    penalty_consistency_check,
    penalty_vertices,
    robust_entropic_process,
    time_consistency_check,
)
from .rearrange import (
    PathLaw,
    RearrangementClass,
    enumerate_class,
    enumerate_class_bruteforce,
    is_comonotone,
    lap_upper_bound,
    max_correlation,
    path_law,
)
from .worstcase import (
    AdaptedWorstProcess,
    Portfolio,
    apply_matrix,
    average_risk,
    build_linear_driven_portfolio,
    build_preservation_hypotheses,
    check_adapted_worst_process,
    check_law_invariance,
    matrix_compare,
    matrix_sup,
    verify_linear_driven_portfolio,
    verify_preservation,
    verify_theorem_3_1,
    worst_portfolio_bruteforce,
    worst_scenario,
)
from .scenario import Scenario, ScenarioError, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
