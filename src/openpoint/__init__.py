"""Exact laboratory for open-point games on finite topological spaces."""

from .game import (
    GameVariant,
    IllegalMove,
    InvariantViolation,
    StrategyTable,
    Transcript,
    evaluate_chooser,
    exact_force_set,
    play_transcript,
    run_game,
    solve_game,
)
from .invariants import (
    InvariantReport,
    delta,
    density,
    invariant_report,
    pi_weight,
    tightness,
    weight,
)
from .metric import (
    GreedyRun,
    InvalidMetric,
    PseudometricSpace,
    greedy_dense_sequence,
    pseudometric,
    topology_from_pseudometric,
)
from .products import (
    FanStatus,
    FanTightnessVerdict,
    ProductSpace,
    fan_tightness_check,
    product,
    sufficient_condition_check,
)
from .space import (
    FiniteSpace,
    PointSet,
    TopologyError,
    TooLarge,
    closure,
    interior,
    is_dense,
    load_space,
    minimal_opens,
    save_space,
    subspace,
    validate_topology,
)
from .strategies import (
    OrderedPiBase,
    PhaseLedger,
    aggregate_chooser,
    dense_point_picker,
    optimal_chooser,
    pi_base_chooser,
    product_chooser,
    table_chooser,
)

__all__ = [name for name in dir() if not name.startswith("_")]
