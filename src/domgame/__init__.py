"""Domination games on graphs: rules engine, winning strategies, and an
exact solver that certifies them."""

from .engine import (
    BDG,
    BLUE,
    DDG,
    DOM,
    PASS,
    PURPLE,
    SEPY,
    ConfigError,
    GameConfig,
    GameState,
    IllegalMoveError,
    Move,
    new_game,
    replay,
    trace_lines,
)
from .formats import (
    ParseError,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    resolve_generator_spec,
)
from .graphs import (
    Graph,
    GraphError,
    SubdivisionMap,
    corpus,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    enumerate_isolate_free_graphs,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_petersen,
    is_connected,
    subdivide3,
)
from .matching import (
    MatchingError,
    MatchingStructure,
    classify_matching,
    matching_plan,
    maximum_matching,
)
from .solver import (
    ResourceLimitError,
    Solver,
    SolveResult,
    VerificationReport,
    solve,
    verify_strategy,
)
from .strategies import (
    NotApplicable,
    StrategyViolation,
    get_strategy,
    strategy_ids,
)

__version__ = "0.1.0"
