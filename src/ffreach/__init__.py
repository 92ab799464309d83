"""Directed reachability and coverability solving for weighted Petri nets.

The library decides whether a target set of markings is reachable by running
classical best-first search (Dijkstra, A*, greedy) over the net's implicit
state graph, guided by exact distance under-approximations computed from
linear relaxations of the firing semantics and from a structural place
graph.  All arithmetic is exact rational arithmetic.
"""

from .heuristics import (
    INF,
    StateEquationHeuristic,
    StructHeuristic,
    make_heuristic,
    zero_heuristic,
)
from .instance_io import (
    DuplicateIdError,
    FnetParseError,
    Instance,
    NonPositiveWeightError,
    TargetSpec,
    UnknownPlaceError,
    desugar_init,
    generator_names,
    parse_instance,
    serialize_instance,
)
from .net import (
    MAX_TOKENS,
    Marking,
    NetDefinitionError,
    NotFirableError,
    PetriNet,
    TokenOverflowError,
    Transition,
    Witness,
)
from .prune import PruneResult, PruneVerdict, prune_instance, sign_analysis
from .ratlp import (
    Outcome,
    OutcomeKind,
    RationalLP,
    Relation,
    Row,
    Tableau,
    UnboundedRelaxation,
    ilp_min,
    simplex_min,
)
from .search import (
    BrokenParentChainError,
    SearchLimits,
    SearchResult,
    SearchStats,
    Strategy,
    Verdict,
    directed_search,
    reconstruct_witness,
)
from .cli import SolveReport, SplitMix64, random_walk, solve_instance

__version__ = "0.1.0"

__all__ = [
    "INF",
    "MAX_TOKENS",
    "BrokenParentChainError",
    "DuplicateIdError",
    "FnetParseError",
    "Instance",
    "Marking",
    "NetDefinitionError",
    "NonPositiveWeightError",
    "NotFirableError",
    "Outcome",
    "OutcomeKind",
    "PetriNet",
    "PruneResult",
    "PruneVerdict",
    "RationalLP",
    "Relation",
    "Row",
    "SearchLimits",
    "SearchResult",
    "SearchStats",
    "SolveReport",
    "SplitMix64",
    "StateEquationHeuristic",
    "Strategy",
    "StructHeuristic",
    "Tableau",
    "TargetSpec",
    "TokenOverflowError",
    "Transition",
    "UnboundedRelaxation",
    "UnknownPlaceError",
    "Verdict",
    "Witness",
    "desugar_init",
    "directed_search",
    "generator_names",
    "ilp_min",
    "make_heuristic",
    "parse_instance",
    "prune_instance",
    "random_walk",
    "reconstruct_witness",
    "serialize_instance",
    "sign_analysis",
    "simplex_min",
    "solve_instance",
    "zero_heuristic",
]
