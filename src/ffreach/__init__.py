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
)
from .instance_io import (
    FnetParseError,
    Instance,
    TargetSpec,
    desugar_init,
    generator_names,
    parse_instance,
    serialize_instance,
)
from .net import (
    NetDefinitionError,
    NotFirableError,
    PetriNet,
    TokenOverflowError,
    Transition,
)
from .prune import PruneVerdict, prune_instance, sign_analysis
from .ratlp import (
    OutcomeKind,
    RationalLP,
    Relation,
    ilp_min,
    simplex_min,
)
from .search import (
    SearchLimits,
    Strategy,
    Verdict,
    directed_search,
)
from .cli import SolveReport, random_walk, solve_instance

__version__ = "0.1.0"

__all__ = [
    "INF",
    "FnetParseError",
    "Instance",
    "NetDefinitionError",
    "NotFirableError",
    "OutcomeKind",
    "PetriNet",
    "PruneVerdict",
    "RationalLP",
    "Relation",
    "SearchLimits",
    "SolveReport",
    "StateEquationHeuristic",
    "Strategy",
    "StructHeuristic",
    "TargetSpec",
    "TokenOverflowError",
    "Transition",
    "Verdict",
    "desugar_init",
    "directed_search",
    "generator_names",
    "ilp_min",
    "make_heuristic",
    "parse_instance",
    "prune_instance",
    "random_walk",
    "serialize_instance",
    "sign_analysis",
    "simplex_min",
    "solve_instance",
]
