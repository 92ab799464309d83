"""Best-first search over the on-the-fly reachability graph.

One generic loop covers Dijkstra (priority g), A* (g + h) and greedy
best-first search (h).  The graph is never materialized: successors are
generated by firing transitions.  With an admissible heuristic, Dijkstra
and A* return exact shortest distances; GBFS returns a valid but possibly
non-minimal witness.

Frontier management follows the classic lazy-deletion scheme: a marking is
(re)pushed whenever its best known path weight improves, and stale heap
entries are dropped on pop.  Ties are broken by smaller heuristic value,
then insertion order, so runs are fully reproducible.

The loop runs on integers.  ``L``, the lcm of the transitions' weight
denominators, is computed once per search; a path weight ``g`` is kept as
the ``int`` ``L * g``, and each heuristic value is multiplied by ``L`` too
(an ``int`` whenever the product is integral).  Scaling by ``L > 0`` keeps
every priority order and every tie, so the expansions are those of the
rational loop; the reported distance is the witness's ``Fraction`` weight.
A heuristic returns a ``Fraction`` (or ``int``), or any float infinity.

With assertions on, each expanded marking's parent link is checked in O(1):
``g[parent] + L * w(t) <= g[m]``.  Every link is made with equality and a
parent's ``g`` only falls later, so this holds for a correct loop; the full
parent chain is rebuilt and weighed only for the goal's witness.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .heuristics import INF, Heuristic, zero_heuristic
from .instance_io import Instance
from .net import Marking, TokenOverflowError, Witness


class Strategy(Enum):
    DIJKSTRA = "dijkstra"
    ASTAR = "astar"
    GBFS = "gbfs"

    def priority(self, g: int, h):
        if self is Strategy.DIJKSTRA:
            return g
        if self is Strategy.ASTAR:
            return g + h
        return h


class Verdict(Enum):
    REACHABLE = "reachable"
    UNREACHABLE = "unreachable"
    EXHAUSTED = "exhausted"


class BrokenParentChainError(RuntimeError):
    """Parent links do not lead back to the initial marking (internal bug)."""


@dataclass
class SearchLimits:
    max_expansions: int | None = None
    max_time_ms: float | None = None


@dataclass
class SearchStats:
    expanded: int = 0
    discovered: int = 0
    heuristic_calls: int = 0
    wall_time_ms: float = 0.0
    #: Markings in expansion (pop) order; the goal, when found, is last.
    expanded_markings: list[Marking] = field(default_factory=list)


@dataclass
class SearchResult:
    verdict: Verdict
    distance: Fraction | None = None
    witness: Witness | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    reason: str | None = None

    @property
    def reachable(self) -> bool:
        return self.verdict is Verdict.REACHABLE


def _scaled(h, scale: int):
    """``scale * h`` for a heuristic value ``h``: an ``int`` whenever it is
    integral, and ``INF`` itself for any float infinity."""
    if not h:
        return 0
    if isinstance(h, float):
        return INF if math.isinf(h) else h * scale
    numerator = h.numerator * scale
    if numerator % h.denominator:
        return Fraction(numerator, h.denominator)
    return numerator // h.denominator


def reconstruct_witness(parents: dict[Marking, tuple[Marking, int]], goal: Marking) -> list[int]:
    """Follow parent links from the goal back to the root; returns the
    transition sequence in firing order."""
    seq: list[int] = []
    m = goal
    for _ in range(len(parents) + 1):
        link = parents.get(m)
        if link is None:
            seq.reverse()
            return seq
        m, t = link
        seq.append(t)
    raise BrokenParentChainError(f"parent chain from {goal} does not terminate")


def directed_search(
    inst: Instance,
    strategy: Strategy = Strategy.ASTAR,
    heuristic: Heuristic | None = None,
    limits: SearchLimits | None = None,
) -> SearchResult:
    """Run the selected strategy from the instance's initial marking.

    Returns REACHABLE with an optimal distance and replayable witness
    (optimality for Dijkstra/A* with an admissible heuristic), UNREACHABLE
    when the frontier empties, or EXHAUSTED when a limit is hit.  Successors
    whose heuristic value is infinite are never inserted: admissibility
    guarantees the target is unreachable from them.
    """
    if heuristic is None:
        heuristic = zero_heuristic
    limits = limits or SearchLimits()
    net, target = inst.net, inst.target
    init = net.check_marking(inst.init)
    stats = SearchStats()
    start = time.monotonic()

    def finish(result: SearchResult) -> SearchResult:
        stats.wall_time_ms = (time.monotonic() - start) * 1000.0
        return result

    rational_weights = [Fraction(t.weight) for t in net.transitions]
    scale = math.lcm(*(w.denominator for w in rational_weights))
    weights = tuple(w.numerator * (scale // w.denominator) for w in rational_weights)

    stats.heuristic_calls += 1
    h_init = _scaled(heuristic(init), scale)
    if h_init is INF and not target.satisfied(init):
        return finish(SearchResult(Verdict.UNREACHABLE, stats=stats))

    g: dict[Marking, int] = {init: 0}
    parents: dict[Marking, tuple[Marking, int]] = {}
    stats.discovered = 1
    counter = 0
    frontier: list[tuple[object, object, int, int, Marking]] = [
        (strategy.priority(0, h_init), h_init, counter, 0, init)
    ]

    while frontier:
        if limits.max_expansions is not None and stats.expanded >= limits.max_expansions:
            return finish(SearchResult(Verdict.EXHAUSTED, stats=stats, reason="expansion limit reached"))
        if limits.max_time_ms is not None and (time.monotonic() - start) * 1000.0 > limits.max_time_ms:
            return finish(SearchResult(Verdict.EXHAUSTED, stats=stats, reason="time limit reached"))

        _, _, _, g_m, m = heapq.heappop(frontier)
        if g_m != g[m]:
            continue  # stale entry: this marking was re-pushed with a better path
        stats.expanded += 1
        stats.expanded_markings.append(m)
        if __debug__ and m in parents:
            parent, t = parents[m]
            assert g[parent] + weights[t] <= g_m, "parent link heavier than the best known path"

        if target.satisfied(m):
            witness = net.witness(reconstruct_witness(parents, m))
            # The recorded parent chain is a real path, never worse than g.
            assert witness.total_weight * scale <= g_m
            if strategy is not Strategy.GBFS:
                assert witness.total_weight * scale == g_m
            return finish(SearchResult(Verdict.REACHABLE, witness.total_weight, witness, stats))

        try:
            successors = net.successors(m)
        except TokenOverflowError as exc:
            reason = f"token overflow firing {net.transitions[exc.transition].name!r} from {m}"
            return finish(SearchResult(Verdict.EXHAUSTED, stats=stats, reason=reason))

        for t, succ in successors:
            g_new = g_m + weights[t]
            g_old = g.get(succ)
            if g_old is not None and g_new >= g_old:
                continue
            stats.heuristic_calls += 1
            h = _scaled(heuristic(succ), scale)
            if h is INF:
                continue  # the target is unreachable from succ; skip it entirely
            if g_old is None:
                stats.discovered += 1
            g[succ] = g_new
            parents[succ] = (m, t)
            counter += 1
            heapq.heappush(frontier, (strategy.priority(g_new, h), h, counter, g_new, succ))

    return finish(SearchResult(Verdict.UNREACHABLE, stats=stats))
