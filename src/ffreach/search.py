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
"""

from __future__ import annotations

import heapq
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

    def priority(self, g: Fraction, h):
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

    stats.heuristic_calls += 1
    h_init = heuristic(init)
    if h_init == INF and not target.satisfied(init):
        return finish(SearchResult(Verdict.UNREACHABLE, stats=stats))

    g: dict[Marking, Fraction] = {init: Fraction(0)}
    parents: dict[Marking, tuple[Marking, int]] = {}
    stats.discovered = 1
    counter = 0
    frontier: list[tuple[object, object, int, Fraction, Marking]] = [
        (strategy.priority(Fraction(0), h_init), h_init, counter, Fraction(0), init)
    ]

    while frontier:
        if limits.max_expansions is not None and stats.expanded >= limits.max_expansions:
            return finish(SearchResult(Verdict.EXHAUSTED, stats=stats, reason="expansion limit reached"))
        if limits.max_time_ms is not None and (time.monotonic() - start) * 1000.0 > limits.max_time_ms:
            return finish(SearchResult(Verdict.EXHAUSTED, stats=stats, reason="time limit reached"))

        _, _, _, g_pushed, m = heapq.heappop(frontier)
        if g_pushed != g[m]:
            continue  # stale entry: this marking was re-pushed with a better path
        stats.expanded += 1
        stats.expanded_markings.append(m)
        if __debug__:
            chain = reconstruct_witness(parents, m)
            chain_weight = sum((net.transitions[t].weight for t in chain), Fraction(0))
            assert chain_weight <= g[m], "best known path beaten by its own parent chain"

        if target.satisfied(m):
            seq = reconstruct_witness(parents, m)
            witness = net.witness(seq)
            # The recorded parent chain is a real path, never worse than g.
            assert witness.total_weight <= g[m]
            if strategy is not Strategy.GBFS:
                assert witness.total_weight == g[m]
            return finish(SearchResult(Verdict.REACHABLE, witness.total_weight, witness, stats))

        try:
            successors = net.successors(m)
        except TokenOverflowError as exc:
            reason = f"token overflow firing {net.transitions[exc.transition].name!r} from {m}"
            return finish(SearchResult(Verdict.EXHAUSTED, stats=stats, reason=reason))

        g_m = g[m]
        for t, succ in successors:
            g_new = g_m + net.transitions[t].weight
            g_old = g.get(succ)
            if g_old is not None and g_new >= g_old:
                continue
            stats.heuristic_calls += 1
            h = heuristic(succ)
            if h == INF:
                continue  # the target is unreachable from succ; skip it entirely
            if g_old is None:
                stats.discovered += 1
            g[succ] = g_new
            parents[succ] = (m, t)
            counter += 1
            heapq.heappush(frontier, (strategy.priority(g_new, h), h, counter, g_new, succ))

    return finish(SearchResult(Verdict.UNREACHABLE, stats=stats))
