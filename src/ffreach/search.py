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

The loop runs on integers.  It reads ``L``, the lcm of the transitions'
weight denominators, and the ``L``-scaled weights from the net, which builds
them once; a path weight ``g`` is kept as the ``int`` ``L * g``, and each
heuristic value is multiplied by ``L`` too (an ``int`` whenever the product
is integral).  Scaling by ``L > 0`` keeps every priority order and every
tie, so the expansions are those of the rational loop; the reported
distance is the witness's ``Fraction`` weight.  A heuristic returns a
``Fraction`` (or ``int``), or any float infinity; an ``int`` value is scaled
by one multiplication, which is why ``zero`` and ``struct`` return ``int``
whenever their value is integral.

One expansion costs as little as the loop allows: its lookups are bound to
locals once per search, the priority is picked by two booleans fixed per
strategy, the counters live in locals and are written to ``SearchStats``
once, on exit, and the goal test is the one ``TargetSpec`` compiled when it
was made (a single tuple comparison for an exact target).

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
    if h.__class__ is int:
        return h * scale
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
    net, satisfied = inst.net, inst.target.satisfied
    init = net.check_marking(inst.init)
    stats = SearchStats()
    start = time.monotonic()

    def finish(result: SearchResult, expanded: int, discovered: int, heuristic_calls: int) -> SearchResult:
        stats.expanded, stats.discovered, stats.heuristic_calls = expanded, discovered, heuristic_calls
        stats.wall_time_ms = (time.monotonic() - start) * 1000.0
        return result

    scale, weights = net.scale, net.scaled_weights

    h_init = _scaled(heuristic(init), scale)
    if h_init is INF and not satisfied(init):
        return finish(SearchResult(Verdict.UNREACHABLE, stats=stats), 0, 0, 1)

    # The priority is g for Dijkstra, h for GBFS and g + h for A*.
    dijkstra, greedy = strategy is Strategy.DIJKSTRA, strategy is Strategy.GBFS
    g: dict[Marking, int] = {init: 0}
    parents: dict[Marking, tuple[Marking, int]] = {}
    expanded, discovered, heuristic_calls = 0, 1, 1
    counter = 0
    frontier: list[tuple[object, object, int, int, Marking]] = [
        (0 if dijkstra else h_init, h_init, counter, 0, init)
    ]

    heappop, heappush, g_get, successors_of = heapq.heappop, heapq.heappush, g.get, net.successors
    max_expansions, max_time_ms, monotonic = limits.max_expansions, limits.max_time_ms, time.monotonic
    record_expanded = stats.expanded_markings.append
    while frontier:
        if max_expansions is not None and expanded >= max_expansions:
            result = SearchResult(Verdict.EXHAUSTED, stats=stats, reason="expansion limit reached")
            return finish(result, expanded, discovered, heuristic_calls)
        if max_time_ms is not None and (monotonic() - start) * 1000.0 > max_time_ms:
            result = SearchResult(Verdict.EXHAUSTED, stats=stats, reason="time limit reached")
            return finish(result, expanded, discovered, heuristic_calls)

        _, _, _, g_m, m = heappop(frontier)
        if g_m != g[m]:
            continue  # stale entry: this marking was re-pushed with a better path
        expanded += 1
        record_expanded(m)
        if __debug__ and m in parents:
            parent, t = parents[m]
            assert g[parent] + weights[t] <= g_m, "parent link heavier than the best known path"

        if satisfied(m):
            witness = net.witness(reconstruct_witness(parents, m))
            # The recorded parent chain is a real path, never worse than g.
            assert witness.total_weight * scale <= g_m
            if not greedy:
                assert witness.total_weight * scale == g_m
            result = SearchResult(Verdict.REACHABLE, witness.total_weight, witness, stats)
            return finish(result, expanded, discovered, heuristic_calls)

        try:
            successors = successors_of(m)
        except TokenOverflowError as exc:
            reason = f"token overflow firing {net.transitions[exc.transition].name!r} from {m}"
            result = SearchResult(Verdict.EXHAUSTED, stats=stats, reason=reason)
            return finish(result, expanded, discovered, heuristic_calls)

        for t, succ in successors:
            g_new = g_m + weights[t]
            g_old = g_get(succ)
            if g_old is not None and g_new >= g_old:
                continue
            heuristic_calls += 1
            h = _scaled(heuristic(succ), scale)
            if h is INF:
                continue  # the target is unreachable from succ; skip it entirely
            if g_old is None:
                discovered += 1
            g[succ] = g_new
            parents[succ] = (m, t)
            counter += 1
            heappush(frontier, (g_new if dijkstra else h if greedy else g_new + h, h, counter, g_new, succ))

    return finish(SearchResult(Verdict.UNREACHABLE, stats=stats), expanded, discovered, heuristic_calls)
