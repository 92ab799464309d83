"""Best-first search over the on-the-fly reachability graph.

One generic loop covers Dijkstra (priority g), A* (g + h) and greedy
best-first search (h).  The graph is never materialized: successors are
generated by firing transitions.  With an admissible heuristic, Dijkstra
and A* return exact shortest distances; GBFS returns a valid but possibly
non-minimal witness.

Frontier management follows the classic lazy-deletion scheme: a marking is
(re)pushed whenever its best known path weight improves, and stale heap
entries are dropped on pop.  Ties are broken by smaller heuristic value,
then insertion order, so runs are fully reproducible.  One table maps each
marking reached to its node ``(g, parent, t)``: its best known path weight,
the marking it was reached from and the transition fired there (``None``
and ``None`` at the root).

Most strategies evaluate a successor when they push it and never store one
whose value is infinite.  A* with a heuristic marked ``deferred`` (the
state-equation bounds, whose solves are the costly part of a search)
evaluates a marking when it pops it instead (deferred evaluation, Richter
and Helmert 2009; Lazy A*, Tolpin et al. 2013).  A successor ``m'`` of
``m`` by ``t`` is pushed at ``g' + max(0, h(m) - w(t))``, a lower bound on
every path through ``m'`` since ``h(m) <= w(t) + d(m')`` for any admissible
``h``.  A popped marking that is no goal is then evaluated; it is dropped
if its value is infinite, pushed back at ``g + h`` if that exceeds the
priority it was popped at, and expanded otherwise.  A marking pushed back
is evaluated again when it is popped again, which the heuristic's memo
answers without a solve.  About half of the successors A* pushes are never
expanded, so they are never evaluated.

The loop runs on integers.  It reads ``L``, the lcm of the transitions'
weight denominators, and the ``L``-scaled weights from the net, which builds
them once; a path weight ``g`` is kept as the ``int`` ``L * g``, and each
heuristic value is multiplied by ``L`` too (an ``int`` whenever the product
is integral).  Scaling by ``L > 0`` keeps every priority order and every
tie, so the expansions are those of the rational loop; the reported
distance is the witness's ``Fraction`` weight.  A heuristic returns a
``Fraction`` (or ``int``), or any float infinity; an ``int`` value is scaled
by one inline multiplication, which is why ``zero`` and ``struct`` return
``int`` whenever their value is integral.

One expansion costs as little as the loop allows: its lookups are bound to
locals once per search, the priority is picked by two booleans fixed per
strategy, the counters live in locals and are written to ``SearchStats``
once, on exit, and the goal test is compiled by ``TargetSpec.goal_test``
once per search (a single tuple comparison for an exact target).

With assertions on, each expanded marking's parent link is checked in O(1)
on the node table: ``g(parent) + L * w(t) <= g(m)``.  Every link is made
with equality and a parent's ``g`` only falls later, so this holds for a
correct loop; the full parent chain is rebuilt and weighed only for the
goal's witness.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

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


class SearchLimits(NamedTuple):
    max_expansions: int | None = None
    max_time_ms: float | None = None


class SearchStats:
    """``expanded``: markings expanded, a goal included.  ``discovered``:
    markings stored in the node table.  ``heuristic_calls``: evaluations of
    the heuristic, the initial marking's and repeated ones included."""

    __slots__ = ("expanded", "discovered", "heuristic_calls", "wall_time_ms")

    def __init__(self, expanded: int = 0, discovered: int = 0, heuristic_calls: int = 0, wall_time_ms: float = 0.0):
        self.expanded, self.discovered, self.heuristic_calls = expanded, discovered, heuristic_calls
        self.wall_time_ms = wall_time_ms


class SearchResult:
    __slots__ = ("verdict", "distance", "witness", "stats", "reason")

    def __init__(self, verdict: Verdict, distance: Fraction | None = None, witness: Witness | None = None,
                 stats: SearchStats | None = None, reason: str | None = None):
        self.verdict, self.distance, self.witness, self.reason = verdict, distance, witness, reason
        self.stats = SearchStats() if stats is None else stats

    @property
    def reachable(self) -> bool:
        return self.verdict is Verdict.REACHABLE


def _scaled(h, scale: int):
    """``scale * h`` for a heuristic value ``h``: an ``int`` when integral, and
    ``INF`` for any float infinity.  The loop scales an ``int`` ``h`` inline."""
    if not h:
        return 0
    if isinstance(h, float):
        return INF if math.isinf(h) else h * scale
    numerator = h.numerator * scale
    if numerator % h.denominator:
        return Fraction(numerator, h.denominator)
    return numerator // h.denominator


def reconstruct_witness(nodes: dict[Marking, tuple[int, Marking | None, int | None]], goal: Marking) -> list[int]:
    """Follow the node table's parent links from the goal back to the root,
    whose parent is ``None``; returns the transitions in firing order."""
    seq: list[int] = []
    m = goal
    for _ in range(len(nodes)):
        _, parent, t = nodes[m]
        if parent is None:
            seq.reverse()
            return seq
        seq.append(t)
        m = parent
    raise BrokenParentChainError(f"parent chain from {goal} does not terminate")


def directed_search(
    inst: Instance,
    strategy: Strategy = Strategy.ASTAR,
    heuristic: Heuristic | None = None,
    limits: SearchLimits | None = None,
) -> SearchResult:
    """Run the selected strategy from the instance's initial marking, which
    must be exact: an instance with upward flags raises ValueError, and is
    searched after :func:`desugar_init`.  A target without one constraint
    per place raises NetDefinitionError.

    Returns REACHABLE with an optimal distance and replayable witness
    (optimality for Dijkstra/A* with an admissible heuristic), UNREACHABLE
    when the frontier empties, or EXHAUSTED when a limit is hit.  A marking
    whose heuristic value is infinite is never expanded: admissibility
    guarantees the target is unreachable from it.  It is dropped when it is
    evaluated, at push time or, for A* with a ``deferred`` heuristic, at pop
    time (see the module docstring).
    """
    if inst.init_upward:
        raise ValueError("directed_search needs an exact initial marking: apply desugar_init first")
    inst._check_target()
    if heuristic is None:
        heuristic = zero_heuristic
    limits = limits or SearchLimits()
    net, satisfied = inst.net, inst.target.goal_test()
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
    lazy = strategy is Strategy.ASTAR and getattr(heuristic, "deferred", False)
    nodes: dict[Marking, tuple[int, Marking | None, int | None]] = {init: (0, None, None)}
    expanded, discovered, heuristic_calls = 0, 1, 1
    counter = 0
    frontier: list[tuple[object, object, int, int, Marking]] = [
        (0 if dijkstra else h_init, h_init, counter, 0, init)
    ]

    heappop, heappush, node_of, successors_of = heapq.heappop, heapq.heappush, nodes.get, net.successors
    max_expansions, max_time_ms, monotonic = limits.max_expansions, limits.max_time_ms, time.monotonic
    while frontier:
        if max_expansions is not None and expanded >= max_expansions:
            result = SearchResult(Verdict.EXHAUSTED, stats=stats, reason="expansion limit reached")
            return finish(result, expanded, discovered, heuristic_calls)
        if max_time_ms is not None and (monotonic() - start) * 1000.0 > max_time_ms:
            result = SearchResult(Verdict.EXHAUSTED, stats=stats, reason="time limit reached")
            return finish(result, expanded, discovered, heuristic_calls)

        f_m, _, _, g_m, m = heappop(frontier)
        node = nodes[m]
        if g_m != node[0]:
            continue  # stale entry: this marking was re-pushed with a better path
        goal = satisfied(m)
        if lazy and not goal:
            heuristic_calls += 1
            h_m = heuristic(m)
            h_m = h_m * scale if h_m.__class__ is int else _scaled(h_m, scale)
            if h_m is INF:
                continue
            if g_m + h_m > f_m:
                counter += 1
                heappush(frontier, (g_m + h_m, h_m, counter, g_m, m))
                continue
        expanded += 1
        if __debug__ and node[1] is not None:  # node = (g, parent, t)
            assert nodes[node[1]][0] + weights[node[2]] <= g_m, "parent link heavier than the best known path"

        if goal:
            witness = net.witness(reconstruct_witness(nodes, m))
            if __debug__:
                # The recorded parent chain is a real path, never worse than
                # g; both are compared times L, as integers.
                total = sum(map(operator.mul, witness.parikh, weights))
                assert total <= g_m
                if not greedy:
                    assert total == g_m
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
            old = node_of(succ)
            if old is not None and g_new >= old[0]:
                continue
            if lazy:
                h = h_m - weights[t] if h_m > weights[t] else 0
            else:
                heuristic_calls += 1
                h = heuristic(succ)
                h = h * scale if h.__class__ is int else _scaled(h, scale)
                if h is INF:
                    continue  # the target is unreachable from succ; skip it entirely
            if old is None:
                discovered += 1
            nodes[succ] = (g_new, m, t)
            counter += 1
            heappush(frontier, (g_new if dijkstra else h if greedy else g_new + h, h, counter, g_new, succ))

    return finish(SearchResult(Verdict.UNREACHABLE, stats=stats), expanded, discovered, heuristic_calls)
