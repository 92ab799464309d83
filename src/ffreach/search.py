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

Every strategy evaluates a marking when it pops it, not when it pushes it
(deferred evaluation, Richter and Helmert 2009; Lazy A*, Tolpin et al.
2013).  A successor ``m'`` of ``m`` by ``t`` is pushed with the estimate
``h' = max(0, h(m) - w(t))`` in place of its own value: at ``g'`` under
Dijkstra, ``h'`` under GBFS and ``g' + h'`` under A*.  ``h'`` is admissible
at ``m'`` whenever ``h`` is, since ``h(m) <= w(t) + d(m')``.  A popped
marking that is no goal is then evaluated, the root included, which is
pushed unevaluated like any other marking.  It is dropped if its value is
infinite, pushed back at its true priority (``g``, ``h`` or ``g + h``, with
its own ``h``) if that exceeds the priority it was popped at and another
entry is waiting, and expanded otherwise.  A marking pushed back is
evaluated again when it is popped again, which the state-equation
heuristic's memo answers without a solve.  A successor that is never
popped is never evaluated, and a goal never is.

Dijkstra and A* stay optimal under this rule.  Dijkstra's true priority is
the ``g`` it popped, so it pushes nothing back, and the heuristic only drops
markings from which an admissible ``h`` proves the target unreachable.
Every priority A* pushes is ``g`` plus an admissible estimate, so it is a
lower bound on every path through its entry.  Until a goal is expanded,
the first marking of a shortest path not yet expanded at its optimal ``g``
waits in the frontier at that ``g``: its predecessor on the path pushed it
there, and its finite value never drops it.  Its priority is at most the
distance ``d``.  A goal is popped at ``g + h' >= g``, before any entry of
a smaller priority, so its ``g`` is at most ``d``.  A marking expanded
alone in the frontier, not pushed back, is the only entry there is, so
the argument holds for it too.  GBFS keeps no bound: its witness is valid
but may be longer than the distance.

A* and GBFS look ahead from every marking they expand, when the heuristic
has a ``lookahead`` method, as ``q`` and ``z`` do (lookahead from relaxed
plans, Vidal 2004; realized state-equation solutions, Wimmel and Wolf
2011).  After ``m``'s successors are pushed, ``lookahead(m, deadline)``
fires the state equation's optimal firing counts ``x*`` at ``m``, if they
are integral, in greedy index order (``PetriNet.realize``).  Firing effects
add up, so a sequence that fires ``x*`` ends in the target set, and it
weighs exactly ``h(m)``.  The search then ends REACHABLE, and its witness
is the path to ``m`` followed by that sequence, of weight ``g + h``.  Under
A* that is the distance ``d``, and only admissibility is needed.  Before
``m`` was popped, the first marking of a shortest path not yet expanded at
its optimal ``g`` waited in the frontier at a priority of at most ``d``.
If that marking is ``m``, then ``g + h <= g + d(m) = d``.  Otherwise it
still waits, and ``m`` was expanded at ``g + h``, at most the priority it
was popped at, which is at most that marking's.  No path weighs less than
``d``, so ``g + h = d``.  Dijkstra never looks ahead: its priority ``g``
does not bound ``g + h``.  The lookahead reads the search's deadline while
it fires, so ``max_time_ms`` holds inside it.

Every strategy fires, at a marking that is no goal, only the enabled
transitions of a weak stubborn set: ``net.successors(m, bounds)``, given
the target's bounds, which the search reads once with its goal test
(Valmari 1990; Wehrle and Helmert 2012 and 2014).  The set is closed under
one interference rule, what needs a place an enabled member lowers, and
Dijkstra and A* stay optimal.  ``S`` is seeded at a place that ``m``
violates: the one whose closure has the fewest enabled members, though
the argument needs only that it is violated.  Take any shortest path from
``m`` to the target, and its first transition ``t`` in ``S``: one exists,
since the path must change the place that seeds ``S``.  ``t`` is
enabled at ``m``, for else the path raises the place ``t`` waits for
before ``t``, with a transition of ``S``.  No transition before ``t``
needs a place ``t`` lowers, since every such transition is in ``S``.
Firing effects add up, so ``t`` fired first leaves each of them enabled
and the path moved this way ends where it did, at the same weight.  So
some successor kept by the reduction lies on a shortest path, and by
induction every marking keeps its distance to the target.  An admissible
heuristic stays admissible, and GBFS still reaches every reachable
target.  Witnesses may be other shortest paths than those of a search
that fires everything.

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
once, after the loop's one exit (``discovered`` is the node table's size),
and the goal test is compiled by ``TargetSpec.goal_test`` once per search,
from the bounds the stubborn sets read (a single tuple comparison for an
exact target).

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
from .net import MAX_TOKENS, Marking, TokenOverflowError, Witness


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
    """``expanded``: markings expanded, a goal included; a search that the
    lookahead ended counts the marking it looked ahead from, whose
    successors were pushed, and not the goal that the fired sequence
    reached.  ``discovered``: the node table's size, the root, markings
    later found infinite and the successors of the marking the lookahead
    ended at included.  ``heuristic_calls``: evaluations of the heuristic,
    one each time a marking that is no goal is popped from a live entry,
    the root included and repeated ones included; a goal is never
    evaluated."""

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
    """Run the selected strategy (a ``Strategy`` or its value; anything
    else raises ValueError) from the instance's initial marking, which
    must be exact: an instance with upward flags raises ValueError, and is
    searched after :func:`desugar_init`.  A target without one constraint
    per place raises NetDefinitionError.  The initial marking is taken as
    checked, as ``parse_instance`` and ``Instance.validate`` leave it (and
    ``prune_instance`` and ``desugar_init`` keep it), and is not checked again.

    Returns REACHABLE with an optimal distance and replayable witness
    (optimality for Dijkstra/A* with an admissible heuristic), UNREACHABLE
    when the frontier empties, or EXHAUSTED when a limit is hit.  A marking
    whose heuristic value is infinite is never expanded: admissibility
    guarantees the target is unreachable from it.  Every strategy keeps
    one rule (see the module docstring): a successor is pushed at its
    parent's value minus the transition's weight, and a marking is
    evaluated when it is popped and is no goal, the root included; it is
    dropped if its value is infinite, pushed back if its true priority
    exceeds the one it was popped at and another entry waits, and expanded
    otherwise; the module docstring shows why Dijkstra and A* stay optimal
    under it.  Under A* and GBFS, a heuristic with a ``lookahead`` method
    (``q`` and ``z``) fires the state equation's optimum at each marking
    expanded, after its successors are pushed; a sequence that fires it
    ends the search REACHABLE at weight ``g + h``, the distance under A*.
    A target bound above ``MAX_TOKENS`` ends the search UNREACHABLE before
    any expansion.

    ``limits.max_time_ms`` is checked between expansions and while the
    lookahead fires, but not inside a heuristic call.  A ``z`` heuristic
    stops its branch-and-bound at the ``deadline`` it was built with
    (``make_heuristic(..., deadline=)``), which ``solve_instance`` derives
    from the same limit; a caller that builds the heuristic itself passes
    that deadline too.
    """
    if inst.init_upward:
        raise ValueError("directed_search needs an exact initial marking: apply desugar_init first")
    inst._check_target()
    if strategy.__class__ is not Strategy:
        strategy = Strategy(strategy)
    if heuristic is None:
        heuristic = zero_heuristic
    net, bounds, init = inst.net, inst.target.bounds(), inst.init
    satisfied = inst.target.goal_test(bounds)
    start, scale, weights = time.monotonic(), net.scale, net.scaled_weights

    # The priority is g for Dijkstra, h for GBFS and g + h for A*.  The root
    # is the frontier's only entry, so its priority and tie-break are moot.
    dijkstra, greedy = strategy is Strategy.DIJKSTRA, strategy is Strategy.GBFS
    nodes: dict[Marking, tuple[int, Marking | None, int | None]] = {init: (0, None, None)}
    frontier: list[tuple[object, object, int, int, Marking]] = [(0, 0, 0, 0, init)]
    expanded = counter = heuristic_calls = 0
    # No place ever holds more than MAX_TOKENS tokens, so a target bound
    # above that ends the search before the root is popped.
    if any(least > MAX_TOKENS for _, least, _ in bounds):
        nodes, frontier = {}, []
    verdict, witness, reason = Verdict.UNREACHABLE, None, None

    heappop, heappush, node_of, successors_of = heapq.heappop, heapq.heappush, nodes.get, net.successors
    (max_expansions, max_time_ms), monotonic = limits or SearchLimits(), time.monotonic
    deadline = None if max_time_ms is None else start + max_time_ms / 1000.0
    # Dijkstra's priority g does not bound g + h, so it never looks ahead.
    # ``getattr``, not ``isinstance``: a wrapper may forward the attribute.
    lookahead = None if dijkstra else getattr(heuristic, "lookahead", None)
    while frontier:
        if max_expansions is not None and expanded >= max_expansions:
            verdict, reason = Verdict.EXHAUSTED, "expansion limit reached"
            break
        if deadline is not None and monotonic() > deadline:
            verdict, reason = Verdict.EXHAUSTED, "time limit reached"
            break

        f_m, _, _, g_m, m = heappop(frontier)
        node = nodes[m]
        if g_m != node[0]:
            continue  # stale entry: this marking was re-pushed with a better path
        goal = satisfied(m)
        if not goal:
            heuristic_calls += 1
            h_m = heuristic(m)
            h_m = h_m * scale if h_m.__class__ is int else _scaled(h_m, scale)
            if h_m is INF:
                continue  # the target is unreachable from m
            f = g_m if dijkstra else h_m if greedy else g_m + h_m
            if f > f_m and frontier:  # alone, it would be popped straight back
                counter += 1
                heappush(frontier, (f, h_m, counter, g_m, m))
                continue
        expanded += 1
        if __debug__ and node[1] is not None:  # node = (g, parent, t)
            assert nodes[node[1]][0] + weights[node[2]] <= g_m, "parent link heavier than the best known path"

        if goal:
            verdict, witness = Verdict.REACHABLE, net.witness(reconstruct_witness(nodes, m))
            if __debug__:
                # The recorded parent chain is a real path, never worse than
                # g; both are compared times L, as integers.
                total = sum(map(operator.mul, witness.parikh, weights))
                assert total <= g_m
                if not greedy:
                    assert total == g_m
            break

        try:
            successors = successors_of(m, bounds)
        except TokenOverflowError as exc:
            verdict = Verdict.EXHAUSTED
            reason = f"token overflow firing {net.transitions[exc.transition].name!r} from {m}"
            break

        for t, succ in successors:
            g_new = g_m + weights[t]
            old = node_of(succ)
            if old is not None and g_new >= old[0]:
                continue
            h = h_m - weights[t] if h_m > weights[t] else 0
            nodes[succ] = (g_new, m, t)
            counter += 1
            heappush(frontier, (g_new if dijkstra else h if greedy else g_new + h, h, counter, g_new, succ))

        if lookahead is not None:
            tail = lookahead(m, deadline)
            if tail is not None:
                verdict, witness = Verdict.REACHABLE, net.witness(reconstruct_witness(nodes, m) + tail)
                # The fired tail weighs exactly h(m), both times L as integers.
                assert sum([weights[t] for t in tail]) == h_m
                break

    stats = SearchStats(expanded, len(nodes), heuristic_calls, (monotonic() - start) * 1000.0)
    return SearchResult(verdict, witness and witness.total_weight, witness, stats, reason)
