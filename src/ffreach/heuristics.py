"""Distance under-approximations used as search heuristics.

A heuristic is a callable from markings to a nonnegative rational lower
bound on the remaining distance to the target set, or to infinity when even
the relaxed problem is unsolvable.  Lower bounds must never over-estimate:
that is what makes best-first search with them return true shortest
distances.

Three families are provided, each bound to one net and target when built:

* ``d_Q`` / ``d_Z`` (:class:`StateEquationHeuristic`): minimal-weight
  solutions of the token conservation system ("how often must each
  transition fire, ignoring ordering"), over nonnegative rationals resp.
  integers.  One object remembers its answers and derives a marking's value
  from a remembered predecessor's optimum where it can, instead of solving;
  where it cannot, it re-solves from a remembered predecessor's basis.
* ``d_struct`` (:class:`StructHeuristic`): shortest paths in a place-level
  abstraction where each transition becomes edges from its input places to
  its output places.
* the zero heuristic, which turns best-first search into Dijkstra.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from typing import Callable

from .instance_io import Instance, TargetSpec
from .net import Marking, PetriNet
from .ratlp import DEFAULT_ILP_NODE_BUDGET, OutcomeKind, RationalLP, Relation, Row, Tableau, ilp_min, simplex_min

#: Extended value for "target unreachable even in the relaxation".
INF = math.inf

#: A heuristic is any callable from markings to a Fraction (or int), or to
#: a float infinity such as INF.  ``zero_heuristic`` and ``StructHeuristic``
#: return an ``int`` whenever the value is integral, which the search scales
#: fastest; ``StateEquationHeuristic`` returns ``Fraction``s.
Heuristic = Callable[[Marking], object]


#: The pending shift of a solved marking's own tableau; never mutated.
_NO_SHIFT: dict[int, int] = {}


def _as_int(value):
    """``value`` as an ``int`` when it is an integral Fraction, else unchanged."""
    if value is not INF and value.denominator == 1:
        return value.numerator
    return value


class StateEquationHeuristic:
    """``d_Q`` (rational firing counts) or, with ``integral``, ``d_Z``.

    The state equation has one nonnegative variable per transition (its
    number of firings) and one row per place: the accumulated effect must
    close the gap to the target bound, exactly for ``=`` constraints and at
    least for ``>=`` constraints.  The ``>=`` rows realize the minimum over
    the whole (infinite) target set without enumerating it.  Coefficients
    and objective depend on the net only; a marking only shifts the
    right-hand side.

    With ``integral``, when the branch-and-bound node budget runs out the
    proven lower bound is returned instead; it is sandwiched between the
    rational optimum and the integer optimum, so it is still a valid
    distance under-approximation.

    Each object remembers, for every marking it has answered, the value and
    the optimal firing-count vector ``x*`` (``None`` for INF and for a
    budget-exhausted ILP).  A marking ``m`` whose predecessor
    ``m - effect(t)`` is known with ``x*_t >= 1`` is answered without a
    solve: ``x* - e_t`` is feasible at ``m``, and any ``x`` feasible at
    ``m`` gives ``x + e_t`` feasible at the predecessor, so ``x* - e_t`` is
    optimal and the value is the predecessor's minus ``w(t)``.  For ``z``
    this needs the predecessor's ILP solved to optimality, hence no vector
    is kept for a budget-exhausted one; a derived ``z`` value is then the
    exact integer optimum, which a from-scratch solve of ``m`` reaches too
    unless its own node budget runs out first.  A marking whose predecessor
    is known to be INF is INF too, by the same argument: a feasible ``x`` at
    ``m`` would give the feasible ``x + e_t`` at the predecessor, and
    ``x + e_t`` is integral when ``x`` is.  It is answered without a solve,
    where a budget-limited ``z`` solve of ``m`` might have stopped at a
    finite lower bound.

    The memo also keeps a simplex basis for every finite marking: a solved
    marking keeps its outcome's final tableau (for ``z`` the root
    relaxation's, which stays valid whatever the integer point is, and is
    kept for a budget-exhausted ILP too), and a derived marking keeps its
    predecessor's tableau plus a pending shift ``{t: count}``, the firings
    between the marking that was solved and this one, so deriving stays
    O(1).  Reaching ``m`` from a remembered predecessor by ``t`` moves the
    right-hand side by ``-effect(t)``, which is the shift ``x = x' + e_t``,
    so any other marking with a remembered, finite predecessor is re-solved
    by the dual simplex from that predecessor's tableau, shifted by its
    pending shift plus ``e_t``, instead of from scratch.  ``deadline``
    (a ``time.monotonic()`` value) stops a ``z`` branch-and-bound the way
    the node budget does.
    """

    def __init__(
        self,
        net: PetriNet,
        target: TargetSpec,
        integral: bool = False,
        ilp_node_budget: int = DEFAULT_ILP_NODE_BUDGET,
        deadline: float | None = None,
    ):
        self.integral = integral
        self.ilp_node_budget = ilp_node_budget
        self.deadline = deadline
        self._objective = tuple(t.weight for t in net.transitions)
        # Row p is column p of the net's effect table.  Effects and token
        # gaps stay ints, so the simplex needs no scaling.
        self._effects = effects = net._effects
        self._rows = tuple(
            (tuple(effect[p] for effect in effects), rel, bound) for p, (rel, bound) in enumerate(target.constraints)
        )
        #: marking -> (value, optimal firing-count vector or None,
        #: tableau or None, pending shift of that tableau)
        self._memo: dict[Marking, tuple[object, tuple[Fraction, ...] | None, Tableau | None, dict[int, int]]] = {}

    def lp(self, m: Marking) -> RationalLP:
        """The state equation for reaching the target set from ``m``."""
        rows = tuple(
            Row(coeffs, rel, bound - tokens) for (coeffs, rel, bound), tokens in zip(self._rows, m)
        )
        return RationalLP(len(self._objective), self._objective, rows)

    def __call__(self, m: Marking):
        """The remembered value of ``m``, else one derived from a remembered
        predecessor's optimum, else an LP or ILP solve, warm-started from a
        remembered predecessor's tableau where there is one."""
        memo = self._memo
        known = memo.get(m)
        if known is not None:
            return known[0]
        warm = None
        for t, (effect, weight) in enumerate(zip(self._effects, self._objective)):
            pred = memo.get(tuple(map(operator.sub, m, effect)))
            if pred is None:
                continue
            value, point, tableau, shift = pred
            if value is INF:
                memo[m] = (INF, None, None, _NO_SHIFT)
                return INF
            if point is not None and point[t] >= 1:
                h = value - weight
                memo[m] = (h, point[:t] + (point[t] - 1,) + point[t + 1 :], tableau, {**shift, t: shift.get(t, 0) + 1})
                return h
            if warm is None and tableau is not None:
                warm = (tableau, shift, t)

        start = None
        if warm is not None:
            tableau, shift, t = warm
            start = tableau.shifted({**shift, t: shift.get(t, 0) + 1})
        if self.integral:
            outcome = ilp_min(self.lp(m), self.ilp_node_budget, start, self.deadline)
        else:
            outcome = simplex_min(self.lp(m), start)
        if outcome.kind is OutcomeKind.INFEASIBLE:
            known = (INF, None, None, _NO_SHIFT)
        elif outcome.kind is OutcomeKind.BUDGET_EXHAUSTED:
            known = (outcome.lower_bound, None, outcome.tableau, _NO_SHIFT)
        else:
            assert outcome.kind is OutcomeKind.OPTIMAL, "positive weights keep the LP bounded"
            known = (outcome.value, outcome.point, outcome.tableau, _NO_SHIFT)
        memo[m] = known
        return known[0]


class StructHeuristic:
    """``d_struct``: every token must travel to a legal target place or be
    destroyed; the slowest such token gives the bound.

    Nodes of the abstraction are the places plus a sink (index ``sink``)
    that stands for "token created from nothing / destroyed".  ``dist[p][q]``
    is the minimal weight needed to move a token from p to q through
    transitions, or INF.  Built once: all-pairs Dijkstra, then each place's
    cost to reach the target support.
    """

    def __init__(self, net: PetriNet, target: TargetSpec):
        self.sink = sink = net.num_places
        num_nodes = sink + 1
        # Dijkstra runs on the net's weights times ``scale`` (``L``), as
        # ints; distances are divided back at the end.
        scale = net.scale
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for trans, guard, weight in zip(net.transitions, net._guards, net.scaled_weights):
            ins = [p for p, _ in guard] or [sink]
            outs = [p for p, count in enumerate(trans.produce) if count] or [sink]
            for p in ins:
                for q in outs:
                    if p != q:
                        adjacency[p].append((q, weight))

        table = []
        for source in range(num_nodes):
            dist: list[object] = [INF] * num_nodes
            dist[source] = 0
            heap: list[tuple[int, int]] = [(0, source)]
            while heap:
                d, node = heapq.heappop(heap)
                if d > dist[node]:
                    continue
                for succ, weight in adjacency[node]:
                    nd = d + weight
                    if nd < dist[succ]:
                        dist[succ] = nd
                        heapq.heappush(heap, (nd, succ))
            table.append(dist)
        # One Fraction per distinct distance; INF stays INF.
        exact = {d: Fraction(d, scale) for dist in table for d in dist if d is not INF}
        self.dist = tuple(tuple(exact.get(d, INF) for d in dist) for dist in table)

        # Places where a token may legally sit in some target marking, plus sink.
        support = [p for p, (rel, bound) in enumerate(target.constraints) if rel is Relation.GEQ or bound > 0]
        support.append(sink)
        kappa = (min(self.dist[p][q] for q in support) for p in range(net.num_places))
        # Places of positive cost, costliest first: the first marked one
        # gives the value, an ``int`` when integral.  The sink is marked in
        # every marking and costs 0.
        self._by_cost = tuple(
            sorted(((p, _as_int(k)) for p, k in enumerate(kappa) if k > 0), key=lambda entry: entry[1], reverse=True)
        )

    def __call__(self, m: Marking):
        for p, kappa in self._by_cost:
            if m[p]:
                return kappa
        return 0


def zero_heuristic(m: Marking) -> int:
    """The trivial bound; plugged into best-first search it yields Dijkstra."""
    return 0


HEURISTIC_NAMES = ("q", "z", "struct", "zero")


def make_heuristic(
    name: str,
    inst: Instance,
    ilp_node_budget: int = DEFAULT_ILP_NODE_BUDGET,
    deadline: float | None = None,
) -> Heuristic:
    """Factory keyed by the public heuristic names: q, z, struct, zero.

    ``deadline`` (a ``time.monotonic()`` value) bounds each ``z``
    branch-and-bound like its node budget."""
    if name in ("q", "z"):
        return StateEquationHeuristic(inst.net, inst.target, name == "z", ilp_node_budget, deadline)
    if name == "struct":
        return StructHeuristic(inst.net, inst.target)
    if name == "zero":
        return zero_heuristic
    raise ValueError(f"unknown heuristic {name!r}; expected one of {HEURISTIC_NAMES}")
