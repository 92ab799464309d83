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
  where it cannot, it re-solves from a remembered predecessor's basis.  It
  keeps each optimum as the simplex tableau's integers, so deriving makes
  no ``Fraction`` unless the value itself is fractional.  It builds the
  system's integer standard form once; a cold solve, the first of a
  search, writes only the right-hand side into it, unless
  ``PetriNet.dead_end`` finds a place the marking violates with an empty
  seed, as ``PetriNet.successors`` reads seeds, and the value is INF.  The
  net's firing records and masks are read only in ``net``.
* ``d_struct`` (:class:`StructHeuristic`): shortest paths in a place-level
  abstraction where each transition becomes edges from its input places to
  its output places; each place's cost to reach the target comes from one
  Dijkstra from the target's support over the reversed edges.
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
from .ratlp import (DEFAULT_ILP_NODE_BUDGET, OutcomeKind, RationalLP, Relation, Row, StandardForm, Tableau,
                    ilp_min, simplex_min)

#: Extended value for "target unreachable even in the relaxation".
INF = math.inf

#: A heuristic is any callable from markings to a Fraction (or int), or to
#: a float infinity such as INF.  Every heuristic here returns an ``int``
#: whenever the value is integral, which the search scales fastest.
Heuristic = Callable[[Marking], object]


#: The pending shift of a solved marking's own tableau; never mutated.
_NO_SHIFT: dict[int, int] = {}

#: The memo entry of a marking whose state equation has no solution.
_INFINITE = (INF, 0, None, 1, None, _NO_SHIFT)


def _quotient(num: int, den: int):
    """``num / den`` for ``den > 0``: an ``int`` when integral, else a Fraction."""
    if num % den:
        return Fraction(num, den)
    return num // den


class StateEquationHeuristic:
    """``d_Q`` (rational firing counts) or, with ``integral``, ``d_Z``.

    The state equation has one nonnegative variable per transition (its
    number of firings) and one row per place: the accumulated effect must
    close the gap to the target bound, exactly for ``=`` constraints and at
    least for ``>=`` constraints.  The ``>=`` rows realize the minimum over
    the whole (infinite) target set without enumerating it.  Coefficients
    and objective depend on the net only; a marking only shifts the
    right-hand side.  So the system's integer standard form is built once,
    and a cold solve reads :meth:`form`, which writes only the right-hand
    side; :meth:`lp` is the reference problem it stands for.  Before that,
    a cold solve asks ``PetriNet.dead_end``, which reads the seeds of
    ``PetriNet.successors``: a place below its least target count that no
    transition raises, or above its most count that none lowers, has an
    empty seed, so no firing count closes its gap and ``m`` is INF, for
    ``q`` and ``z`` alike.

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

    The memo keeps an optimum as the integers of the tableau it was read
    from (the LP's final tableau, or the optimal ILP node's), over that
    tableau's ``den``: ``x*`` times ``den``, and the value times
    ``den * L`` for the lcm ``L`` of the weight denominators, by which the
    simplex scales the objective.  So deriving tests ``x*_t >= 1`` as a
    numerator ``>= den`` and subtracts ``L * w(t) * den`` from the value's
    numerator; a warm ``q`` or ``z`` re-solve builds no problem at all,
    since the dual simplex reads only its start, and a warm ``z`` re-solve
    skips the lattice test its predecessor passed.  A value is returned as an
    ``int`` whenever it is integral, and as a ``Fraction`` otherwise.

    ``x*`` is a relaxed plan as well as a bound (Vidal 2004; Wimmel and Wolf
    2011): :meth:`lookahead` fires an integral ``x*`` from ``m`` in greedy
    order.  Firing effects add up, so a sequence that fires it ends at
    ``m + C x*``, in the target set, and weighs exactly ``h(m)``; the search
    ends there when it can.
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
        self._net = net
        self._bounds = target.bounds()
        # The simplex scales the objective to ``L * w(t)`` and reads values
        # over ``den * L``, for the net's ``L``.
        self._scaled_weights, self._scale = net.scaled_weights, net.scale
        # Column t of the state equation: transition t's produce minus guard.
        self._effects = effects = tuple([tuple(map(operator.sub, t.produce, t.guard)) for t in net.transitions])
        # Row p of its integer standard form, as (row, relation, bound):
        # place p's entry of every effect, then one surplus column per >=
        # row, -1 in the row's own.  Effects are ints, so no row is scaled.
        constraints = target.constraints
        zeros = (0,) * sum(rel is Relation.GEQ for rel, _ in constraints)
        rows: list[tuple[tuple[int, ...], Relation, int]] = []
        geq_seen = 0
        for coeffs, (rel, bound) in zip(zip(*effects) if effects else [()] * len(constraints), constraints):
            if rel is Relation.GEQ:
                rows.append((coeffs + zeros[:geq_seen] + (-1,) + zeros[geq_seen + 1 :], rel, bound))
                geq_seen += 1
            else:
                rows.append((coeffs + zeros, rel, bound))
        self._rows = tuple(rows)
        # The ``=`` rows' coefficients, one object shared by every form.
        self._eq_coeffs = tuple([row[: len(effects)] for row, rel, _ in rows if rel is Relation.EQ])
        #: marking -> (value; for an optimum, its value times ``den * L``,
        #: firing counts times ``den``, and ``den``, else 0, None and 1;
        #: tableau, None only for INF; pending shift of that tableau)
        self._memo: dict[Marking, tuple[object, int, tuple[int, ...] | None, int, Tableau | None, dict[int, int]]] = {}
        #: States ``(marking, counts left)`` from which :meth:`lookahead`'s
        #: greedy firing is known to fail (``PetriNet.realize``).
        self._failed: set[tuple[Marking, tuple[int, ...]]] = set()

    def lp(self, m: Marking) -> RationalLP:
        """The state equation for reaching the target set from ``m``: the
        reference problem, which :meth:`form` writes in standard form."""
        n = len(self._effects)
        rows = tuple(Row(row[:n], rel, bound - tokens) for (row, rel, bound), tokens in zip(self._rows, m))
        return RationalLP(n, tuple(t.weight for t in self._net.transitions), rows)

    def form(self, m: Marking) -> StandardForm:
        """``standard_form(self.lp(m))``, written from the rows built once:
        each row gets the gap ``bound - m[p]`` as its right-hand side, and
        is negated when the gap is negative."""
        n, lines, eq_rhs = len(self._effects), [], []
        for (row, rel, bound), tokens in zip(self._rows, m):
            rhs = bound - tokens
            lines.append([*row, rhs] if rhs >= 0 else [*map(operator.neg, row), -rhs])
            if rel is Relation.EQ:
                eq_rhs.append(rhs)
        return StandardForm(lines, n, self._scaled_weights, self._scale, self._eq_coeffs, tuple(eq_rhs))

    def __call__(self, m: Marking):
        """The remembered value of ``m``, else one derived from a remembered
        predecessor's optimum, else an LP or ILP solve, warm-started from a
        remembered predecessor's tableau where there is one."""
        memo = self._memo
        known = memo.get(m)
        if known is not None:
            return known[0]
        warm = None
        for t, effect in enumerate(self._effects if memo else ()):  # a first call has no predecessor
            pred = memo.get(tuple(map(operator.sub, m, effect)))
            if pred is None:
                continue
            value, num, point, den, tableau, shift = pred
            if value is INF:
                memo[m] = _INFINITE
                return INF
            if point is not None and point[t] >= den:
                num -= self._scaled_weights[t] * den
                value = _quotient(num, den * self._scale)
                point = (*point[:t], point[t] - den, *point[t + 1 :])
                memo[m] = (value, num, point, den, tableau, {**shift, t: shift.get(t, 0) + 1})
                return value
            if warm is None:
                warm = (tableau, shift, t)

        start = None
        if warm is not None:
            tableau, shift, t = warm
            start = tableau.shifted({**shift, t: shift.get(t, 0) + 1})
        elif self._net.dead_end(m, self._bounds):  # see the class docstring
            memo[m] = _INFINITE
            return INF
        if self.integral:
            outcome = ilp_min(None if start else self.form(m), self.ilp_node_budget, start, self.deadline)
        else:
            outcome = simplex_min(None if start else self.form(m), start)
        if outcome.kind is OutcomeKind.INFEASIBLE:
            known = _INFINITE
        elif outcome.kind is OutcomeKind.BUDGET_EXHAUSTED:
            bound = outcome.lower_bound
            known = (_quotient(bound.numerator, bound.denominator), 0, None, 1, outcome.tableau, _NO_SHIFT)
        else:
            assert outcome.kind is OutcomeKind.OPTIMAL, "positive weights keep the LP bounded"
            optimum = outcome.optimum
            num, unit = optimum.value()
            known = (_quotient(num, unit), num, tuple(optimum.point()), optimum.den, outcome.tableau, _NO_SHIFT)
        memo[m] = known
        return known[0]

    def lookahead(self, m: Marking, deadline: float | None = None) -> list[int] | None:
        """A sequence from ``m``, which this object has answered, that fires
        its remembered optimum ``x*``, or None.  None when ``m`` has no
        ``x*`` (INF, or a ``z`` whose budget or deadline ran out), when a
        count of ``x*`` is fractional (never rounded through ``z``), or when
        ``PetriNet.realize`` finds no sequence before ``deadline``.  A
        sequence returned ends in the target set, since ``x*`` solves the
        state equation, and weighs exactly the value of ``m``.  The states
        of the greedy runs that failed are kept, so a successor derived
        along such a run, whose own run would take the same steps, fails at
        once."""
        _, _, point, den, _, _ = self._memo[m]
        if point is None or any(count % den for count in point):
            return None
        return self._net.realize(m, [count // den for count in point], deadline, self._failed)


class StructHeuristic:
    """``d_struct``: every token must travel to a legal target place or be
    destroyed; the slowest such token gives the bound.

    Nodes of the abstraction are the places plus a sink that stands for
    "token created from nothing / destroyed"; each transition is an edge
    from each of its input places (or the sink) to each of its output
    places (or the sink).  A place's cost ``kappa`` is the minimal weight
    that moves a token from it to the target support (the places a target
    marking may hold tokens in) or to the sink, or INF.  Built once: one
    Dijkstra from the support and the sink over the reversed edges.
    """

    def __init__(self, net: PetriNet, target: TargetSpec):
        sink = net.num_places
        # The reversed edges, into each output place or the sink.  A
        # transition without inputs leaves the sink, whose cost is 0, so it
        # adds none.  Dijkstra runs on the net's weights times ``scale``
        # (``L``), as ints; costs are divided back at the end.
        preds: list[list[tuple[int, int]]] = [[] for _ in range(sink + 1)]
        for trans, weight in zip(net.transitions, net.scaled_weights):
            for q in [q for q, count in enumerate(trans.produce) if count] or [sink]:
                preds[q].extend((p, weight) for p, need in enumerate(trans.guard) if need)

        # Places where a token may legally sit in some target marking, plus
        # the sink, all at cost 0; in increasing order, so already a heap.
        heap = [(0, p) for p, (rel, bound) in enumerate(target.constraints) if rel is Relation.GEQ or bound > 0]
        heap.append((0, sink))
        cost: list[object] = [INF] * (sink + 1)
        for _, p in heap:
            cost[p] = 0
        while heap:
            d, node = heapq.heappop(heap)
            if d > cost[node]:
                continue
            for p, weight in preds[node]:
                if d + weight < cost[p]:
                    cost[p] = d + weight
                    heapq.heappush(heap, (d + weight, p))

        # Places of positive cost, costliest first: the first marked one
        # gives the value, an ``int`` when integral.  The sink is marked in
        # every marking and costs 0.
        self._by_cost = tuple(
            (p, k if k is INF else _quotient(k, net.scale))
            for p, k in sorted(enumerate(cost[:sink]), key=lambda entry: entry[1], reverse=True)
            if k
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
    branch-and-bound like its node budget.  ``SearchLimits.max_time_ms``
    does not reach inside a heuristic call: ``directed_search`` checks it
    only between expansions and in the lookahead.  So a caller that bounds
    a search's time passes the matching deadline here, as
    ``solve_instance`` does."""
    if name in ("q", "z"):
        return StateEquationHeuristic(inst.net, inst.target, name == "z", ilp_node_budget, deadline)
    if name == "struct":
        return StructHeuristic(inst.net, inst.target)
    if name == "zero":
        return zero_heuristic
    raise ValueError(f"unknown heuristic {name!r}; expected one of {HEURISTIC_NAMES}")
