import random
from collections import deque
from fractions import Fraction
from itertools import permutations

import pytest

from ffreach import (
    Instance,
    OutcomeKind,
    PetriNet,
    Relation,
    StateEquationHeuristic,
    Strategy,
    StructHeuristic,
    TargetSpec,
    Transition,
    desugar_init,
    directed_search,
    ilp_min,
    simplex_min,
)
from ffreach.heuristics import zero_heuristic
from ffreach.ratlp import DEFAULT_ILP_NODE_BUDGET, standard_form
from ffreach import heuristics
from ffreach.heuristics import INF
from conftest import parity_net, search_expanding
from oracles import (
    enumerate_reachable,
    integer_box_min,
    random_bounded_instance,
    reference_simplex_min,
    remaining_distances,
)

F = Fraction


class TestStateEquationConstruction:
    def test_rows_for_exact_target(self, n1):
        target = TargetSpec.exact((0, 1))
        lp = StateEquationHeuristic(n1, target).lp((0, 0))
        assert lp.num_vars == 3
        assert lp.objective == (F(1), F(1), F(1))
        assert lp.rows[0].coeffs == (F(1), F(0), F(-1))  # place p1
        assert lp.rows[0].relation is Relation.EQ
        assert lp.rows[0].rhs == 0
        assert lp.rows[1].coeffs == (F(0), F(1), F(0))  # place p2
        assert lp.rows[1].rhs == 1

    def test_rhs_shifts_with_source_marking(self, n1):
        target = TargetSpec.exact((0, 1))
        dq = StateEquationHeuristic(n1, target)
        assert dq.lp((1, 0)).rows[0].rhs == -1
        assert dq((1, 0)) == 2

    def test_cover_target_uses_geq_rows(self, n1):
        target = TargetSpec(((Relation.GEQ, 0), (Relation.GEQ, 1)))
        dq = StateEquationHeuristic(n1, target)
        assert dq.lp((0, 0)).rows[0].relation is Relation.GEQ
        assert dq((0, 0)) == 1


class TestRationalDistance:
    def test_reference_values(self, n1):
        dq = StateEquationHeuristic(n1, TargetSpec.exact((0, 1)))
        expected = {
            (0, 0): F(1),
            (1, 0): F(2),
            (2, 0): F(3),
            (1, 1): F(1),
            (3, 0): F(4),
            (2, 1): F(2),
            (0, 1): F(0),
            (1, 2): INF,
        }
        for marking, value in expected.items():
            assert dq(marking) == value


class TestIntegerDistance:
    def test_parity_gap(self):
        net = parity_net()
        target = TargetSpec.exact((3,))
        dq = StateEquationHeuristic(net, target)
        dz = StateEquationHeuristic(net, target, integral=True)
        assert dq((0,)) == F(3, 2)
        assert dz((0,)) == INF

    def test_two_nets_in_turn(self):
        # The same state-equation shape with effects +2 and +1: z at a
        # fresh object solves, and one net's cached lattice reduction must
        # never answer for the other's.
        target = TargetSpec.exact((5,))
        single = PetriNet(["p"], [Transition("t", (0,), (1,))], name="single")
        for tokens in range(6):
            gap = 5 - tokens
            assert StateEquationHeuristic(parity_net(), target, integral=True)((tokens,)) == (
                INF if gap % 2 else gap // 2
            )
            assert StateEquationHeuristic(single, target, integral=True)((tokens,)) == gap

    def test_matches_rational_at_integral_optima(self, n1):
        dz = StateEquationHeuristic(n1, TargetSpec.exact((0, 1)), integral=True)
        assert dz((0, 0)) == 1
        assert dz((1, 1)) == 1

    def test_budget_exhaustion_falls_back_to_lower_bound(self):
        # Two producers of 3 resp. 2 tokens; hitting exactly 4 needs branching
        # past the fractional optimum 4/3, which a budget of one node forbids.
        net = PetriNet(["p"], [Transition("t3", (0,), (3,)), Transition("t2", (0,), (2,))])
        target = TargetSpec.exact((4,))
        dz = StateEquationHeuristic(net, target, integral=True, ilp_node_budget=1)
        assert dz((0,)) == F(4, 3)
        exact = StateEquationHeuristic(net, target, integral=True)
        assert exact((0,)) == 2

    def test_context_is_callable(self, n1):
        dz = StateEquationHeuristic(n1, TargetSpec.exact((0, 1)), integral=True)
        assert dz((0, 0)) == 1


@pytest.fixture
def solves(monkeypatch):
    """Records every LP and ILP the heuristics hand to the solver."""
    seen = []

    def counting(solver):
        def counted(lp, *args):
            seen.append(lp)
            return solver(lp, *args)

        return counted

    monkeypatch.setattr(heuristics, "simplex_min", counting(heuristics.simplex_min))
    monkeypatch.setattr(heuristics, "ilp_min", counting(heuristics.ilp_min))
    return seen


def _lp_only_infinite():
    """A net and target under which only the LP proves ``(1, 0)`` INF: ``t``
    empties p1 but fills p2, and the target is ``(0, 0)``.  The successor
    ``(0, 1)`` is INF by its empty seed alone, since nothing lowers p2."""
    return PetriNet(["p1", "p2"], [Transition("t", (1, 0), (0, 1))]), TargetSpec.exact((0, 0))


class TestParentShortcut:
    """A marking whose predecessor's optimal firing-count vector fires the
    connecting transition at least once is answered without a solve."""

    def test_successor_derived_from_parent_optimum(self, n1, solves):
        # From (1, 0) the unique optimum fires t2 and t3 once each.
        target = TargetSpec.exact((0, 1))
        dq = StateEquationHeuristic(n1, target)
        assert dq((1, 0)) == 2
        assert len(solves) == 1
        for t in (1, 2):
            succ = n1.fire((1, 0), t)
            assert dq(succ) == 2 - n1.transitions[t].weight
        assert len(solves) == 1
        # The derived values are the from-scratch ones.
        for m in [(1, 1), (0, 0)]:
            assert dq(m) == StateEquationHeuristic(n1, target)(m)

    def test_chains_keep_deriving(self, n1, solves):
        dq = StateEquationHeuristic(n1, TargetSpec.exact((0, 1)))
        assert dq((3, 0)) == 4  # fires t2 once and t3 three times
        assert [dq(m) for m in [(2, 0), (1, 0), (0, 0)]] == [3, 2, 1]
        assert len(solves) == 1

    def test_transition_outside_the_optimum_needs_a_solve(self, n1, solves):
        dq = StateEquationHeuristic(n1, TargetSpec.exact((0, 1)))
        dq((1, 0))
        assert dq((2, 0)) == 3  # reached by t1, which the optimum never fires
        assert len(solves) == 2

    def test_known_marking_is_not_solved_again(self, n1, solves):
        dz = StateEquationHeuristic(n1, TargetSpec.exact((0, 1)), integral=True)
        assert dz((2, 1)) == dz((2, 1)) == 2
        assert len(solves) == 1

    def test_infinite_marking_is_solved_once(self, solves):
        net, target = _lp_only_infinite()
        dq = StateEquationHeuristic(net, target)
        assert dq((1, 0)) == INF
        assert dq((1, 0)) == INF
        assert len(solves) == 1

    def test_budget_exhausted_parent_never_seeds_a_value(self, solves):
        # The two-producer net of test_budget_exhaustion_falls_back_to_lower_bound.
        net = PetriNet(["p"], [Transition("t3", (0,), (3,)), Transition("t2", (0,), (2,))])
        target = TargetSpec.exact((4,))
        dz = StateEquationHeuristic(net, target, integral=True, ilp_node_budget=1)
        assert dz((0,)) == F(4, 3)  # budget ran out: a lower bound, no optimum
        truth = {(2,): 1, (3,): INF}  # 2 -> 4 by t2; 3 -> 4 is impossible
        for t, succ in net.successors((0,)):
            before = len(solves)
            value = dz(succ)
            assert len(solves) == before + 1, f"successor by {net.transitions[t].name} was not solved"
            assert value <= truth[succ]


def _bfs_order(net, init):
    order, seen, queue = [], {init}, deque([init])
    while queue:
        m = queue.popleft()
        order.append(m)
        for _, succ in net.successors(m):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return order


class _FromScratch(StateEquationHeuristic):
    """Forgets every answer before each call, so each is one solve."""

    def __call__(self, m):
        self._memo.clear()
        return super().__call__(m)


class TestMemoMatchesFromScratch:
    """The remembering heuristic answers exactly like one solve per call."""

    @pytest.mark.parametrize("integral", [False, True], ids=["q", "z"])
    def test_values_over_reachable_markings(self, integral, solves):
        rng = random.Random(743)
        calls = 0
        for _ in range(60):
            inst = random_bounded_instance(rng, rational_weights=rng.random() < 0.5)
            memo = StateEquationHeuristic(inst.net, inst.target, integral)
            markings = _bfs_order(inst.net, inst.init)
            remembered = [memo(m) for m in markings]
            calls += len(markings)
            solved = len(solves)
            fresh = [StateEquationHeuristic(inst.net, inst.target, integral)(m) for m in markings]
            del solves[solved:]
            assert remembered == fresh
        assert len(solves) < calls, "no value was derived; the sweep tests nothing"

    @pytest.mark.parametrize("integral", [False, True], ids=["q", "z"])
    @pytest.mark.parametrize("strategy", [Strategy.ASTAR, Strategy.GBFS])
    def test_search_results(self, integral, strategy):
        rng = random.Random(744)
        for _ in range(40):
            inst = random_bounded_instance(rng, rational_weights=rng.random() < 0.5)
            memo = StateEquationHeuristic(inst.net, inst.target, integral)
            # Of the same type, so A* defers its evaluations alike.
            from_scratch = _FromScratch(inst.net, inst.target, integral)
            a, a_expanded = search_expanding(inst, strategy, memo)
            b, b_expanded = search_expanding(inst, strategy, from_scratch)
            assert (a.verdict, a.distance, a.witness) == (b.verdict, b.distance, b.witness)
            assert a_expanded == b_expanded
            assert a.stats.heuristic_calls == b.stats.heuristic_calls


#: Weights with denominators 2, 3 and 4: ``L`` is 2, 3, 4, 6 or 12, so an
#: optimum's numerators over ``den * L`` are never the value itself.
UNEVEN_WEIGHTS = (F(1, 2), F(2, 3), F(3, 4))


def _uneven(rng: random.Random, inst: Instance) -> Instance:
    """``inst`` with each transition's weight drawn from UNEVEN_WEIGHTS."""
    net = inst.net
    transitions = [Transition(t.name, t.guard, t.produce, rng.choice(UNEVEN_WEIGHTS)) for t in net.transitions]
    return Instance(PetriNet(net.places, transitions, net.name), inst.init, inst.init_upward, inst.target).validate()


class TestIntegerMemoAgainstOracles:
    """The memo keeps each optimum as integers over ``den * L``; every value
    it answers, solved or derived, must be the exact optimum, returned as an
    ``int`` exactly when it is integral."""

    @pytest.mark.parametrize("integral", [False, True], ids=["q", "z"])
    def test_bfs_values(self, integral, solves):
        rng = random.Random(1331)
        calls = boxed = fractional = 0
        for _ in range(60):
            inst = _uneven(rng, random_bounded_instance(rng))
            memo = StateEquationHeuristic(inst.net, inst.target, integral)
            for m in _bfs_order(inst.net, inst.init):
                value = memo(m)
                calls += 1
                problem = memo.lp(m)
                expected = ilp_min(problem) if integral else reference_simplex_min(problem)
                if expected.kind is OutcomeKind.INFEASIBLE:
                    assert value == INF, m
                    continue
                assert expected.kind is OutcomeKind.OPTIMAL
                assert value == expected.value, m
                assert type(value) is (int if expected.value.denominator == 1 else F), m
                fractional += type(value) is F
                # All weights are >= 1/2, so an optimum fires at most 2 * value times.
                box = int(2 * value)
                if integral and (box + 1) ** problem.num_vars <= 5_000:
                    assert integer_box_min(problem, box) == value, m
                    boxed += 1
            # Every finite answer, a goal's included, keeps a basis to warm-start from.
            assert all(entry[4] is not None for entry in memo._memo.values() if entry[0] != INF)
        assert len(solves) < calls / 2, "few values were derived; the sweep tests little"
        assert fractional >= 50, fractional
        assert boxed >= (150 if integral else 0), boxed


class TestColdStandardForm:
    """A cold solve reads the heuristic's integer standard form, whose rows
    are built once and get only their right-hand sides per marking.  It
    must be the standard form of the reference problem ``lp(m)``, and a
    fresh heuristic's first answer must be the reference problem's."""

    @staticmethod
    def cases(seed=2020, nets=200):
        """``nets`` nets, with rational weights, desugared upward inits and
        exact, cover and mixed targets, each with markings around the
        target bounds, so that many right-hand sides are negative."""
        rng = random.Random(seed)
        negative = geq = 0
        for k in range(nets):
            inst = random_bounded_instance(rng, rational_weights=k % 2 == 0, upward=k % 3 == 0)
            net = desugar_init(inst).net
            near = tuple(rng.randint(0, 3) for _ in net.places)
            target = (inst.target, TargetSpec.exact(near), TargetSpec.cover(near))[k % 3]
            bounds = [bound for _, bound in target.constraints]
            markings = [inst.init, *(tuple(max(0, b + rng.randint(-2, 2)) for b in bounds) for _ in range(2))]
            for m in markings:
                negative += any(b < tokens for b, tokens in zip(bounds, m))
                geq += any(rel is Relation.GEQ for rel, _ in target.constraints)
                yield net, target, m
        assert negative >= 3 * nets // 2 and geq >= 3 * nets // 2, (negative, geq)

    def test_form_is_the_reference_problems(self):
        for net, target, m in self.cases():
            for integral in (False, True):
                memo = StateEquationHeuristic(net, target, integral)
                assert memo.form(m) == standard_form(memo.lp(m)), m
                assert memo.form(m) == standard_form(memo.lp(m)), m  # writing a form leaves the rows as built

    def test_forms_share_their_equality_rows(self):
        # The = rows depend on the net only, so every form reads one object.
        for net, target, m in self.cases(nets=20):
            memo = StateEquationHeuristic(net, target)
            zeros = (0,) * net.num_places
            assert memo.form(m).eq_coeffs is memo.form(zeros).eq_coeffs

    def test_first_answer_is_the_reference_solve(self, solves):
        """A marking with a gap that no effect's sign can close is INF
        without a solve; every other first answer, that of a marking in the
        target set included, is the reference solve's, tableau included."""
        rng = random.Random(2021)
        kinds = set()
        goals = signed = solved = 0
        for net, target, m in self.cases():
            goal = target.goal_test()(m)
            for integral in (False, True):
                budget = rng.choice((1, 2, DEFAULT_ILP_NODE_BUDGET))
                memo = StateEquationHeuristic(net, target, integral, budget)
                value = memo(m)
                problem = memo.lp(m)
                entry = memo._memo[m]
                if _sign_infeasible(problem):
                    assert value == INF and entry is heuristics._INFINITE and not solves, m
                    signed += 1
                    continue
                assert len(solves) == 1, m
                solves.clear()
                solved += 1
                goals += goal
                expected = ilp_min(problem, budget) if integral else simplex_min(problem)
                kinds.add(expected.kind)
                if expected.kind is OutcomeKind.INFEASIBLE:
                    assert value == INF and entry[2] is None and entry[4] is None, m
                    continue
                if expected.kind is OutcomeKind.BUDGET_EXHAUSTED:
                    assert value == expected.lower_bound and entry[2] is None, m
                else:
                    optimum = expected.optimum
                    assert value == expected.value, m
                    assert entry[1:4] == (optimum.value()[0], tuple(optimum.point()), optimum.den), m
                tableau = entry[4]
                reference = expected.tableau
                assert (tableau.rows, tableau.basis, tableau.den) == (reference.rows, reference.basis, reference.den)
                assert (tableau.objective, tableau.obj_scale) == (reference.objective, reference.obj_scale)
        assert kinds == {OutcomeKind.OPTIMAL, OutcomeKind.INFEASIBLE, OutcomeKind.BUDGET_EXHAUSTED}
        assert min(goals, signed, solved) >= 50, (goals, signed, solved)


def _sign_infeasible(problem):
    """Whether a row of ``problem`` has a right-hand side that the signs of
    its coefficients cannot reach with ``x >= 0``: positive with no positive
    coefficient, or, for an ``=`` row, negative with no negative one."""
    return any(
        (row.rhs > 0 and all(c <= 0 for c in row.coeffs))
        or (row.relation is Relation.EQ and row.rhs < 0 and all(c >= 0 for c in row.coeffs))
        for row in problem.rows
    )


class TestPresolve:
    """A cold solve settled by an empty seed must answer what the solver
    answers: INF for INFEASIBLE, the proven bound when the node budget runs
    out, else the optimum.  The stubborn-set search reads the same seeds: a
    marking answered INF has a target bound that, on its own, leaves it
    without successors.  (With all bounds, ``successors`` may stop at an
    earlier place whose closure has one enabled member.)"""

    @pytest.mark.parametrize("integral", [False, True], ids=["q", "z"])
    def test_first_answer_equals_the_solvers(self, integral, solves):
        rng = random.Random(2022)
        counts = {"presolved INF": 0, "solved": 0}
        for net, target, m in TestColdStandardForm.cases(2022, 300):
            budget = rng.choice((1, 2, DEFAULT_ILP_NODE_BUDGET))
            h = StateEquationHeuristic(net, target, integral, budget)
            value = h(m)
            expected = ilp_min(h.lp(m), budget) if integral else simplex_min(h.lp(m))
            if expected.kind is OutcomeKind.INFEASIBLE:
                assert value == INF, m
            elif expected.kind is OutcomeKind.BUDGET_EXHAUSTED:
                assert value == expected.lower_bound, m
            else:
                assert value == expected.value, m
            if solves:
                counts["solved"] += 1
                solves.clear()
            else:
                assert value == INF and any(net.successors(m, [bound]) == [] for bound in target.bounds()), m
                assert net.dead_end(m, target.bounds()), m
                counts["presolved INF"] += 1
        assert min(counts.values()) >= 50, counts


def brute_force_struct_table(net):
    """Independent oracle: build the abstraction edges straight from the
    definition and enumerate all simple paths."""
    sink = net.num_places
    edges = []
    for t in range(net.num_transitions):
        trans = net.transitions[t]
        ins = [p for p in range(net.num_places) if trans.guard[p] > 0] or [sink]
        outs = [p for p in range(net.num_places) if trans.produce[p] > 0] or [sink]
        for p in ins:
            for q in outs:
                if p != q:
                    edges.append((p, q, trans.weight))

    nodes = range(sink + 1)
    table = {(u, v): (F(0) if u == v else INF) for u in nodes for v in nodes}

    def explore(u, current, cost, visited):
        if cost < table[(u, current)]:
            table[(u, current)] = cost
        for a, b, w in edges:
            if a == current and b not in visited:
                explore(u, b, cost + w, visited | {b})

    for u in nodes:
        explore(u, u, F(0), {u})
    return table


def _unit(net, p):
    return tuple(int(q == p) for q in range(net.num_places))


def _support(target):
    return [p for p, (rel, bound) in enumerate(target.constraints) if rel is Relation.GEQ or bound > 0]


def _chain(length):
    """p0 -> p1 -> ... -> p(length-1) -> sink, each step of weight 1."""
    places = [f"p{i}" for i in range(length)]
    transitions = [
        Transition.from_maps(f"t{i}", places, consume={places[i]: 1}, produce={places[i + 1]: 1})
        for i in range(length - 1)
    ]
    transitions.append(Transition.from_maps("drain", places, consume={places[-1]: 1}))
    return PetriNet(places, transitions, name="long-chain")


class TestStructuralDistance:
    def test_abstraction_edges(self, n2):
        # kappa of each unit marking; the four targets between them read
        # every edge into a place or the sink.
        towards = {
            (1, 0, 0): (0, 2, 1),  # p2 -> p3 -> p1, p3 -> sink
            (0, 0, 0): (3, 2, 1),  # p1 -> p2 -> p3 -> sink
            (0, 1, 0): (1, 0, 1),  # p1 -> p2, p3 -> sink
            (0, 0, 1): (2, 1, 0),  # p1 -> p2 -> p3
        }
        for target, kappas in towards.items():
            h = StructHeuristic(n2, TargetSpec.exact(target))
            assert tuple(h(_unit(n2, p)) for p in range(3)) == kappas, target

    def test_empty_transition_gives_no_self_loop(self):
        net = PetriNet(["a"], [Transition("noop", (0,), (0,))])
        assert StructHeuristic(net, TargetSpec.exact((0,)))((1,)) == INF
        assert StructHeuristic(net, TargetSpec.exact((1,)))((1,)) == 0

    def test_kappa_matches_path_enumeration(self, n2):
        # (net, its own target, its initial marking)
        cases = [
            (n2, TargetSpec.exact((1, 0, 0)), (0, 1, 1)),
            (_chain(6), TargetSpec.exact((0,) * 6), (1, 0, 2, 0, 0, 1)),
        ]
        rng = random.Random(2718)
        for i in range(30):
            inst = random_bounded_instance(rng, rational_weights=i % 2 == 1)
            cases.append((inst.net, inst.target, inst.init))
        checked = fractional = 0
        for net, own, init in cases:
            table = brute_force_struct_table(net)
            sink = net.num_places
            mixed = TargetSpec(tuple((Relation.EQ if p % 2 else Relation.GEQ, v) for p, v in enumerate(init)))
            for target in (own, TargetSpec.exact(init), TargetSpec.cover(init), mixed):
                h = StructHeuristic(net, target)
                support = _support(target)
                for p in range(sink):
                    expected = min(table[(p, q)] for q in support + [sink])
                    if p in support:
                        assert expected == 0
                    value = h(_unit(net, p))
                    assert value == expected, (net.places, target, p)
                    if expected != INF:
                        assert type(value) is (int if expected.denominator == 1 else F)
                        fractional += expected.denominator != 1
                    checked += 1
        assert checked > 300 and fractional > 0, (checked, fractional)

    def test_worked_example(self, n2):
        h = StructHeuristic(n2, TargetSpec.exact((1, 0, 0)))
        # kappa(p2) = 2 and kappa(p3) = 1; the slowest token decides.
        assert h((0, 1, 0)) == 2
        assert h((0, 0, 1)) == 1
        assert h((0, 1, 1)) == 2

    def test_one_dijkstra_bounds_the_work(self, monkeypatch):
        net = _chain(40)
        edges = net.num_transitions  # each moves one place's token to the next place or the sink
        pops = 0
        heappop = heuristics.heapq.heappop

        def counting(heap):
            nonlocal pops
            pops += 1
            return heappop(heap)

        monkeypatch.setattr(heuristics.heapq, "heappop", counting)
        h = StructHeuristic(net, TargetSpec.exact((0,) * 40))
        assert 0 < pops <= net.num_places + 1 + edges
        assert h(_unit(net, 0)) == 40

    def test_zero_on_satisfying_marking(self, n2):
        assert StructHeuristic(n2, TargetSpec.exact((1, 0, 0)))((1, 0, 0)) == 0
        mixed = TargetSpec(((Relation.GEQ, 1), (Relation.EQ, 0), (Relation.GEQ, 0)))
        assert StructHeuristic(n2, mixed)((2, 0, 1)) == 0

    def test_token_burial_distance(self, n2):
        # All tokens must drain through the pipeline and vanish at the sink.
        oracle = brute_force_struct_table(n2)
        assert oracle[(0, n2.num_places)] == 3
        assert StructHeuristic(n2, TargetSpec.exact((0, 0, 0)))((1, 0, 0)) == 3

    def test_stuck_token_is_infinite(self):
        places = ["a", "b"]
        net = PetriNet(places, [Transition.from_maps("t", places, consume={"b": 1})])
        assert StructHeuristic(net, TargetSpec.exact((0, 0)))((1, 0)) == INF

    def test_heuristic_wrapper(self, n2):
        target = TargetSpec.exact((1, 0, 0))
        h = StructHeuristic(n2, target)
        assert h((0, 1, 1)) == 2


class TestZeroHeuristic:
    def test_always_zero(self):
        assert zero_heuristic((0, 0)) == 0
        assert zero_heuristic((5, 7, 9)) == 0


class TestAdmissibilityOnRandomNets:
    def _contexts(self, inst):
        dq = StateEquationHeuristic(inst.net, inst.target)
        dz = StateEquationHeuristic(inst.net, inst.target, integral=True)
        ds = StructHeuristic(inst.net, inst.target)
        return dq, dz, ds

    def test_lower_bounds_and_consistency(self):
        rng = random.Random(741)
        for _ in range(25):
            inst = random_bounded_instance(rng)
            markings = enumerate_reachable(inst.net, inst.init)
            truth = remaining_distances(inst.net, markings, inst.target)
            dq, dz, ds = self._contexts(inst)
            # Evaluations are pure; cache one value per marking.
            hq = {m: dq(m) for m in markings}
            hz = {m: dz(m) for m in markings}
            hs = {m: ds(m) for m in markings}
            for m in markings:
                assert hq[m] <= hz[m], "integer restriction can only tighten the bound"
                if truth[m] != INF:
                    assert hq[m] <= truth[m]
                    assert hz[m] <= truth[m]
                    assert hs[m] <= truth[m]
                if inst.target.satisfied(m):
                    assert hq[m] == hz[m] == hs[m] == 0
                for t, succ in inst.net.successors(m):
                    weight = inst.net.transitions[t].weight
                    assert hq[m] <= weight + hq[succ]
                    assert hz[m] <= weight + hz[succ]

    def test_struct_triangle_inequality_and_cap(self):
        rng = random.Random(742)
        for _ in range(20):
            inst = random_bounded_instance(rng, rational_weights=True)
            net = inst.net
            cap = net.num_places * max(t.weight for t in net.transitions)
            markings = list(enumerate_reachable(net, inst.init))[:6]
            toward = {m: StructHeuristic(net, TargetSpec.exact(m)) for m in markings}
            for a, b, c in permutations(markings, 3) if len(markings) >= 3 else []:
                ab = toward[b](a)
                bc = toward[c](b)
                ac = toward[c](a)
                if ab != INF and bc != INF:
                    assert ac <= ab + bc
                for value in (ab, bc, ac):
                    assert value == INF or value <= cap


class TestInfinitePredecessor:
    """A marking whose remembered predecessor is INF is INF too, without a solve."""

    @pytest.mark.parametrize("integral", [False, True])
    def test_successor_of_infinite_marking(self, n1, solves, integral):
        net, target = _lp_only_infinite()
        h = StateEquationHeuristic(net, target, integral=integral)
        assert h((1, 0)) == INF
        assert len(solves) == 1
        assert [succ for _, succ in net.successors((1, 0))] == [(0, 1)]
        assert h((0, 1)) == INF
        assert StateEquationHeuristic(net, target, integral=integral)((0, 1)) == INF
        # The memoizing object made no solve, and neither did the empty-seed test.
        assert len(solves) == 1
        # No transition of n1 lowers p2, so p2's seed is empty at (1, 2).
        assert StateEquationHeuristic(n1, TargetSpec.exact((0, 1)), integral=integral)((1, 2)) == INF
        assert len(solves) == 1

    def test_matches_from_scratch_on_random_nets(self, solves):
        rng = random.Random(5150)
        shortcuts = 0
        for _ in range(30):
            inst = random_bounded_instance(rng, rational_weights=True)
            net = inst.net
            markings = _bfs_order(net, inst.init)
            fresh = {m: StateEquationHeuristic(net, inst.target)(m) for m in markings}
            h = StateEquationHeuristic(net, inst.target)
            asked = set()
            for m in markings:
                before = len(solves)
                assert h(m) == fresh[m]
                predecessors = (
                    tuple(a - out + need for a, out, need in zip(m, t.produce, t.guard)) for t in net.transitions
                )
                if any(p in asked and fresh[p] == INF for p in predecessors):
                    assert len(solves) == before, f"{m} has an INF predecessor but was solved"
                    shortcuts += 1
                asked.add(m)
        assert shortcuts > 0


def _brute_force_struct(net, target, m):
    """The slowest marked place's cost to reach the target support, from
    the path-enumeration table."""
    table = brute_force_struct_table(net)
    support = _support(target) + [net.num_places]
    costs = [min(table[(p, q)] for q in support) for p in range(net.num_places) if m[p] > 0]
    return max(costs, default=F(0))


class TestStructByCost:
    def test_matches_brute_force_max_over_marked_places(self):
        rng = random.Random(6060)
        for _ in range(30):
            inst = random_bounded_instance(rng, rational_weights=True, upward=rng.random() < 0.3)
            h = StructHeuristic(inst.net, inst.target)
            for _ in range(20):
                m = tuple(rng.choice([0, 0, 1, 3]) for _ in inst.net.places)
                assert h(m) == _brute_force_struct(inst.net, inst.target, m)
