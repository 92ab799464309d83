"""Warm re-solves against cold solves, and the limits of a branch-and-bound dive.

A warm re-solve starts from an optimal outcome's final tableau, shifted to a
new right-hand side or given one more bound row, and runs the dual simplex.
Each one must agree with a cold solve of the problem it stands for.
"""

import random
from fractions import Fraction
from time import monotonic

import pytest

from ffreach import (
    Instance,
    OutcomeKind,
    PetriNet,
    RationalLP,
    Relation,
    Strategy,
    TargetSpec,
    Transition,
    desugar_init,
    directed_search,
    ilp_min,
    simplex_min,
)
from ffreach.ratlp import Row
from ffreach import heuristics, ratlp
from ffreach.heuristics import StateEquationHeuristic, make_heuristic
import oracles
from conftest import chain_net
from oracles import random_bounded_instance, reference_ilp_min, reference_simplex_min
from test_ratlp import check_point, random_integer_lp, random_lp

F = Fraction
G, E = Relation.GEQ, Relation.EQ

#: The ``z`` state equation of ``small-batch`` seed 11, instance sb0884, at
#: marking (1, 1, 1, 2).  It has no integer solution; its relaxation is
#: feasible (optimum 3/2) and unbounded, and its equality row alone has
#: integer solutions, so only branching can look for one and it dives.
RUNAWAY = RationalLP(
    5,
    (1, 1, 1, 1, 1),
    (
        Row((1, -2, 1, -1, 0), G, -1),
        Row((-1, 0, 1, 1, 0), E, 1),
        Row((1, 1, -2, 1, 0), G, 0),
        Row((-1, 1, 0, -1, -1), G, 0),
    ),
)


def shifted_lp(problem: RationalLP, shift: dict[int, int]) -> RationalLP:
    """``problem`` with right-hand side ``b - A k`` for ``k = shift``."""
    rows = tuple(
        Row(row.coeffs, row.relation, row.rhs - sum(k * row.coeffs[j] for j, k in shift.items()))
        for row in problem.rows
    )
    return RationalLP(problem.num_vars, problem.objective, rows)


def bounded_lp(problem: RationalLP, var: int, bound: int, upper: bool) -> RationalLP:
    """``problem`` plus the row ``x_var <= bound`` (``upper``) or ``x_var >= bound``."""
    sign = -1 if upper else 1
    coeffs = tuple(sign if j == var else 0 for j in range(problem.num_vars))
    return RationalLP(problem.num_vars, problem.objective, problem.rows + (Row(coeffs, G, sign * bound),))


def assert_matches_cold(problem: RationalLP, warm) -> None:
    cold = reference_simplex_min(problem)
    assert warm.kind is cold.kind, problem
    if warm.kind is OutcomeKind.OPTIMAL:
        assert warm.value == cold.value, problem
        check_point(problem, warm)
        assert warm.tableau is not None


@pytest.fixture
def pivots(monkeypatch):
    """Counts every simplex pivot."""
    count = [0]
    pivot = ratlp._pivot

    def counted(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(ratlp, "_pivot", counted)
    return count


class TestShift:
    def test_chains_of_shifts_match_cold_solves(self, pivots):
        rng = random.Random(1212)
        repaired = infeasible = 0
        for _ in range(500):
            problem = random_integer_lp(rng) if rng.random() < 0.5 else random_lp(rng, nonneg_objective=False)
            outcome = simplex_min(problem)
            if outcome.kind is not OutcomeKind.OPTIMAL:
                continue
            # Like the heuristic's memo: re-solve from the last optimal
            # tableau, with the shift pending since it was found.
            tableau, pending = outcome.tableau, {}
            for _ in range(5):
                moved = rng.sample(range(problem.num_vars), rng.randint(1, problem.num_vars))
                step = {j: rng.randint(-3, 3) for j in moved}
                problem = shifted_lp(problem, step)
                for j, k in step.items():
                    pending[j] = pending.get(j, 0) + k
                before = pivots[0]
                warm = simplex_min(problem, tableau.shifted(pending))
                assert_matches_cold(problem, warm)
                repaired += pivots[0] > before
                if warm.kind is OutcomeKind.OPTIMAL:
                    tableau, pending = warm.tableau, {}
                else:
                    infeasible += 1
        # Both the dual simplex's repairs and its infeasibility proofs ran.
        assert repaired >= 100 and infeasible >= 100, (repaired, infeasible)

    def test_rational_rows(self):
        rng = random.Random(3434)
        shifts = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [
                (
                    [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)],
                    rng.choice([E, G]),
                    F(rng.randint(-4, 4), rng.randint(1, 5)),
                )
                for _ in range(rng.randint(1, 4))
            ]
            problem = RationalLP.build([F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)], rows)
            outcome = simplex_min(problem)
            if outcome.kind is not OutcomeKind.OPTIMAL:
                continue
            step = {j: rng.randint(-2, 2) for j in range(n)}
            moved = shifted_lp(problem, step)
            assert_matches_cold(moved, simplex_min(moved, outcome.tableau.shifted(step)))
            shifts += 1
        assert shifts >= 50

    def test_zero_shift_keeps_the_optimum(self, pivots):
        problem = RationalLP(2, (1, 1), (Row((3, 2), E, 4),))
        outcome = simplex_min(problem)
        before = pivots[0]
        again = simplex_min(problem, outcome.tableau.shifted({}))
        assert pivots[0] == before
        assert again == outcome

    def test_start_is_not_changed(self):
        problem = RationalLP(2, (1, 1), (Row((1, 2), E, 4), Row((1, -1), G, 0)))
        outcome = simplex_min(problem)
        start = outcome.tableau.shifted({0: 1})
        rows, basis = [list(row) for row in start.rows], start.basis
        first = simplex_min(shifted_lp(problem, {0: 1}), start)
        assert [list(row) for row in start.rows] == rows and start.basis == basis
        assert simplex_min(shifted_lp(problem, {0: 1}), start) == first


class TestSparseShift:
    """The shift through the column index against the dense loop it
    replaced, and warm re-solves against the tableaux they start from."""

    def test_matches_the_dense_shift(self):
        # Two shifts of one tableau, the second on a column the first left
        # alone, so that an index built for the first shift's columns only
        # fails; then a shift of the shifted tableau.
        rng = random.Random(6464)
        shifted = 0
        for i in range(200):
            inst = desugar_init(random_bounded_instance(rng, max_places=5, max_transitions=6, upward=i % 2 == 0))
            h = StateEquationHeuristic(inst.net, inst.target)
            outcome = simplex_min(h.form(tuple(rng.randint(0, 3) for _ in inst.net.places)))
            if outcome.kind is not OutcomeKind.OPTIMAL:
                continue
            tableau = outcome.tableau
            n = len(tableau.objective)
            first = {j: rng.randint(-2, 3) for j in rng.sample(range(n), rng.randint(1, n))}
            second = {j: rng.randint(-2, 3) for j in rng.sample(range(n), rng.randint(1, n))}
            second[rng.choice([j for j in range(n) if j not in first] or [0])] = 1
            for start, shift in [(tableau, first), (tableau, second), (tableau.shifted(first), second)]:
                got, expected = start.shifted(shift), oracles.reference_shifted(start, shift)
                assert (got.rows, got.basis, got.den) == (expected.rows, expected.basis, expected.den), (i, shift)
                shifted += 1
        assert shifted >= 300, shifted

    @pytest.mark.parametrize("rows", [(), (Row((0, 0), E, 0),)], ids=["no-rows", "redundant-row"])
    def test_a_lone_cost_row_is_shifted(self, rows):
        # With no constraint row left, the cost row holds the objective
        # over den 1, so its own update cancels the shift's gain: a shift
        # that skips reading the cost row moves its right-hand side.
        problem = RationalLP(2, (1, 2), rows)
        tableau = simplex_min(problem).tableau
        assert len(tableau.rows) == 1
        for shift in ({0: 1}, {0: -2, 1: 3}):
            assert tableau.shifted(shift).rows == oracles.reference_shifted(tableau, shift).rows
            assert_matches_cold(shifted_lp(problem, shift), simplex_min(None, tableau.shifted(shift)))

    def test_warm_re_solves_leave_their_tableau_as_it_was(self, pivots):
        # A pivot copies the row lists it changes, so a tableau the memo
        # keeps stays as it was through the shifted and bounded re-solves
        # started from it, and an ILP's root keeps the relaxation's rows
        # through every node below it.
        rng = random.Random(8686)
        repaired = branched = 0
        for _ in range(300):
            problem = random_integer_lp(rng)
            outcome = simplex_min(problem)
            if outcome.kind is not OutcomeKind.OPTIMAL:
                continue
            kept = outcome.tableau
            rows = [row[:] for row in kept.rows]
            step = {j: rng.randint(-3, 3) for j in range(problem.num_vars)}
            before = pivots[0]
            simplex_min(None, kept.shifted(step))
            basic = [b for b in kept.basis if b < problem.num_vars]
            if basic:
                var = rng.choice(basic)
                floor = kept.rows[kept.basis.index(var)][-1] // kept.den
                simplex_min(None, kept.bounded(var, floor - 1, True))
            repaired += pivots[0] > before
            assert [row[:] for row in kept.rows] == rows
            ilp = ilp_min(problem, 200)
            if ilp.kind is not OutcomeKind.INFEASIBLE:
                assert ilp.tableau.rows == kept.rows
                branched += ilp.optimum is not ilp.tableau
        assert repaired >= 50 and branched >= 10, (repaired, branched)


class TestBound:
    def test_branches_of_fractional_optima_match_cold_solves(self):
        rng = random.Random(5656)
        branched = 0
        for _ in range(1000):
            problem = random_integer_lp(rng) if rng.random() < 0.5 else random_lp(rng)
            outcome = simplex_min(problem)
            # Dive up to three levels, taking a random branch each time.
            for _ in range(3):
                if outcome.kind is not OutcomeKind.OPTIMAL:
                    break
                fractional = [j for j, x in enumerate(outcome.point) if x.denominator != 1]
                if not fractional:
                    break
                var = rng.choice(fractional)
                x = outcome.point[var]
                floor = x.numerator // x.denominator
                upper = rng.random() < 0.5
                bound = floor if upper else floor + 1
                problem = bounded_lp(problem, var, bound, upper)
                outcome = simplex_min(problem, outcome.tableau.bounded(var, bound, upper))
                assert_matches_cold(problem, outcome)
                branched += 1
        assert branched >= 100, branched

    def test_ilp_on_shifted_root_matches_cold(self):
        rng = random.Random(7878)
        for _ in range(100):
            base = random_lp(rng)
            box = Row(tuple(F(-1) for _ in range(base.num_vars)), G, F(-8))
            problem = RationalLP(base.num_vars, base.objective, base.rows + (box,))
            root = simplex_min(problem)
            if root.kind is not OutcomeKind.OPTIMAL:
                continue
            step = {j: rng.randint(-1, 1) for j in range(problem.num_vars)}
            moved = shifted_lp(problem, step)
            cold = ilp_min(moved, 5_000)
            warm = ilp_min(moved, 5_000, root.tableau.shifted(step))
            assert (warm.kind, warm.value) == (cold.kind, cold.value)
            if warm.kind is OutcomeKind.OPTIMAL:
                check_point(moved, warm)
                assert all(x.denominator == 1 for x in warm.point)


class TestRunawayDive:
    def test_budget_keeps_its_lower_bound_in_few_pivots(self, pivots):
        # Each node re-solves its parent's tableau; cold node solves took 893 pivots.
        out = ilp_min(RUNAWAY, 40)
        assert out.kind is OutcomeKind.BUDGET_EXHAUSTED
        assert out.lower_bound == 30
        assert pivots[0] < 100

    def test_past_deadline_stops_after_the_root(self, monkeypatch):
        solved = []
        solve = ratlp.simplex_min

        def counted(lp, *args):
            solved.append(lp)
            return solve(lp, *args)

        monkeypatch.setattr(ratlp, "simplex_min", counted)
        out = ilp_min(RUNAWAY, 40, None, monotonic() - 1)
        assert out.kind is OutcomeKind.BUDGET_EXHAUSTED
        assert out.lower_bound == F(3, 2)
        assert len(solved) == 1
        # An integral root is still an answer.
        done = ilp_min(RationalLP(1, (1,), (Row((1,), G, 3),)), 10, None, monotonic() - 1)
        assert (done.kind, done.value) == (OutcomeKind.OPTIMAL, 3)

    def test_heuristic_passes_its_deadline_on(self):
        net = PetriNet(
            ["p0", "p1", "p2", "p3"],
            [
                Transition("t0", (0, 1, 0, 1), (1, 0, 1, 0)),
                Transition("t1", (2, 0, 0, 0), (0, 0, 1, 1)),
                Transition("t2", (0, 0, 2, 0), (1, 1, 0, 0)),
                Transition("t3", (1, 0, 0, 1), (0, 1, 1, 0)),
                Transition("t4", (0, 0, 0, 1), (0, 0, 0, 0)),
            ],
        )
        target = TargetSpec(((G, 0), (E, 2), (G, 1), (G, 2)))
        dz = StateEquationHeuristic(net, target, integral=True, ilp_node_budget=40, deadline=monotonic() - 1)
        assert dz.lp((1, 1, 1, 2)) == RUNAWAY
        assert dz((1, 1, 1, 2)) == F(3, 2)


class TestIntegerBranching:
    """``ilp_min`` decides on the node tableaux' integers; the ``Fraction``
    loop it replaced must return the same outcomes after the same node LPs."""

    @pytest.fixture
    def node_lps(self, monkeypatch):
        """Counts the LPs either loop solves through ``ratlp.simplex_min``."""
        count = [0]
        solve = ratlp.simplex_min

        def counted(lp, *args):
            count[0] += 1
            return solve(lp, *args)

        monkeypatch.setattr(ratlp, "simplex_min", counted)
        monkeypatch.setattr(oracles, "simplex_min", counted)
        return count

    @staticmethod
    def assert_same_search(node_lps, problem, *args):
        before = node_lps[0]
        outcome = ilp_min(problem, *args)
        solved, before = node_lps[0] - before, node_lps[0]
        expected = reference_ilp_min(problem, *args)
        assert outcome == expected, problem
        assert solved == node_lps[0] - before, problem
        if expected.tableau is None:
            assert outcome.tableau is None
        else:
            assert (outcome.tableau.rows, outcome.tableau.basis) == (expected.tableau.rows, expected.tableau.basis)
        return outcome, solved

    def test_random_boxed_ilps(self, node_lps):
        rng = random.Random(4545)
        kinds, branched = set(), 0
        for _ in range(500):
            base = random_integer_lp(rng) if rng.random() < 0.5 else random_lp(rng)
            box = Row(tuple(F(-1) for _ in range(base.num_vars)), G, F(-8))
            problem = RationalLP(base.num_vars, base.objective, base.rows + (box,))
            start = None
            if rng.random() < 0.3:
                root = simplex_min(problem)
                if root.kind is OutcomeKind.OPTIMAL:
                    step = {j: rng.randint(-1, 1) for j in range(problem.num_vars)}
                    problem, start = shifted_lp(problem, step), root.tableau.shifted(step)
            budget = rng.choice([1, 2, 3, 5, 5_000])
            outcome, solved = self.assert_same_search(node_lps, problem, budget, start)
            kinds.add(outcome.kind)
            branched += solved > 1
        assert kinds == {OutcomeKind.OPTIMAL, OutcomeKind.INFEASIBLE, OutcomeKind.BUDGET_EXHAUSTED}
        assert branched >= 50, branched

    def test_runaway_dive_and_past_deadline(self, node_lps):
        outcome, solved = self.assert_same_search(node_lps, RUNAWAY, 40)
        assert (outcome.kind, outcome.lower_bound, solved) == (OutcomeKind.BUDGET_EXHAUSTED, 30, 40)
        outcome, solved = self.assert_same_search(node_lps, RUNAWAY, 40, None, monotonic() - 1)
        assert (outcome.kind, outcome.lower_bound, solved) == (OutcomeKind.BUDGET_EXHAUSTED, F(3, 2), 1)


class TestMemoWarmStarts:
    """The memo re-solves a marking from a remembered predecessor's tableau
    and answers what a cold solve answers."""

    @pytest.mark.parametrize("integral", [False, True], ids=["q", "z"])
    def test_warm_solves_match_cold(self, integral, monkeypatch):
        name = "ilp_min" if integral else "simplex_min"
        solver, warm = getattr(heuristics, name), []

        def recorded(lp, *args):
            warm.append(args[-2 if integral else -1] is not None)
            return solver(lp, *args)

        monkeypatch.setattr(heuristics, name, recorded)
        rng = random.Random(9191)
        for _ in range(40):
            inst = random_bounded_instance(rng, rational_weights=rng.random() < 0.5)
            memo = make_heuristic("z" if integral else "q", inst)
            for m in _bfs_order(inst.net, inst.init):
                assert memo(m) == StateEquationHeuristic(inst.net, inst.target, integral)(m), m
        assert sum(warm) >= 20

    def test_warm_z_solves_skip_the_lattice_test(self, monkeypatch):
        """A warm ``z`` re-solve gets no LP, so it skips the lattice test:
        its start is a predecessor's tableau shifted by an integer firing
        vector, which keeps the equality rows solvable over the integers.
        Only a cold solve, the search's root among them, runs the test."""
        checks, solves = [], []
        check, solver = ratlp._lattice_infeasible, heuristics.ilp_min

        def counted_check(lp):
            checks.append(lp)
            return check(lp)

        def recorded(lp, *args):
            solves.append(lp)
            return solver(lp, *args)

        monkeypatch.setattr(ratlp, "_lattice_infeasible", counted_check)
        monkeypatch.setattr(heuristics, "ilp_min", recorded)
        inst = Instance(chain_net(), (1, 0, 0), frozenset(), TargetSpec.exact((3, 3, 0))).validate()
        memo, asked = make_heuristic("z", inst), {}

        def h(m):
            asked[m] = memo(m)
            return asked[m]

        assert directed_search(inst, Strategy.ASTAR, h).distance == 8
        assert solves[0] is not None and None in solves  # a cold root, and warm re-solves
        assert len(checks) == sum(lp is not None for lp in solves)
        for m, value in asked.items():
            cold = StateEquationHeuristic(inst.net, inst.target, integral=True)(m)
            assert (value, type(value)) == (cold, type(cold)), m


def _bfs_order(net, init):
    order, seen = [init], {init}
    for m in order:
        for _, succ in net.successors(m):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
    return order
