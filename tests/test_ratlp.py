import random
from fractions import Fraction

import pytest

from ffreach import (
    Outcome,
    OutcomeKind,
    RationalLP,
    Relation,
    Row,
    UnboundedRelaxation,
    ilp_min,
    simplex_min,
)
from oracles import integer_box_min, vertex_enumeration_min

F = Fraction


def lp(objective, rows):
    return RationalLP.build(objective, rows)


def check_point(problem: RationalLP, outcome) -> None:
    """Exact substitution check: the point satisfies every row and the value."""
    assert outcome.point is not None
    assert all(x >= 0 for x in outcome.point)
    for row in problem.rows:
        lhs = sum((c * x for c, x in zip(row.coeffs, outcome.point)), F(0))
        if row.relation is Relation.EQ:
            assert lhs == row.rhs
        else:
            assert lhs >= row.rhs
    value = sum((c * x for c, x in zip(problem.objective, outcome.point)), F(0))
    assert value == outcome.value


class TestSimplex:
    def test_single_lower_bound(self):
        problem = lp([1], [([1], Relation.GEQ, 3)])
        out = simplex_min(problem)
        assert out.kind is OutcomeKind.OPTIMAL
        assert out.value == 3
        assert out.point == (F(3),)

    def test_segment_optimum(self):
        problem = lp([1, 1], [([1, 1], Relation.EQ, 2)])
        out = simplex_min(problem)
        assert out.value == 2
        check_point(problem, out)

    def test_token_flow_system(self):
        # effects of the three-transition net toward marking (0, 1) from (0, 0)
        problem = lp([1, 1, 1], [([1, 0, -1], Relation.EQ, 0), ([0, 1, 0], Relation.EQ, 1)])
        out = simplex_min(problem)
        assert out.value == 1
        check_point(problem, out)

    def test_infeasible(self):
        problem = lp([1], [([0], Relation.EQ, 1)])
        assert simplex_min(problem).kind is OutcomeKind.INFEASIBLE

    def test_negative_variable_required_is_infeasible(self):
        problem = lp([1], [([1], Relation.EQ, -2)])
        assert simplex_min(problem).kind is OutcomeKind.INFEASIBLE

    def test_unbounded(self):
        problem = lp([-1], [([1], Relation.GEQ, 1)])
        assert simplex_min(problem).kind is OutcomeKind.UNBOUNDED

    def test_no_constraints(self):
        assert simplex_min(lp([2, 3], [])).value == 0
        assert simplex_min(lp([-1, 0], [])).kind is OutcomeKind.UNBOUNDED

    def test_degenerate_does_not_cycle(self):
        # Classic degeneracy: multiple ties with zero right-hand sides.
        problem = lp(
            [F(-3, 4), 150, F(-1, 50), 6],
            [
                ([F(1, 4), -60, F(-1, 25), 9], Relation.GEQ, 0),
                ([F(-1, 2), 90, F(1, 50), -3], Relation.GEQ, 0),
                ([0, 0, -1, 0], Relation.GEQ, -1),
            ],
        )
        out = simplex_min(problem)
        assert out.kind in (OutcomeKind.OPTIMAL, OutcomeKind.UNBOUNDED)

    def test_duplicated_row_is_dropped(self):
        # Phase 1 zeroes the copy's artificial row entirely, so it is redundant.
        problem = lp([1, 2], [([1, 1], Relation.EQ, 2), ([1, 1], Relation.EQ, 2)])
        out = simplex_min(problem)
        assert out.kind is OutcomeKind.OPTIMAL
        assert out.value == vertex_enumeration_min(problem) == 2
        check_point(problem, out)

    def test_artificial_basic_at_zero_is_pivoted_out(self):
        # Row 0's artificial is still basic at 0 when phase 1 ends, with
        # nonzero entries that give no structural column a negative cost.
        problem = lp([1, 1, 3], [([-1, -1, 0], Relation.EQ, 0), ([0, 1, 1], Relation.GEQ, 2)])
        out = simplex_min(problem)
        assert out.kind is OutcomeKind.OPTIMAL
        assert out.value == vertex_enumeration_min(problem) == 6
        check_point(problem, out)


class TestIlp:
    def test_parity_gap(self):
        problem = lp([1], [([2], Relation.EQ, 3)])
        assert simplex_min(problem).value == F(3, 2)
        assert ilp_min(problem).kind is OutcomeKind.INFEASIBLE

    def test_already_integral(self):
        out = ilp_min(lp([1], [([1], Relation.GEQ, 3)]))
        assert out.kind is OutcomeKind.OPTIMAL
        assert out.value == 3
        assert out.point == (F(3),)

    def test_two_variable_equation(self):
        out = ilp_min(lp([1, 1], [([1, 2], Relation.EQ, 4)]))
        assert out.value == 2
        assert out.point == (F(0), F(2))

    def test_parity_gap_is_settled_without_branching(self):
        # No integer solves 2x = 3; branch-and-bound must not burn nodes on it.
        problem = lp([1], [([2], Relation.EQ, 3)])
        out = ilp_min(problem, node_budget=1)
        assert out.kind is OutcomeKind.INFEASIBLE

    def test_budget_exhaustion_returns_root_bound(self):
        # Fractional LP optimum (4/3, 0) forces a branch; budget 1 stops there.
        problem = lp([1, 1], [([3, 2], Relation.EQ, 4)])
        assert simplex_min(problem).value == F(4, 3)
        out = ilp_min(problem, node_budget=1)
        assert out.kind is OutcomeKind.BUDGET_EXHAUSTED
        assert out.lower_bound == F(4, 3)
        full = ilp_min(problem)
        assert full.kind is OutcomeKind.OPTIMAL and full.value == 2

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ilp_min(lp([1], []), node_budget=0)

    def test_unbounded_relaxation_raises(self):
        with pytest.raises(UnboundedRelaxation):
            ilp_min(lp([-1], [([1], Relation.GEQ, 0)]))

    def test_integral_points_are_integral(self):
        out = ilp_min(lp([1, 1], [([3, 2], Relation.GEQ, 7)]))
        assert out.kind is OutcomeKind.OPTIMAL
        assert all(x.denominator == 1 for x in out.point)


def random_lp(rng: random.Random, nonneg_objective: bool = True) -> RationalLP:
    n = rng.randint(1, 4)
    m = rng.randint(0, 4)
    objective = [rng.randint(0 if nonneg_objective else -3, 4) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        rel = rng.choice([Relation.EQ, Relation.GEQ])
        rows.append((coeffs, rel, rng.randint(-4, 4)))
    return RationalLP.build(objective, rows)


class TestAgainstOracles:
    def test_simplex_matches_vertex_enumeration(self):
        rng = random.Random(20240817)
        for _ in range(150):
            problem = random_lp(rng)
            expected = vertex_enumeration_min(problem)
            out = simplex_min(problem)
            if expected is None:
                assert out.kind is OutcomeKind.INFEASIBLE
            else:
                assert out.kind is OutcomeKind.OPTIMAL
                assert out.value == expected
                check_point(problem, out)

    def test_ilp_matches_box_enumeration(self):
        rng = random.Random(975313)
        for _ in range(60):
            base = random_lp(rng)
            # Box the solutions: sum x_i <= 8, written as -sum x_i >= -8.
            bound = Row(tuple(F(-1) for _ in range(base.num_vars)), Relation.GEQ, F(-8))
            problem = RationalLP(base.num_vars, base.objective, base.rows + (bound,))
            expected = integer_box_min(problem, box=8)
            out = ilp_min(problem, node_budget=5_000)
            if expected is None:
                assert out.kind is OutcomeKind.INFEASIBLE
            else:
                assert out.kind is OutcomeKind.OPTIMAL, "budget must suffice on boxed systems"
                assert out.value == expected
                assert all(x.denominator == 1 for x in out.point)
                check_point(problem, Outcome(out.kind, out.value, out.point))

    def test_relaxation_bound_is_monotone(self):
        rng = random.Random(123321)
        for _ in range(80):
            base = random_lp(rng)
            bound = Row(tuple(F(-1) for _ in range(base.num_vars)), Relation.GEQ, F(-8))
            problem = RationalLP(base.num_vars, base.objective, base.rows + (bound,))
            lp_out = simplex_min(problem)
            ilp_out = ilp_min(problem, node_budget=5_000)
            if lp_out.kind is OutcomeKind.OPTIMAL and ilp_out.kind is OutcomeKind.OPTIMAL:
                assert ilp_out.value >= lp_out.value
