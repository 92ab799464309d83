import operator
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from ffreach import (
    OutcomeKind,
    RationalLP,
    Relation,
    ilp_min,
    simplex_min,
)
from ffreach import ratlp
from ffreach.ratlp import Outcome, Row, UnboundedRelaxation, _column_reduction, _lattice_infeasible, standard_form
import oracles
from oracles import integer_box_min, reference_simplex_min, vertex_enumeration_min

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

    def test_relation_must_be_the_enum(self):
        # ">=" equals Relation.GEQ as a str, but the core tests relations by identity.
        with pytest.raises(ValueError, match="relation"):
            lp([1, 1], [([1, 0], ">=", 1), ([0, 1], ">=", 1), ([1, 1], ">=", 3)])
        with pytest.raises(ValueError, match="relation"):
            RationalLP(1, (1,), (Row((1,), "=", 1),))
        with pytest.raises(ValueError, match="relation"):
            lp([1], [([1], Relation.GEQ, 1)])._replace(rows=(Row((1,), None, 1),))

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

    def test_problem_records(self):
        row = Row((F(1), F(2)), Relation.GEQ, F(3))
        problem = RationalLP(2, (F(1), F(0)), (row,))
        assert hash(row) == hash((row.coeffs, row.relation, row.rhs))
        assert hash(problem) == hash((2, problem.objective, (row,)))
        assert problem == RationalLP.build([1, 0], [([1, 2], Relation.GEQ, 3)])
        assert problem != RationalLP(2, (F(1), F(1)), (row,))
        assert row != Row((F(1), F(2)), Relation.EQ, F(3))
        for record, name in ((row, "rhs"), (problem, "rows"), (problem, "num_vars")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(ValueError, match="objective length"):
            RationalLP(2, (F(1),), ())
        with pytest.raises(ValueError, match="row length"):
            RationalLP(1, (F(1),), (row,))
        with pytest.raises(ValueError, match="row length"):
            RationalLP.build([1, 0], [([1], Relation.EQ, 0)])

    def test_replace_keeps_the_checks(self):
        problem = RationalLP(1, (1,), ())
        with pytest.raises(ValueError, match="objective length"):
            problem._replace(num_vars=3)
        row = Row((F(1), F(2)), Relation.GEQ, F(3))
        assert problem._replace(num_vars=2, objective=(1, 0), rows=(row,)) == RationalLP(2, (1, 0), (row,))

    def test_entries_must_be_int_or_fraction(self):
        for objective, row in [
            ((1,), Row((0.5,), Relation.GEQ, 1)),
            ((1,), Row((1,), Relation.GEQ, 1.0)),
            ((0.5,), Row((1,), Relation.GEQ, 1)),
        ]:
            with pytest.raises(ValueError, match="int or Fraction"):
                RationalLP(1, objective, (row,))
            with pytest.raises(ValueError, match="int or Fraction"):
                RationalLP(1, (1,), ())._replace(objective=objective, rows=(row,))
        # Subclasses of int and Fraction are entries; build converts floats.
        assert simplex_min(RationalLP(1, (True,), (Row((F(2),), Relation.GEQ, True),))).value == F(1, 2)
        assert lp([0.5], [([0.25], Relation.GEQ, 1.0)]) == lp([F(1, 2)], [([F(1, 4)], Relation.GEQ, 1)])

    def test_no_problem_and_no_start(self):
        with pytest.raises(ValueError, match="problem or a start"):
            simplex_min(None)


class TestIlp:
    def test_no_problem_and_no_start(self):
        with pytest.raises(ValueError, match="problem or a start"):
            ilp_min(None)

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


def random_integer_lp(rng: random.Random) -> RationalLP:
    """Integer rows, often degenerate: zero right-hand sides, duplicated
    and scaled copies of rows.  Ints or integral Fractions, at random."""
    n = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 5)):
        if rows and rng.random() < 0.3:
            coeffs, rel, rhs = rng.choice(rows)
            k = rng.choice([1, 1, 2, -1])
            rows.append(([k * c for c in coeffs], rel if k > 0 else Relation.EQ, k * rhs))
            continue
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        rhs = 0 if rng.random() < 0.4 else rng.randint(-4, 4)
        rows.append((coeffs, rng.choice([Relation.EQ, Relation.GEQ]), rhs))
    objective = [rng.randint(-2, 4) for _ in range(n)]
    if rng.random() < 0.3:
        objective = [F(c, rng.randint(1, 6)) for c in objective]
    if rng.random() < 0.5:
        return RationalLP.build(objective, rows)
    return RationalLP(n, tuple(objective), tuple(Row(tuple(c), rel, rhs) for c, rel, rhs in rows))


class TestIntegerTableau:
    """The integer tableau against the Fraction tableau it replaced."""

    def test_integer_rows_match_reference_simplex(self, monkeypatch):
        # Same outcome, and the same pivots in the same order.
        pivots, reference_pivots, negative_pivots = [], [], []
        pivot, reference_pivot = ratlp._pivot, oracles._reference_pivot

        def recording_pivot(tableau, basis, den, row, col):
            pivots.append((row, col))
            if tableau[row][col] < 0:
                negative_pivots.append(row)
            return pivot(tableau, basis, den, row, col)

        def recording_reference_pivot(tableau, basis, row, col):
            reference_pivots.append((row, col))
            reference_pivot(tableau, basis, row, col)

        monkeypatch.setattr(ratlp, "_pivot", recording_pivot)
        monkeypatch.setattr(oracles, "_reference_pivot", recording_reference_pivot)
        rng = random.Random(7070)
        kinds = set()
        for _ in range(600):
            problem = random_integer_lp(rng)
            pivots.clear()
            reference_pivots.clear()
            out = simplex_min(problem)
            assert out == reference_simplex_min(problem), problem
            assert pivots == reference_pivots, problem
            kinds.add(out.kind)
        assert kinds == {OutcomeKind.OPTIMAL, OutcomeKind.INFEASIBLE, OutcomeKind.UNBOUNDED}
        # Negative pivots only come from driving a leftover artificial out.
        assert len(negative_pivots) >= 20

    def test_outcomes_are_fractions(self):
        out = simplex_min(RationalLP(2, (1, 1), (Row((3, 2), Relation.EQ, 4),)))
        assert out.value == F(4, 3) and type(out.value) is F
        assert out.point == (F(4, 3), F(0)) and all(type(x) is F for x in out.point)

    def test_rational_rows_by_substitution(self):
        # Row scaling may change the phase-1 path, so only the value is fixed.
        rng = random.Random(8080)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [
                (
                    [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)],
                    rng.choice([Relation.EQ, Relation.GEQ]),
                    F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.7 else 0,
                )
                for _ in range(rng.randint(0, 4))
            ]
            problem = lp([F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)], rows)
            expected = vertex_enumeration_min(problem)
            out = simplex_min(problem)
            assert out.kind is reference_simplex_min(problem).kind
            if expected is None:
                assert out.kind is OutcomeKind.INFEASIBLE
            else:
                assert out.value == expected
                check_point(problem, out)


class TestOutcomeContract:
    """An optimal outcome reads its value and point from its tableau on
    first use, and otherwise is the frozen record it always was."""

    @staticmethod
    def optimal_outcomes(rng: random.Random):
        """Yield pairs of equal optimal outcomes, none read yet: cold, warm
        and branch-and-bound ones."""
        for _ in range(300):
            problem = random_integer_lp(rng) if rng.random() < 0.5 else random_lp(rng)
            cold = simplex_min(problem)
            if cold.kind is not OutcomeKind.OPTIMAL:
                continue
            yield cold, simplex_min(problem)
            step = {j: rng.randint(-2, 2) for j in range(problem.num_vars)}
            warm = simplex_min(None, cold.tableau.shifted(step))
            if warm.kind is OutcomeKind.OPTIMAL:
                yield warm, simplex_min(None, cold.tableau.shifted(step))
            box = Row(tuple(F(-1) for _ in range(problem.num_vars)), Relation.GEQ, F(-8))
            boxed = RationalLP(problem.num_vars, problem.objective, problem.rows + (box,))
            if all(c >= 0 for c in boxed.objective) and ilp_min(boxed).kind is OutcomeKind.OPTIMAL:
                yield ilp_min(boxed), ilp_min(boxed)

    def test_equal_hash_and_repr_of_an_eager_outcome(self):
        kinds = set()
        for first, second in self.optimal_outcomes(random.Random(2468)):
            shown, hashed = repr(first), hash(second)
            eager = Outcome(first.kind, first.value, first.point)
            assert first == eager and eager == first and second == eager
            assert hashed == hash(eager) == hash(first)
            assert shown == repr(eager) == repr(second)
            kinds.add(first.optimum is first.tableau)
        # Both LP outcomes (read from their own tableau) and ILP ones (read
        # from the optimal node's, mostly not the root's) were checked.
        assert kinds == {True, False}

    def test_repr_is_the_dataclass_one(self):
        out = simplex_min(lp([1], [([1], Relation.GEQ, 3)]))
        assert repr(out) == (
            "Outcome(kind=<OutcomeKind.OPTIMAL: 'optimal'>, value=Fraction(3, 1), point=(Fraction(3, 1),), "
            "lower_bound=None)"
        )
        cut = ilp_min(lp([1, 1], [([3, 2], Relation.EQ, 4)]), node_budget=1)
        assert repr(cut) == (
            "Outcome(kind=<OutcomeKind.BUDGET_EXHAUSTED: 'budget-exhausted'>, value=None, point=None, "
            "lower_bound=Fraction(4, 3))"
        )
        assert cut != Outcome(OutcomeKind.BUDGET_EXHAUSTED, lower_bound=F(3, 2))

    def test_fields_are_read_once_and_never_assigned(self):
        for first, _ in self.optimal_outcomes(random.Random(1357)):
            value, point = first.value, first.point
            assert first.value is value and first.point is point
            assert type(value) is F and all(type(x) is F for x in point)
            for name in ("kind", "value", "point", "lower_bound", "tableau", "optimum", "_value"):
                with pytest.raises(FrozenInstanceError):
                    setattr(first, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(first, name)
            assert first.value is value and first.point is point


class TestLatticeReduction:
    """``_lattice_infeasible`` reads a standard form's scaled ``=`` rows,
    reduces each coefficient matrix once and substitutes every right-hand
    side into the cached reduction."""

    @staticmethod
    def eq_lp(matrix, rhs):
        return RationalLP.build([1] * len(matrix[0]), [(row, Relation.EQ, b) for row, b in zip(matrix, rhs)])

    @classmethod
    def infeasible(cls, matrix, rhs) -> bool:
        return _lattice_infeasible(standard_form(cls.eq_lp(matrix, rhs)))

    def test_parity_case_from_the_cache(self):
        _column_reduction.cache_clear()
        for b in range(-5, 6):
            problem = self.eq_lp([[2]], [b])
            assert _lattice_infeasible(standard_form(problem)) == (b % 2 == 1)
            assert (ilp_min(problem, node_budget=1).kind is OutcomeKind.INFEASIBLE) == (b % 2 == 1 or b < 0)
        assert _column_reduction.cache_info().misses == 1

    def test_many_right_hand_sides(self):
        # x + y + z = b0 and x - y + 3z = b1 have an integer solution exactly
        # when b0 - b1 = 2(y - z) is even; 2x + 4y = c0 and 3y = c1 exactly
        # when c0 is even and 3 divides c1.
        _column_reduction.cache_clear()
        outcomes = set()
        for b0 in range(-4, 5):
            for b1 in range(-4, 5):
                infeasible = self.infeasible([[1, 1, 1], [1, -1, 3]], [b0, b1])
                assert infeasible == ((b0 - b1) % 2 == 1)
                outcomes.add(infeasible)
                infeasible = self.infeasible([[2, 4], [0, 3]], [b0, b1])
                assert infeasible == (b0 % 2 == 1 or b1 % 3 != 0)
                outcomes.add(infeasible)
        assert outcomes == {True, False}
        info = _column_reduction.cache_info()
        assert (info.misses, info.hits) == (2, 2 * 81 - 2)

    def test_rational_rows_scale_the_right_hand_side(self):
        # x/2 = r and y/3 = s have an integer solution exactly when 2r and
        # 3s are integers; each row keeps its own scale.
        sixths = [F(k, 6) for k in range(-6, 7)]
        for r in sixths:
            for s in sixths:
                infeasible = self.infeasible([[F(1, 2), 0], [0, F(1, 3)]], [r, s])
                assert infeasible == ((2 * r).denominator != 1 or (3 * s).denominator != 1)
        assert self.infeasible([[F(1, 2)], [1]], [1, 3])

    def test_known_answers(self):
        # Systems built through a known integer point are feasible, and stay
        # so when each row and its right-hand side are scaled by a positive
        # rational; a row whose coefficients share a factor g > 1 that its
        # right-hand side lacks makes a system infeasible, scaled or not.
        rng = random.Random(2525)
        for _ in range(300):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            point = [rng.randint(-3, 3) for _ in range(n)]
            matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            rhs = [sum(map(operator.mul, row, point)) for row in matrix]
            g = rng.randint(2, 5)
            bad = [g * rng.randint(-3, 3) for _ in range(n)]
            bad[rng.randrange(n)] = g * rng.choice([-2, -1, 1, 2])
            at = rng.randrange(m + 1)
            off = g * rng.randint(-3, 3) + rng.randint(1, g - 1)
            cases = [(matrix, rhs, False), ([*matrix[:at], bad, *matrix[at:]], [*rhs[:at], off, *rhs[at:]], True)]
            for rows, values, expected in cases:
                assert self.infeasible(rows, values) is expected, (rows, values)
                scales = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
                scaled = [[a * s for a in row] for row, s in zip(rows, scales)]
                assert self.infeasible(scaled, [b * s for b, s in zip(values, scales)]) is expected, (scaled, scales)

    def test_ilp_min_builds_one_standard_form(self, monkeypatch):
        forms = []
        build = ratlp.standard_form

        def counted(problem):
            forms.append(problem)
            return build(problem)

        monkeypatch.setattr(ratlp, "standard_form", counted)
        problem = lp([1, 1, 1], [([2, 2, 1], Relation.EQ, 5), ([1, 0, 0], Relation.GEQ, F(1, 2))])
        out = ilp_min(problem)
        assert (out.kind, out.value) == (OutcomeKind.OPTIMAL, 3)
        assert forms == [problem]
