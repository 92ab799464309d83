"""Exact linear programming over rationals, plus branch-and-bound integer
minimization.

No floating point, no tolerances: admissibility of the distance estimates
built on top of this engine hinges on never over-estimating, so rounding is
not an option.  Problems (:class:`RationalLP`) and results
(:class:`Outcome`) are rational; coefficients may be ``int`` or
``fractions.Fraction``.

The solver is a textbook two-phase simplex on a dense tableau with Bland's
pivoting rule, which guarantees termination.  Exactness and determinism are
the contract.

The tableau holds Python ints and one positive common denominator ``den``:
it stands for the rational tableau ``T / den``.  At the boundary each
constraint row is scaled to integers by the lcm of its denominators (rows
that are all ints, such as the state equations, are taken as they are), and
the objective by the lcm of its own.  A pivot is one fraction-free
(Bareiss) step: row ``a`` with pivot-column entry ``f`` becomes
``(a*p - f*b) / den`` for pivot row ``b`` and pivot ``p``, and ``p`` becomes
the denominator.  ``den`` is the absolute value of the basis
determinant, so by Cramer's rule every entry of ``T`` is a determinant of
integer data, and by Sylvester's identity the division is exact.  Results
are read back as ``Fraction(T[i][-1], den)``.  Unlike ``Fraction``
arithmetic, no step takes a gcd.

For integer rows this is the rational Gauss-Jordan tableau step for step:
row scaling by 1 leaves ``B^-1 A`` as it is, and a positive objective scale
keeps every reduced-cost sign, so the same pivots are chosen.  A row scaled
by some ``s > 1`` gives its artificial a different phase-1 weight, so a
rational row may take another phase-1 path to an optimum of the same value.

Tableau rows are ``[variables | one surplus per >= row | rhs]``: first the
``len(basis)`` constraint rows, then the objective row, then, during phase 1
only, the phase-1 row.  A cost row ends in minus its objective value.  The
objective row is carried from the start, so pivots are the only cost-row
update: when phase 2 begins, it already is the reduced cost row of the basis
phase 2 starts from.  No artificial columns are kept: row ``i``'s artificial
starts basic as index ``num_structural + i`` and is dropped once it leaves
the basis.  A feasible system has a solution with every artificial at 0, so
phase 1 still ends at 0 without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

ZERO = Fraction(0)

#: Branch-and-bound node budget of :func:`ilp_min` unless a caller sets one.
DEFAULT_ILP_NODE_BUDGET = 10_000


class Relation(str, Enum):
    """Relation of an LP row, and of a per-place target constraint."""

    EQ = "="
    GEQ = ">="


class UnboundedRelaxation(ValueError):
    """Integer minimization was asked for on an unbounded relaxation.

    Cannot happen for state-equation problems (nonnegative objective over
    nonnegative variables), so it is an error rather than an outcome.
    """


@dataclass(frozen=True)
class Row:
    coeffs: tuple[int | Fraction, ...]
    relation: Relation
    rhs: int | Fraction


@dataclass(frozen=True)
class RationalLP:
    """min objective . x  subject to rows, x >= 0 componentwise."""

    num_vars: int
    objective: tuple[int | Fraction, ...]
    rows: tuple[Row, ...]

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length differs from num_vars")
        for row in self.rows:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("row length differs from num_vars")

    @classmethod
    def build(cls, objective: Sequence, rows: Sequence[tuple[Sequence, Relation, object]]) -> "RationalLP":
        """Convenience constructor converting everything to Fraction."""
        obj = tuple(Fraction(c) for c in objective)
        built = tuple(
            Row(tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
            for coeffs, rel, rhs in rows
        )
        return cls(len(obj), obj, built)


class OutcomeKind(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class Outcome:
    """Result of :func:`simplex_min` or :func:`ilp_min`."""

    kind: OutcomeKind
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    #: Proven lower bound on the integer optimum when the node budget ran out.
    lower_bound: Fraction | None = None


INFEASIBLE = Outcome(OutcomeKind.INFEASIBLE)
UNBOUNDED = Outcome(OutcomeKind.UNBOUNDED)


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """``values`` (ints or Fractions) times the lcm of their denominators,
    as ints, and that lcm."""
    if all(type(v) is int for v in values):
        return list(values), 1
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(tableau: list[list[int]], basis: list[int], den: int, row: int, col: int) -> int:
    """Make column ``col`` basic in ``row`` by one Bareiss step on the
    tableau ``tableau / den``; returns the new common denominator.

    The pivot row keeps its entries and its pivot ``p`` becomes the
    denominator; every other row becomes ``(a*p - f*b) / den``, which is
    exact.  A negative ``p`` (only when a leftover artificial is driven out)
    negates the pivot row first, which negates the whole new tableau.
    """
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        tableau[row] = pivot_row = [-v for v in pivot_row]
        p = -p
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [(a * p - factor * b) // den for a, b in zip(other, pivot_row)]
        elif p != den:  # the row only moves to the new denominator
            tableau[i] = [a * p // den for a in other]
    basis[row] = col
    return p


def _run_simplex(tableau: list[list[int]], basis: list[int], den: int, num_cols: int) -> int | None:
    """Minimize with Bland's rule; the last tableau row is the reduced cost row
    and the first ``len(basis)`` rows are the constraints.

    Returns the common denominator at the optimum, or None when the problem
    is unbounded.  Bland's rule: entering variable is the smallest index with
    negative reduced cost; leaving row has the smallest ratio, ties broken by
    smallest basic variable index.  No cycling.  Ratios are compared by
    cross-multiplying: ``den`` cancels and every pivot-column entry compared
    is positive.
    """
    m = len(basis)
    while True:
        cost = tableau[-1]
        col = next((j for j in range(num_cols) if cost[j] < 0), None)
        if col is None:
            return den
        best_row, best_a, best_rhs = -1, 1, 0
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                rhs = tableau[i][-1]
                mine, best = rhs * best_a, best_rhs * a
                if best_row < 0 or mine < best or (mine == best and basis[i] < basis[best_row]):
                    best_row, best_a, best_rhs = i, a, rhs
        if best_row < 0:
            return None
        den = _pivot(tableau, basis, den, best_row, col)


def simplex_min(lp: RationalLP) -> Outcome:
    """Exact two-phase simplex minimization over x >= 0.

    The outcome's point satisfies every row exactly; callers can (and tests
    do) verify it by substitution.
    """
    n = lp.num_vars
    geq_rows = [i for i, row in enumerate(lp.rows) if row.relation is Relation.GEQ]
    surplus_of = {i: n + k for k, i in enumerate(geq_rows)}
    num_structural = n + len(geq_rows)

    # Standard form rows: [structural coeffs | rhs], rhs >= 0, each row
    # scaled to integers; artificials are virtual.
    tableau: list[list[int]] = []
    for i, row in enumerate(lp.rows):
        line, _ = _scaled((*row.coeffs, row.rhs))
        line[n:n] = [0] * len(geq_rows)
        if i in surplus_of:
            line[surplus_of[i]] = -1
        if line[-1] < 0:
            line = [-v for v in line]
        tableau.append(line)
    basis = [num_structural + i for i in range(len(tableau))]

    # Phase 1: minimize the sum of artificials; one that leaves never returns.
    phase1 = [0] * (num_structural + 1)
    for line in tableau:
        phase1 = [c - v for c, v in zip(phase1, line)]
    objective, obj_scale = _scaled(lp.objective)
    tableau += [objective + [0] * (len(geq_rows) + 1), phase1]
    den = _run_simplex(tableau, basis, 1, num_structural)
    if tableau.pop()[-1] != 0:  # the phase-1 row holds -(phase-1 value)
        return INFEASIBLE

    # Drive leftover artificials out of the basis; drop redundant rows.
    for i in range(len(basis) - 1, -1, -1):
        if basis[i] >= num_structural:
            col = next((j for j in range(num_structural) if tableau[i][j] != 0), None)
            if col is None:
                tableau.pop(i)
                basis.pop(i)
            else:
                den = _pivot(tableau, basis, den, i, col)

    # Phase 2 on the carried objective row, which the pivots kept reduced.
    den = _run_simplex(tableau, basis, den, num_structural)
    if den is None:
        return UNBOUNDED

    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tableau[i][-1], den)
    return Outcome(OutcomeKind.OPTIMAL, -Fraction(tableau[-1][-1], den * obj_scale), tuple(point))


def _bound_row(num_vars: int, var: int, coeff: int, rhs: int) -> Row:
    coeffs = [0] * num_vars
    coeffs[var] = coeff
    return Row(tuple(coeffs), Relation.GEQ, rhs)


@lru_cache(maxsize=256)
def _column_reduction(
    coeff_rows: tuple[tuple, ...],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int | None, ...]]:
    """The equality rows ``coeff_rows`` scaled to integers and reduced by
    integer column elimination, for :func:`_lattice_infeasible`.

    Returns each row's scale, the reduced rows, and each row's pivot column
    (None for a row that reduced to zero).  Row ``i`` is zero outside the
    pivot columns of rows ``0..i``, so a right-hand side is solved by
    forward substitution.  The reduction depends on the coefficients only, so
    one reduction serves every right-hand side: a net's state equation is
    reduced once, not once per marking.
    """
    scales = []
    matrix: list[list[int]] = []
    for coeffs in coeff_rows:
        line, scale = _scaled(coeffs)
        matrix.append(line)
        scales.append(scale)

    n = len(coeff_rows[0])
    pivot_col_of_row: list[int | None] = []
    next_col = 0
    for i in range(len(matrix)):
        # Clear row i on columns >= next_col down to a single gcd entry.
        while True:
            nonzero = [j for j in range(next_col, n) if matrix[i][j] != 0]
            if len(nonzero) <= 1:
                break
            j1, j2 = sorted(nonzero[:2], key=lambda j: abs(matrix[i][j]), reverse=True)
            q = matrix[i][j1] // matrix[i][j2]
            for k in range(len(matrix)):
                matrix[k][j1] -= q * matrix[k][j2]
        if not nonzero:
            pivot_col_of_row.append(None)
            continue
        col = nonzero[0]
        if col != next_col:
            for k in range(len(matrix)):
                matrix[k][col], matrix[k][next_col] = matrix[k][next_col], matrix[k][col]
        pivot_col_of_row.append(next_col)
        next_col += 1
    return tuple(scales), tuple(map(tuple, matrix)), tuple(pivot_col_of_row)


def _lattice_infeasible(lp: RationalLP) -> bool:
    """True when the equality rows already have no solution over Z^n
    (ignoring nonnegativity), decided by integer column elimination.

    This matters beyond speed: when the rational region is unbounded,
    branch-and-bound cannot prove parity-style infeasibility with finitely
    many nodes, so without this test such inputs would always burn the whole
    node budget.  Sound by construction: column operations are unimodular,
    so they preserve integer solvability exactly.
    """
    eq_rows = [row for row in lp.rows if row.relation is Relation.EQ]
    if not eq_rows:
        return False
    scales, matrix, pivot_col_of_row = _column_reduction(tuple(row.coeffs for row in eq_rows))

    # Forward substitution: each pivot must divide its residual exactly.
    y: dict[int, int] = {}
    for row, scale, reduced, col in zip(eq_rows, scales, matrix, pivot_col_of_row):
        rhs = row.rhs * scale
        if rhs.denominator != 1:
            return True  # integer left-hand side can never equal a fraction
        residual = rhs.numerator - sum(reduced[j] * y[j] for j in y)
        if col is None:
            if residual != 0:
                return True
        else:
            if residual % reduced[col] != 0:
                return True
            y[col] = residual // reduced[col]
    return False


def ilp_min(lp: RationalLP, node_budget: int = DEFAULT_ILP_NODE_BUDGET) -> Outcome:
    """Minimize over nonnegative *integer* points by branch-and-bound.

    Depth-first, branching on the first fractional variable in index order
    (floor branch explored first), pruning against the incumbent.  When the
    node budget runs out, the result carries the best lower bound proven so
    far, which is always >= the root LP relaxation value.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    if _lattice_infeasible(lp):
        return INFEASIBLE

    incumbent: tuple[Fraction, tuple[Fraction, ...]] | None = None
    # Stack entries: (extra bound rows, inherited lower bound from the parent).
    stack: list[tuple[tuple[Row, ...], Fraction | None]] = [((), None)]
    solves = 0

    while stack:
        if solves >= node_budget:
            open_bounds = [b for _, b in stack if b is not None]
            candidates = open_bounds + ([incumbent[0]] if incumbent else [])
            # Every stacked node descends from a solved parent, so bounds exist.
            return Outcome(OutcomeKind.BUDGET_EXHAUSTED, lower_bound=min(candidates))

        extra, inherited = stack.pop()
        if incumbent is not None and inherited is not None and inherited >= incumbent[0]:
            continue

        node_lp = RationalLP(lp.num_vars, lp.objective, lp.rows + extra)
        outcome = simplex_min(node_lp)
        solves += 1

        if outcome.kind is OutcomeKind.INFEASIBLE:
            continue
        if outcome.kind is OutcomeKind.UNBOUNDED:
            raise UnboundedRelaxation("LP relaxation is unbounded; integer minimum undefined")

        assert outcome.value is not None and outcome.point is not None
        if incumbent is not None and outcome.value >= incumbent[0]:
            continue

        frac_var = next((j for j, x in enumerate(outcome.point) if x.denominator != 1), None)
        if frac_var is None:
            incumbent = (outcome.value, outcome.point)
            continue

        x = outcome.point[frac_var]
        floor = x.numerator // x.denominator
        # LIFO: push the ceiling branch first so the floor branch is explored first.
        stack.append(((*extra, _bound_row(lp.num_vars, frac_var, 1, floor + 1)), outcome.value))
        stack.append(((*extra, _bound_row(lp.num_vars, frac_var, -1, -floor)), outcome.value))

    if incumbent is None:
        return INFEASIBLE
    return Outcome(OutcomeKind.OPTIMAL, incumbent[0], incumbent[1])
