"""Exact linear programming over rationals, plus branch-and-bound integer
minimization.

Everything here works on ``fractions.Fraction``: no floating point, no
tolerances.  Admissibility of the distance estimates built on top of this
engine hinges on never over-estimating, so rounding is not an option.

The solver is a textbook two-phase simplex on a dense tableau with Bland's
pivoting rule, which guarantees termination.  Speed is a non-goal; exactness
and determinism are the contract.

Tableau rows are ``[variables | one surplus per >= row | rhs]``; the cost
row ends in minus the objective value.  No artificial columns are kept: row
``i``'s artificial starts basic as index ``num_structural + i`` and is
dropped once it leaves the basis.  A feasible system has a solution with
every artificial at 0, so phase 1 still ends at 0 without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

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
    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class RationalLP:
    """min objective . x  subject to rows, x >= 0 componentwise."""

    num_vars: int
    objective: tuple[Fraction, ...]
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


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    """Make column ``col`` basic in ``row`` (Gauss-Jordan step)."""
    pivot_row = tableau[row]
    inv = ONE / pivot_row[col]
    tableau[row] = pivot_row = [v * inv for v in pivot_row]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [a - factor * b for a, b in zip(other, pivot_row)]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], num_cols: int) -> str:
    """Minimize with Bland's rule; the last tableau row is the reduced cost row.

    Returns "optimal" or "unbounded".  Bland's rule: entering variable is the
    smallest index with negative reduced cost; leaving row has the smallest
    ratio, ties broken by smallest basic variable index.  No cycling.
    """
    m = len(tableau) - 1
    while True:
        cost = tableau[m]
        col = next((j for j in range(num_cols) if cost[j] < 0), None)
        if col is None:
            return "optimal"
        best_ratio = None
        best_row = -1
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        if best_row < 0:
            return "unbounded"
        _pivot(tableau, basis, best_row, col)


def simplex_min(lp: RationalLP) -> Outcome:
    """Exact two-phase simplex minimization over x >= 0.

    The outcome's point satisfies every row exactly; callers can (and tests
    do) verify it by substitution.
    """
    n = lp.num_vars
    geq_rows = [i for i, row in enumerate(lp.rows) if row.relation is Relation.GEQ]
    surplus_of = {i: n + k for k, i in enumerate(geq_rows)}
    num_structural = n + len(geq_rows)

    # Standard form rows: [structural coeffs | rhs], rhs >= 0; artificials are virtual.
    tableau: list[list[Fraction]] = []
    for i, row in enumerate(lp.rows):
        line = [Fraction(c) for c in row.coeffs] + [ZERO] * len(geq_rows) + [Fraction(row.rhs)]
        if i in surplus_of:
            line[surplus_of[i]] = -ONE
        if line[-1] < 0:
            line = [-v for v in line]
        tableau.append(line)
    basis = [num_structural + i for i in range(len(tableau))]

    # Phase 1: minimize the sum of artificials; one that leaves never returns.
    cost = [ZERO] * (num_structural + 1)
    for line in tableau:
        cost = [c - v for c, v in zip(cost, line)]
    tableau.append(cost)
    _run_simplex(tableau, basis, num_structural)
    if tableau[-1][-1] != 0:  # cost row holds -(phase-1 value)
        return INFEASIBLE
    tableau.pop()

    # Drive leftover artificials out of the basis; drop redundant rows.
    for i in range(len(tableau) - 1, -1, -1):
        if basis[i] >= num_structural:
            col = next((j for j in range(num_structural) if tableau[i][j] != 0), None)
            if col is None:
                tableau.pop(i)
                basis.pop(i)
            else:
                _pivot(tableau, basis, i, col)

    # Phase 2 on the same rows.
    cost = [Fraction(c) for c in lp.objective] + [ZERO] * (num_structural - n + 1)
    for i, b in enumerate(basis):
        if cost[b]:
            factor = cost[b]
            cost = [c - factor * v for c, v in zip(cost, tableau[i])]
    tableau.append(cost)
    if _run_simplex(tableau, basis, num_structural) == "unbounded":
        return UNBOUNDED

    point = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][-1]
    return Outcome(OutcomeKind.OPTIMAL, -tableau[-1][-1], tuple(point))


def _bound_row(num_vars: int, var: int, coeff: Fraction, rhs: Fraction) -> Row:
    coeffs = [ZERO] * num_vars
    coeffs[var] = coeff
    return Row(tuple(coeffs), Relation.GEQ, rhs)


def _lattice_infeasible(lp: RationalLP) -> bool:
    """True when the equality rows already have no solution over Z^n
    (ignoring nonnegativity), decided by integer column elimination.

    This matters beyond speed: when the rational region is unbounded,
    branch-and-bound cannot prove parity-style infeasibility with finitely
    many nodes, so without this test such inputs would always burn the whole
    node budget.  Sound by construction: column operations are unimodular,
    so they preserve integer solvability exactly.
    """
    matrix: list[list[int]] = []
    rhs: list[int] = []
    for row in lp.rows:
        if row.relation is not Relation.EQ:
            continue
        scale = lcm(*(c.denominator for c in row.coeffs))
        scaled_rhs = row.rhs * scale
        if scaled_rhs.denominator != 1:
            return True  # integer left-hand side can never equal a fraction
        matrix.append([int(c * scale) for c in row.coeffs])
        rhs.append(int(scaled_rhs))
    if not matrix:
        return False

    n = lp.num_vars
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

    # Forward substitution: each pivot must divide its residual exactly.
    y: dict[int, int] = {}
    for i, col in enumerate(pivot_col_of_row):
        residual = rhs[i] - sum(matrix[i][j] * y[j] for j in y)
        if col is None:
            if residual != 0:
                return True
        else:
            if residual % matrix[i][col] != 0:
                return True
            y[col] = residual // matrix[i][col]
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
        floor = Fraction(x.numerator // x.denominator)
        # LIFO: push the ceiling branch first so the floor branch is explored first.
        stack.append(((*extra, _bound_row(lp.num_vars, frac_var, ONE, floor + 1)), outcome.value))
        stack.append(((*extra, _bound_row(lp.num_vars, frac_var, -ONE, -floor)), outcome.value))

    if incumbent is None:
        return INFEASIBLE
    return Outcome(OutcomeKind.OPTIMAL, incumbent[0], incumbent[1])
