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
it stands for the rational tableau ``T / den``.  A cold solve starts from
the problem's integer standard form (:class:`StandardForm`): each
constraint row scaled to integers by the lcm of its denominators (rows that
are all ints, such as the state equations, are taken as they are) and
negated when its rhs is negative, and the objective scaled by the lcm of
its own; the lattice test of :func:`ilp_min` reads its scaled ``=`` rows
too.  :func:`standard_form` makes it from a :class:`RationalLP`; a caller
that solves one system at many right-hand sides, such as the state-equation
heuristic, may build it itself.  A pivot is one fraction-free
(Bareiss) step: row ``a`` with pivot-column entry ``f`` becomes
``(a*p - f*b) / den`` for pivot row ``b`` and pivot ``p``, and ``p`` becomes
the denominator.  ``den`` is the absolute value of the basis
determinant, so by Cramer's rule every entry of ``T`` is a determinant of
integer data, and by Sylvester's identity the division is exact.  Unlike
``Fraction`` arithmetic, no step takes a gcd.  An optimal outcome keeps
its final tableau and makes its ``Fraction`` value and point,
``Fraction(T[i][-1], den)``, only when they are first read; callers that
stay on the integers (branch-and-bound here, the state-equation
heuristic's memo) read the tableau's numerators instead.

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

Warm starts.  An optimal outcome carries its final tableau as a
:class:`Tableau`, and ``simplex_min(lp, start)`` re-solves from such a
handle.  Two edits derive the tableau of a nearby problem from one, and both
keep the basis, every reduced cost and the meaning of ``den``:

* Shift.  Substituting ``x = x' + k`` for an integer vector ``k`` gives the
  problem with right-hand side ``b - A k``.  Its tableau is the old one with
  each rhs entry ``rhs_i - sum_j k_j T[i][j]``; the cost entry gets the same
  update plus ``den * sum_j k_j c_j`` for the scaled objective ``c``, since
  the objective is still read in the original variables.  Only the
  right-hand side of the integer data moved, so these are the Bareiss
  entries of the new data at the same basis.
* Bound.  The branch ``x_j <= f`` on a basic ``x_j`` in row ``r`` appends a
  slack column and the row ``den*e_j - T[r] + den*e_s`` with rhs
  ``f*den - T[r][-1]``; the branch ``x_j >= f + 1`` appends
  ``T[r] - den*e_j + den*e_s`` with rhs ``T[r][-1] - (f+1)*den``.  The slack
  is basic in the new row, so the new basis matrix is the old one bordered
  by a row and a column whose corner is 1 in absolute value: ``|det B|``
  does not change.

In both cases ``den`` still is ``|det B|`` of integer data, so every later
Bareiss division stays exact.  The edited tableau is dual feasible (no
reduced cost moved) but may have negative right-hand sides, and the dual
simplex (Lemke) restores them with dual Bland's rule: the leaving row is the
negative-rhs row with the smallest basic index, and the entering column has
the smallest ratio ``cost_j / -a_rj`` over ``a_rj < 0``, ties to the
smallest ``j``.  That rule cannot cycle.  A negative-rhs row with no
negative entry proves the problem infeasible.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from time import monotonic
from typing import NamedTuple, Sequence

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


class Row(NamedTuple):
    coeffs: tuple[int | Fraction, ...]
    relation: Relation
    rhs: int | Fraction


class _LPFields(NamedTuple):
    num_vars: int
    objective: tuple[int | Fraction, ...]
    rows: tuple[Row, ...]


class RationalLP(_LPFields):
    """min objective . x  subject to rows, x >= 0 componentwise."""

    __slots__ = ()

    def __new__(cls, num_vars: int, objective: tuple[int | Fraction, ...], rows: tuple[Row, ...]):
        if len(objective) != num_vars:
            raise ValueError("objective length differs from num_vars")
        for row in rows:
            if len(row.coeffs) != num_vars:
                raise ValueError("row length differs from num_vars")
            if row.relation is not Relation.EQ and row.relation is not Relation.GEQ:
                raise ValueError(f"bad row relation {row.relation!r}")
        for value in (*objective, *(v for row in rows for v in (*row.coeffs, row.rhs))):
            if not isinstance(value, (int, Fraction)):
                raise ValueError(f"LP entries must be int or Fraction, got {value!r}")
        return super().__new__(cls, num_vars, objective, rows)

    #: ``_replace`` builds through ``_make``, so both keep the checks of ``__new__``.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

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


class Tableau:
    """A dual-feasible integer tableau ``rows / den``: a warm start for
    :func:`simplex_min`.

    ``rows`` are the constraint rows, then the cost row; ``basis`` names each
    constraint row's basic column; ``objective`` is the scaled integer
    objective and ``obj_scale`` its scale.  Never changed once built:
    derived tableaux share the row lists they leave alone, which is safe
    because a pivot replaces rows rather than editing them.
    """

    __slots__ = ("rows", "basis", "den", "objective", "obj_scale")

    def __init__(
        self, rows: tuple[list[int], ...], basis: tuple[int, ...], den: int, objective: tuple[int, ...], obj_scale: int
    ):
        self.rows = rows
        self.basis = basis
        self.den = den
        self.objective = objective
        self.obj_scale = obj_scale

    def value(self) -> tuple[int, int]:
        """The objective value of the basic solution as an unreduced
        ``(numerator, positive denominator)`` pair."""
        return -self.rows[-1][-1], self.den * self.obj_scale

    def point(self) -> list[int]:
        """The basic solution's variables, each times ``den``."""
        n = len(self.objective)
        point = [0] * n
        for row, b in zip(self.rows, self.basis):
            if b < n:
                point[b] = row[-1]
        return point

    def shifted(self, shift: dict[int, int]) -> Tableau:
        """The tableau, at the same basis, of the problem whose right-hand
        side is ``b - A k`` for the integer vector ``k = shift``, given as
        ``{variable: k_j}``."""
        rows = []
        for row in self.rows:
            delta = 0
            for j, k in shift.items():
                delta += k * row[j]
            rows.append([*row[:-1], row[-1] - delta] if delta else row)
        den, objective = self.den, self.objective
        gain = 0
        for j, k in shift.items():
            gain += k * objective[j]
        cost = rows[-1]
        rows[-1] = [*cost[:-1], cost[-1] + den * gain]
        return Tableau(tuple(rows), self.basis, den, objective, self.obj_scale)

    def bounded(self, var: int, bound: int, upper: bool) -> Tableau:
        """The tableau with the row ``x_var <= bound`` (``upper``) or
        ``x_var >= bound`` appended, for a basic ``x_var``; its new slack
        column is basic in the new row."""
        den = self.den
        source = self.rows[self.basis.index(var)]
        sign = -1 if upper else 1
        line = [sign * a for a in source[:-1]]
        line[var] = 0
        line += [den, sign * (source[-1] - bound * den)]
        *constraints, cost = ([*row[:-1], 0, row[-1]] for row in self.rows)
        slack = len(source) - 1
        return Tableau((*constraints, line, cost), (*self.basis, slack), den, self.objective, self.obj_scale)


#: Marks a field of an optimal :class:`Outcome` not read from its tableau yet.
_UNREAD = object()


class Outcome:
    """Result of :func:`simplex_min` or :func:`ilp_min`.

    Immutable, and compared, hashed and shown by ``kind``, ``value``,
    ``point`` and ``lower_bound``: equal outcomes are those with equal
    fields, and the hash is that of the tuple of the four.
    An optimal outcome of the solver is built from ``optimum``, the
    integer tableau whose basic solution it is, and makes its ``Fraction``
    value and point only when they are first read; both stay the same
    objects after that.  An outcome built from a value and a point, as
    ``Outcome(kind, value, point)``, has no ``optimum``.
    """

    __slots__ = ("kind", "lower_bound", "tableau", "optimum", "_value", "_point")

    kind: OutcomeKind
    #: Proven lower bound on the integer optimum when the node budget ran out.
    lower_bound: Fraction | None
    #: The final tableau of an optimal LP, or the root relaxation's for an
    #: ILP: a warm start for a problem that differs by a shift or a bound.
    tableau: Tableau | None
    #: The optimal tableau that ``value`` and ``point`` are read from: the
    #: LP's final tableau, or that of the ILP node that found the optimum.
    optimum: Tableau | None

    def __init__(
        self,
        kind: OutcomeKind,
        value: Fraction | None = None,
        point: tuple[Fraction, ...] | None = None,
        lower_bound: Fraction | None = None,
        tableau: Tableau | None = None,
        optimum: Tableau | None = None,
    ):
        if optimum is not None:
            value = point = _UNREAD
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "lower_bound", lower_bound)
        init(self, "tableau", tableau)
        init(self, "optimum", optimum)
        init(self, "_value", value)
        init(self, "_point", point)

    @property
    def value(self) -> Fraction | None:
        value = self._value
        if value is _UNREAD:
            value = Fraction(*self.optimum.value())
            object.__setattr__(self, "_value", value)
        return value

    @property
    def point(self) -> tuple[Fraction, ...] | None:
        point = self._point
        if point is _UNREAD:
            den = self.optimum.den
            point = tuple([Fraction(x, den) if x else ZERO for x in self.optimum.point()])
            object.__setattr__(self, "_point", point)
        return point

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # an AttributeError, imported only when raised
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.kind, self.value, self.point, self.lower_bound)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind, value, point, lower_bound = self._key()
        return f"Outcome(kind={kind!r}, value={value!r}, point={point!r}, lower_bound={lower_bound!r})"


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
        for col in range(num_cols):
            if cost[col] < 0:
                break
        else:
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


def _run_dual_simplex(tableau: list[list[int]], basis: list[int], den: int) -> int | None:
    """Restore nonnegative right-hand sides on a dual-feasible tableau by
    the dual simplex with dual Bland's rule (see the module docstring).

    Returns the common denominator at the optimum, or None when a row
    proves the problem infeasible.  Ratios are compared by
    cross-multiplying: ``cost_j / -a_j < cost_b / -a_b`` iff
    ``cost_j * a_b > cost_b * a_j``, as both ``a`` are negative.
    """
    m = len(basis)
    while True:
        leave = -1
        for i in range(m):
            if tableau[i][-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return den
        row, cost = tableau[leave], tableau[-1]
        col, best_a, best_cost = -1, 0, 0
        for j in range(len(row) - 1):
            a = row[j]
            if a < 0 and (col < 0 or cost[j] * best_a > best_cost * a):
                col, best_a, best_cost = j, a, cost[j]
        if col < 0:
            return None
        den = _pivot(tableau, basis, den, leave, col)


def _optimum(
    tableau: list[list[int]], basis: list[int], den: int, objective: tuple[int, ...], obj_scale: int
) -> Outcome:
    """The optimal outcome an optimal tableau stands for, carrying it."""
    final = Tableau(tuple(tableau), tuple(basis), den, objective, obj_scale)
    return Outcome(OutcomeKind.OPTIMAL, tableau=final, optimum=final)


class StandardForm(NamedTuple):
    """An LP in the integer standard form the two-phase simplex starts from:
    ``lines`` are the constraint rows ``[variables | surplus | rhs]``, each
    rhs >= 0, and ``objective`` is the objective times ``obj_scale``.  The
    lattice test reads ``eq_coeffs`` and ``eq_rhs``, the ``=`` rows'
    coefficients and right-hand sides scaled to integers as in ``lines``,
    but without surplus columns and not negated: its cached reduction is
    keyed by the coefficients alone."""

    lines: list[list[int]]
    num_vars: int
    objective: tuple[int, ...]
    obj_scale: int
    eq_coeffs: tuple[tuple[int, ...], ...]
    eq_rhs: tuple[int, ...]


def standard_form(lp: RationalLP) -> StandardForm:
    """``lp`` in the integer standard form :func:`simplex_min` solves."""
    n = lp.num_vars
    zeros = [0] * sum(row.relation is Relation.GEQ for row in lp.rows)
    lines, eq_coeffs, eq_rhs = [], [], []
    for row in lp.rows:
        line, _ = _scaled((*row.coeffs, row.rhs))
        line[n:n] = zeros
        if row.relation is Relation.EQ:
            eq_coeffs.append(tuple(line[:n]))
            eq_rhs.append(line[-1])
        else:  # its surplus column follows those of the >= rows before it
            line[n + len(lines) - len(eq_rhs)] = -1
        if line[-1] < 0:
            line = [-v for v in line]
        lines.append(line)
    objective, obj_scale = _scaled(lp.objective)
    return StandardForm(lines, n, tuple(objective), obj_scale, tuple(eq_coeffs), tuple(eq_rhs))


def simplex_min(lp: RationalLP | StandardForm | None, start: Tableau | None = None) -> Outcome:
    """Exact simplex minimization over x >= 0.

    Without ``start``, a two-phase simplex from scratch on the standard form
    of ``lp``, or on ``lp`` itself when it already is a
    :class:`StandardForm`.  With ``start``, a dual-feasible tableau of
    ``lp`` (an outcome's tableau, shifted or bounded to stand for ``lp``;
    ``lp`` itself is then not read, and may be None), re-solved by the dual
    simplex; such a re-solve is never UNBOUNDED.

    The outcome's point satisfies every row exactly; callers can (and tests
    do) verify it by substitution.
    """
    if start is not None:
        tableau, basis = list(start.rows), list(start.basis)
        den = _run_dual_simplex(tableau, basis, start.den)
        if den is None:
            return INFEASIBLE
        return _optimum(tableau, basis, den, start.objective, start.obj_scale)

    if lp is None:
        raise ValueError("simplex_min needs a problem or a start")
    form = lp if lp.__class__ is StandardForm else standard_form(lp)
    # The constraint rows are the form's lines; artificials are virtual.
    tableau = list(form.lines)
    num_surplus = len(tableau) - len(form.eq_coeffs)
    num_structural = form.num_vars + num_surplus
    basis = [num_structural + i for i in range(len(tableau))]

    # Phase 1: minimize the sum of artificials; one that leaves never returns.
    phase1 = [-sum(column) for column in zip(*tableau)] if tableau else [0] * (num_structural + 1)
    objective = form.objective
    tableau += [[*objective, *[0] * (num_surplus + 1)], phase1]
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
    return _optimum(tableau, basis, den, objective, form.obj_scale)


@lru_cache(maxsize=256)
def _column_reduction(
    coeff_rows: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[int | None, ...]]:
    """The integer equality rows ``coeff_rows`` (a :class:`StandardForm`'s
    ``eq_coeffs``) reduced by integer column elimination, for
    :func:`_lattice_infeasible`.

    Returns the reduced rows and each row's pivot column (None for a row
    that reduced to zero).  Row ``i`` is zero outside the pivot columns of
    rows ``0..i``, so a right-hand side is solved by forward substitution.
    The reduction depends on the coefficients only, so one reduction serves
    every right-hand side: a net's state equation is reduced once, not once
    per marking.
    """
    matrix = [list(coeffs) for coeffs in coeff_rows]
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
    return tuple(map(tuple, matrix)), tuple(pivot_col_of_row)


def _lattice_infeasible(form: StandardForm) -> bool:
    """True when the equality rows of ``form`` already have no solution
    over Z^n (ignoring nonnegativity), decided by integer column elimination.

    This matters beyond speed: when the rational region is unbounded,
    branch-and-bound cannot prove parity-style infeasibility with finitely
    many nodes, so without this test such inputs would always burn the whole
    node budget.  Sound by construction: each of the form's ``=`` rows is
    the problem's times a positive integer, which keeps its integer
    solutions (``x/2 = 1/3`` is read as ``3x = 2``), and column operations
    are unimodular, so they preserve integer solvability exactly.
    """
    if not form.eq_coeffs:
        return False
    matrix, pivot_col_of_row = _column_reduction(form.eq_coeffs)

    # Forward substitution: each pivot must divide its residual exactly.
    y: dict[int, int] = {}
    for rhs, reduced, col in zip(form.eq_rhs, matrix, pivot_col_of_row):
        residual = rhs - sum(reduced[j] * y[j] for j in y)
        if col is None:
            if residual != 0:
                return True
        else:
            if residual % reduced[col] != 0:
                return True
            y[col] = residual // reduced[col]
    return False


def ilp_min(
    lp: RationalLP | StandardForm | None,
    node_budget: int = DEFAULT_ILP_NODE_BUDGET,
    start: Tableau | None = None,
    deadline: float | None = None,
) -> Outcome:
    """Minimize over nonnegative *integer* points by branch-and-bound.

    Depth-first, branching on the first fractional variable in index order
    (floor branch explored first), pruning against the incumbent, one LP
    per node.  A :class:`RationalLP` is put in standard form once, and
    that form is both checked by the lattice test and solved at the root.
    The root relaxation is solved from scratch, or re-solved from
    ``start`` as :func:`simplex_min` does; every other node is its parent's
    final tableau plus one bound row, re-solved by the dual simplex.  With
    ``start``, ``lp`` may be None, which skips the lattice test: that is
    sound for a start shifted by an integer vector from a problem that
    passed the test, since the shift keeps the equality rows solvable over
    the integers.  When the node budget runs out, or the
    ``time.monotonic()`` ``deadline`` passes (checked before each node
    after the root), the result carries the best lower bound proven so far,
    which is always >= the root LP relaxation value.  Every feasible
    outcome carries the root relaxation's final tableau, which stays a warm
    start whatever the integer point is.

    The search reads the node tableaux' integers: ``x_j`` is fractional
    when its numerator is not a multiple of ``den``, and values are compared
    by cross-multiplying.  Only the returned outcome makes Fractions.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    if lp is None and start is None:
        raise ValueError("ilp_min needs a problem or a start")
    form = lp if lp is None or lp.__class__ is StandardForm else standard_form(lp)
    if form is not None and _lattice_infeasible(form):
        return INFEASIBLE

    n = len(start.objective) if form is None else form.num_vars
    # The final tableau of the best integral node so far, and its value.
    incumbent: Tableau | None = None
    best_num = best_unit = 0
    root: Tableau | None = None
    # Stack entries: (the parent's final tableau, the bound to add to it as
    # (variable, bound, upper)); the root has no parent and no bound, and
    # its entry holds ``start``.  A node's parent value bounds it below.
    stack: list[tuple[Tableau | None, tuple[int, int, bool] | None]] = [(start, None)]
    solves = 0

    while stack:
        if solves >= node_budget or (deadline is not None and solves and monotonic() > deadline):
            # Every stacked node descends from a solved parent, so bounds exist.
            bounds = [parent.value() for parent, bound in stack if bound is not None]
            if incumbent is not None:
                bounds.append((best_num, best_unit))
            lower_bound = min(Fraction(num, unit) for num, unit in bounds)
            return Outcome(OutcomeKind.BUDGET_EXHAUSTED, lower_bound=lower_bound, tableau=root)

        parent, bound = stack.pop()
        if bound is not None:
            if incumbent is not None:
                num, unit = parent.value()
                if num * best_unit >= best_num * unit:
                    continue
            parent = parent.bounded(*bound)

        outcome = simplex_min(form, parent)
        solves += 1

        if outcome.kind is OutcomeKind.INFEASIBLE:
            continue
        if outcome.kind is OutcomeKind.UNBOUNDED:
            raise UnboundedRelaxation("LP relaxation is unbounded; integer minimum undefined")

        final = outcome.tableau
        if root is None:
            root = final
        num, unit = final.value()
        if incumbent is not None and num * best_unit >= best_num * unit:
            continue

        den = final.den
        frac_var = -1
        for row, b in zip(final.rows, final.basis):
            if b < n and row[-1] % den and (frac_var < 0 or b < frac_var):
                frac_var, floor = b, row[-1] // den
        if frac_var < 0:
            incumbent, best_num, best_unit = final, num, unit
            continue

        # LIFO: push the ceiling branch first so the floor branch is explored first.
        stack.append((final, (frac_var, floor + 1, False)))
        stack.append((final, (frac_var, floor, True)))

    if incumbent is None:
        return INFEASIBLE
    return Outcome(OutcomeKind.OPTIMAL, tableau=root, optimum=incumbent)
