"""Independent reference implementations used to check the solver.

Everything in here is deliberately brute force and shares no code with the
library's solving path: plain BFS/Dijkstra over explicitly enumerated state
graphs, LP values by basic-solution enumeration, ILP values by integer-box
enumeration, and coverability by the classic backward fixpoint over
upward-closed sets.  The four exceptions are replaced library code kept as
step-for-step references: ``reference_simplex_min``, the ``Fraction``
tableau simplex the library's integer tableau replaced,
``reference_ilp_min``, the ``Fraction`` branch-and-bound loop the
library's integer loop replaced, ``reference_parse_instance``, the
token-by-token ``.fnet`` parser the one-pass parser replaced, and
``reference_firings``, the per-net tables as every net built them before
the one-loop build, and before ``desugar_init`` kept its parent's records.
So are ``reference_pivot`` and ``reference_shifted``, the dense Bareiss
step and the dense shift of a tableau's right-hand side that the sparse
ones replaced.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from time import monotonic

from ffreach import (
    FnetParseError,
    Instance,
    PetriNet,
    TargetSpec,
    Transition,
)
from ffreach.instance_io import DuplicateIdError, NonPositiveWeightError, UnknownPlaceError
from ffreach.net import MAX_TOKENS
from ffreach.ratlp import (
    DEFAULT_ILP_NODE_BUDGET,
    INFEASIBLE,
    Outcome,
    OutcomeKind,
    RationalLP,
    Relation,
    Tableau,
    UnboundedRelaxation,
    _lattice_infeasible,
    simplex_min,
    standard_form,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# explicit state-graph enumeration


def enumerate_reachable(net: PetriNet, init, node_cap: int = 200_000) -> set:
    """All markings reachable from init (the test nets are finite by
    construction; the cap only guards against generator bugs)."""
    seen = {tuple(init)}
    frontier = [tuple(init)]
    while frontier:
        m = frontier.pop()
        for _, succ in net.successors(m):
            if succ not in seen:
                if len(seen) >= node_cap:
                    raise RuntimeError("state space exceeded the oracle cap")
                seen.add(succ)
                frontier.append(succ)
    return seen


def distances_from_init(net: PetriNet, init) -> dict:
    """Exact weighted distances from init to every reachable marking."""
    dist = {tuple(init): Fraction(0)}
    heap = [(Fraction(0), tuple(init))]
    while heap:
        d, m = heapq.heappop(heap)
        if d > dist[m]:
            continue
        for t, succ in net.successors(m):
            nd = d + net.transitions[t].weight
            if succ not in dist or nd < dist[succ]:
                dist[succ] = nd
                heapq.heappush(heap, (nd, succ))
    return dist


def bfs_step_counts(net: PetriNet, init) -> dict:
    """Unweighted shortest step counts (cross-check for unit-weight nets)."""
    dist = {tuple(init): 0}
    queue = [tuple(init)]
    while queue:
        next_queue = []
        for m in queue:
            for _, succ in net.successors(m):
                if succ not in dist:
                    dist[succ] = dist[m] + 1
                    next_queue.append(succ)
        queue = next_queue
    return dist


def remaining_distances(net: PetriNet, markings: set, target: TargetSpec) -> dict:
    """dist(m, target set) for every enumerated marking, by reverse Dijkstra
    over the explicit graph restricted to ``markings``."""
    reverse: dict = {m: [] for m in markings}
    for m in markings:
        for t, succ in net.successors(m):
            if succ in reverse:
                reverse[succ].append((m, net.transitions[t].weight))
    dist = {m: (Fraction(0) if target.satisfied(m) else INF) for m in markings}
    heap = [(Fraction(0), m) for m in markings if target.satisfied(m)]
    heapq.heapify(heap)
    while heap:
        d, m = heapq.heappop(heap)
        if d > dist[m]:
            continue
        for pred, weight in reverse[m]:
            nd = d + weight
            if nd < dist[pred]:
                dist[pred] = nd
                heapq.heappush(heap, (nd, pred))
    return dist


def oracle_solve(inst: Instance):
    """(reachable?, optimal distance or INF) by explicit enumeration."""
    markings = enumerate_reachable(inst.net, inst.init)
    remaining = remaining_distances(inst.net, markings, inst.target)
    d = remaining[tuple(inst.init)]
    return d != INF, d


def bounded_reachable(net: PetriNet, init, total_cap: int) -> set:
    """Reachable markings whose total token count stays within ``total_cap``
    (for nets whose state space is infinite)."""
    init = tuple(init)
    seen = {init}
    frontier = [init]
    while frontier:
        m = frontier.pop()
        for _, succ in net.successors(m):
            if succ not in seen and sum(succ) <= total_cap:
                seen.add(succ)
                frontier.append(succ)
    return seen


def bounded_distance(net: PetriNet, init, target: TargetSpec, total_cap: int):
    """Distance from init to the target set through token-capped markings.

    Exact whenever some optimal path stays under the cap; on unit-weight
    nets whose transitions add at most one token per firing, a cap of
    sum(init) + distance is always sufficient.
    """
    markings = bounded_reachable(net, init, total_cap)
    remaining = remaining_distances(net, markings, target)
    return remaining[tuple(init)]


# ---------------------------------------------------------------------------
# LP / ILP reference values


def _solve_square(matrix, rhs):
    """Exact Gaussian elimination; returns the unique solution or None when
    the system is singular/inconsistent (matrix given as list of rows)."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    n_rows = len(rows)
    n_cols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            return None  # column without pivot: not full column rank
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if rows[i][-1] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * n_cols
    for i, c in enumerate(pivots):
        solution[c] = rows[i][-1]
    return solution


def vertex_enumeration_min(lp: RationalLP):
    """LP oracle for nonnegative objectives: minimum over all basic feasible
    solutions of the standard-form system, or None when infeasible."""
    assert all(c >= 0 for c in lp.objective), "oracle requires a bounded objective"
    geq_rows = [i for i, row in enumerate(lp.rows) if row.relation is Relation.GEQ]
    surplus_of = {i: lp.num_vars + k for k, i in enumerate(geq_rows)}
    total = lp.num_vars + len(geq_rows)
    matrix = []
    rhs = []
    for i, row in enumerate(lp.rows):
        line = [Fraction(c) for c in row.coeffs] + [Fraction(0)] * len(geq_rows)
        if i in surplus_of:
            line[surplus_of[i]] = Fraction(-1)
        matrix.append(line)
        rhs.append(Fraction(row.rhs))

    m = len(matrix)
    best = None
    for size in range(0, min(m, total) + 1):
        for support in itertools.combinations(range(total), size):
            sub = [[line[j] for j in support] for line in matrix]
            solution = _solve_square(sub, rhs) if support else (
                [] if all(b == 0 for b in rhs) else None
            )
            if solution is None:
                continue
            if any(x < 0 for x in solution):
                continue
            point = [Fraction(0)] * total
            for j, x in zip(support, solution):
                point[j] = x
            value = sum(
                (c * x for c, x in zip(lp.objective, point[: lp.num_vars])), Fraction(0)
            )
            if best is None or value < best:
                best = value
    return best


def integer_box_min(lp: RationalLP, box: int):
    """ILP oracle: exhaustive scan of the integer box [0, box]^n."""
    best = None
    for point in itertools.product(range(box + 1), repeat=lp.num_vars):
        ok = True
        for row in lp.rows:
            lhs = sum(c * x for c, x in zip(row.coeffs, point))
            if row.relation is Relation.EQ:
                if lhs != row.rhs:
                    ok = False
                    break
            elif lhs < row.rhs:
                ok = False
                break
        if ok:
            value = sum(
                (c * Fraction(x) for c, x in zip(lp.objective, point)), Fraction(0)
            )
            if best is None or value < best:
                best = value
    return best


# ---------------------------------------------------------------------------
# reference simplex: the Fraction Gauss-Jordan tableau the integer (Bareiss)
# simplex in ffreach.ratlp replaced.  On integer rows both must take the same
# pivots, so their outcomes must be identical, point included.


def _reference_pivot(tableau, basis, row, col):
    pivot_row = tableau[row]
    inv = 1 / pivot_row[col]
    tableau[row] = pivot_row = [v * inv if v else v for v in pivot_row]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [a - factor * b if b else a for a, b in zip(other, pivot_row)]
    basis[row] = col


def _reference_run_simplex(tableau, basis, num_cols) -> str:
    """Bland's rule on the last tableau row; "optimal" or "unbounded"."""
    m = len(basis)
    while True:
        cost = tableau[-1]
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
        _reference_pivot(tableau, basis, best_row, col)


def reference_pivot(tableau, basis, den, row, col) -> int:
    """``ratlp._pivot`` as a dense Bareiss step: every row other than the
    pivot row with a nonzero factor ``f`` becomes ``(a*p - f*b) / den`` over
    all its columns, and with a factor of 0, ``a*p / den``.  Returns the new
    denominator."""
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
        elif p != den:
            tableau[i] = [a * p // den for a in other]
    basis[row] = col
    return p


def reference_shifted(tableau: Tableau, shift: dict[int, int]) -> Tableau:
    """``Tableau.shifted`` as a dense loop: every row, the cost row
    included, is read at every shifted column."""
    rows = []
    for row in tableau.rows:
        delta = sum(k * row[j] for j, k in shift.items())
        rows.append([*row[:-1], row[-1] - delta] if delta else row)
    gain = sum(k * tableau.objective[j] for j, k in shift.items())
    cost = rows[-1]
    rows[-1] = [*cost[:-1], cost[-1] + tableau.den * gain]
    return Tableau(tuple(rows), tableau.basis, tableau.den, tableau.objective, tableau.obj_scale)


def reference_simplex_min(lp: RationalLP) -> Outcome:
    """Two-phase simplex on a ``Fraction`` tableau, virtual artificials,
    carried objective row, Bland's rule throughout."""
    zero = Fraction(0)
    n = lp.num_vars
    geq_rows = [i for i, row in enumerate(lp.rows) if row.relation is Relation.GEQ]
    surplus_of = {i: n + k for k, i in enumerate(geq_rows)}
    num_structural = n + len(geq_rows)

    tableau = []
    for i, row in enumerate(lp.rows):
        line = [Fraction(c) for c in row.coeffs] + [zero] * len(geq_rows) + [Fraction(row.rhs)]
        if i in surplus_of:
            line[surplus_of[i]] = Fraction(-1)
        if line[-1] < 0:
            line = [-v for v in line]
        tableau.append(line)
    basis = [num_structural + i for i in range(len(tableau))]

    phase1 = [zero] * (num_structural + 1)
    for line in tableau:
        phase1 = [c - v for c, v in zip(phase1, line)]
    objective = [Fraction(c) for c in lp.objective] + [zero] * (len(geq_rows) + 1)
    tableau += [objective, phase1]
    _reference_run_simplex(tableau, basis, num_structural)
    if tableau.pop()[-1] != 0:
        return Outcome(OutcomeKind.INFEASIBLE)

    for i in range(len(basis) - 1, -1, -1):
        if basis[i] >= num_structural:
            col = next((j for j in range(num_structural) if tableau[i][j] != 0), None)
            if col is None:
                tableau.pop(i)
                basis.pop(i)
            else:
                _reference_pivot(tableau, basis, i, col)

    if _reference_run_simplex(tableau, basis, num_structural) == "unbounded":
        return Outcome(OutcomeKind.UNBOUNDED)

    point = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][-1]
    return Outcome(OutcomeKind.OPTIMAL, -tableau[-1][-1], tuple(point))


# ---------------------------------------------------------------------------
# reference branch-and-bound: the ``Fraction`` node loop that ffreach.ratlp's
# integer one replaced, kept unchanged but for its name.  It solves its node
# LPs through the library's ``simplex_min`` and decides on their ``Fraction``
# values and points, so both loops must solve the same node LPs in the same
# order and return equal outcomes.


def reference_ilp_min(
    lp: RationalLP,
    node_budget: int = DEFAULT_ILP_NODE_BUDGET,
    start: Tableau | None = None,
    deadline: float | None = None,
) -> Outcome:
    """Minimize over nonnegative *integer* points by branch-and-bound.

    Depth-first, branching on the first fractional variable in index order
    (floor branch explored first), pruning against the incumbent, one LP
    per node.  The root relaxation is solved from scratch, or re-solved from
    ``start`` as :func:`simplex_min` does; every other node is its parent's
    final tableau plus one bound row, re-solved by the dual simplex.  When
    the node budget runs out, or the ``time.monotonic()`` ``deadline``
    passes (checked before each node after the root), the result carries
    the best lower bound proven so far, which is always >= the root LP
    relaxation value.  Every feasible outcome carries the root relaxation's
    final tableau, which stays a warm start whatever the integer point is.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be >= 1")
    if _lattice_infeasible(standard_form(lp)):
        return INFEASIBLE

    incumbent: tuple[Fraction, tuple[Fraction, ...]] | None = None
    root: Tableau | None = None
    # Stack entries: (the parent's final tableau, the bound to add to it as
    # (variable, bound, upper), the parent's value); the root has no parent.
    stack: list[tuple[Tableau | None, tuple[int, int, bool] | None, Fraction | None]] = [(start, None, None)]
    solves = 0

    while stack:
        if solves >= node_budget or (deadline is not None and solves and monotonic() > deadline):
            open_bounds = [b for _, _, b in stack if b is not None]
            candidates = open_bounds + ([incumbent[0]] if incumbent else [])
            # Every stacked node descends from a solved parent, so bounds exist.
            return Outcome(OutcomeKind.BUDGET_EXHAUSTED, lower_bound=min(candidates), tableau=root)

        parent, bound, inherited = stack.pop()
        if incumbent is not None and inherited is not None and inherited >= incumbent[0]:
            continue

        outcome = simplex_min(lp, parent.bounded(*bound) if bound else parent)
        solves += 1

        if outcome.kind is OutcomeKind.INFEASIBLE:
            continue
        if outcome.kind is OutcomeKind.UNBOUNDED:
            raise UnboundedRelaxation("LP relaxation is unbounded; integer minimum undefined")

        assert outcome.value is not None and outcome.point is not None
        if root is None:
            root = outcome.tableau
        if incumbent is not None and outcome.value >= incumbent[0]:
            continue

        frac_var = next((j for j, x in enumerate(outcome.point) if x.denominator != 1), None)
        if frac_var is None:
            incumbent = (outcome.value, outcome.point)
            continue

        x = outcome.point[frac_var]
        floor = x.numerator // x.denominator
        # LIFO: push the ceiling branch first so the floor branch is explored first.
        stack.append((outcome.tableau, (frac_var, floor + 1, False), outcome.value))
        stack.append((outcome.tableau, (frac_var, floor, True), outcome.value))

    if incumbent is None:
        return INFEASIBLE
    return Outcome(OutcomeKind.OPTIMAL, incumbent[0], incumbent[1], tableau=root)


# ---------------------------------------------------------------------------
# reference parser: the token-by-token ``.fnet`` parser the one-pass parser in
# ffreach.instance_io replaced, kept unchanged but for its error on a numeral
# too long to convert.  On every text both must return equal instances, or
# raise the same error with the same line.


_ID_RE = re.compile(r"^[^\s=:>#]+$")
_MARKING_ENTRY_RE = re.compile(r"^(?P<id>[^\s=:>#]+)(?P<op>>=|=)(?P<nat>\d+)$")
_ARC_ENTRY_RE = re.compile(r"^(?P<id>[^\s=:>#]+)(?P<op>:)(?P<nat>\d+)$")


#: The weight of a transition declared without one; ``Fraction`` is immutable.
_UNIT_WEIGHT = Fraction(1)


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _int(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter's int-string limit
        raise FnetParseError("number has too many digits", lineno) from None


def _parse_weight(tokens: list[str], lineno: int) -> Fraction:
    if len(tokens) != 1:
        raise FnetParseError("expected a single rational after 'weight'", lineno)
    text = tokens[0]
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", text)
    if not m:
        raise FnetParseError(f"invalid rational {text!r}", lineno)
    num = _int(m.group(1), lineno)
    den = _int(m.group(2), lineno) if m.group(2) else 1
    if den == 0:
        raise FnetParseError(f"invalid rational {text!r} (zero denominator)", lineno)
    weight = Fraction(num, den)
    if weight <= 0:
        raise NonPositiveWeightError(f"transition weight must be > 0, got {text}", lineno)
    return weight


def _parse_entries(
    tokens: list[str],
    lineno: int,
    places: dict[str, int],
    what: str,
    entry_re: re.Pattern = _MARKING_ENTRY_RE,
    expected: str = "id=nat or id>=nat",
):
    """Parse ``id<op>nat`` entries; returns (values, the places whose op is ``>=``)."""
    values: dict[int, int] = {}
    flagged: set[int] = set()
    for tok in tokens:
        m = entry_re.match(tok)
        if not m:
            raise FnetParseError(f"bad {what} entry {tok!r} (expected {expected})", lineno)
        pid = m.group("id")
        if pid not in places:
            raise UnknownPlaceError(f"unknown place {pid!r} in {what}", lineno)
        idx = places[pid]
        if idx in values:
            raise DuplicateIdError(f"place {pid!r} listed twice in {what}", lineno)
        values[idx] = _int(m.group("nat"), lineno)
        if m.group("op") == ">=":
            flagged.add(idx)
    return values, flagged


class _TransitionDraft:
    def __init__(self, name: str, weight: Fraction):
        self.name = name
        self.weight = weight
        self.consume: dict[int, int] | None = None
        self.produce: dict[int, int] | None = None


def reference_parse_instance(text: str) -> Instance:
    """Parse ``.fnet`` text into a validated Instance.

    This is where outside input is checked: every syntax error, unknown or
    duplicate id, non-positive weight and numeral longer than ``int()``
    converts raises an FnetParseError carrying its line number, and token
    counts beyond the 64-bit range raise
    NetDefinitionError."""
    name: str | None = None
    places: list[str] | None = None
    place_index: dict[str, int] = {}
    init_values: dict[int, int] | None = None
    init_flagged: set[int] = set()
    target_values: dict[int, int] | None = None
    target_flagged: set[int] = set()
    drafts: list[_TransitionDraft] = []
    transition_ids: set[str] = set()
    seen_target = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        keyword, rest = tokens[0], tokens[1:]

        if keyword == "net":
            if name is not None:
                raise FnetParseError("duplicate 'net' line", lineno)
            if not rest:
                raise FnetParseError("'net' requires a name", lineno)
            name = " ".join(rest)
            continue

        if name is None:
            raise FnetParseError("expected 'net <name>' before anything else", lineno)

        if keyword == "places:":
            if places is not None:
                raise FnetParseError("duplicate 'places:' line", lineno)
            for pid in rest:
                if not _ID_RE.match(pid):
                    raise FnetParseError(f"invalid place id {pid!r}", lineno)
                if pid in place_index:
                    raise DuplicateIdError(f"place {pid!r} declared twice", lineno)
                place_index[pid] = len(place_index)
            places = rest
            continue

        if places is None:
            raise FnetParseError("expected 'places:' before this line", lineno)
        if seen_target:
            raise FnetParseError("'target:' must be the last section", lineno)

        if keyword == "init:":
            if init_values is not None:
                raise FnetParseError("duplicate 'init:' line", lineno)
            if drafts:
                raise FnetParseError("'init:' must come before transitions", lineno)
            init_values, init_flagged = _parse_entries(rest, lineno, place_index, "init")
            for idx in init_flagged:
                if init_values[idx] < 1:
                    raise FnetParseError(
                        f"upward-flagged place {places[idx]!r} needs at least 1 token "
                        "(use id=0 for an exactly-empty place)",
                        lineno,
                    )
            continue

        if keyword == "transition":
            if not rest:
                raise FnetParseError("'transition' requires an id", lineno)
            tid = rest[0]
            if not _ID_RE.match(tid):
                raise FnetParseError(f"invalid transition id {tid!r}", lineno)
            if tid in place_index or tid in transition_ids:
                raise DuplicateIdError(f"id {tid!r} declared twice", lineno)
            transition_ids.add(tid)
            weight = _UNIT_WEIGHT
            if len(rest) > 1:
                if rest[1] != "weight":
                    raise FnetParseError(f"unexpected token {rest[1]!r} after transition id", lineno)
                weight = _parse_weight(rest[2:], lineno)
            drafts.append(_TransitionDraft(tid, weight))
            continue

        if keyword in ("consume", "produce"):
            if not drafts:
                raise FnetParseError(f"'{keyword}' outside a transition block", lineno)
            draft = drafts[-1]
            if getattr(draft, keyword) is not None:
                raise DuplicateIdError(
                    f"duplicate '{keyword}' line for transition {draft.name!r}", lineno
                )
            arcs, _ = _parse_entries(rest, lineno, place_index, keyword, _ARC_ENTRY_RE, "id:nat")
            setattr(draft, keyword, arcs)
            continue

        if keyword == "target:":
            target_values, target_flagged = _parse_entries(rest, lineno, place_index, "target")
            seen_target = True
            continue

        raise FnetParseError(f"unrecognized keyword {keyword!r}", lineno)

    if name is None:
        raise FnetParseError("missing 'net <name>' line")
    if places is None:
        raise FnetParseError("missing 'places:' line")

    num = len(places)
    transitions = []
    for draft in drafts:
        consume = draft.consume or {}
        produce = draft.produce or {}
        guard = tuple(consume.get(i, 0) for i in range(num))
        prod = tuple(produce.get(i, 0) for i in range(num))
        transitions.append(Transition(draft.name, guard, prod, draft.weight))
    # The checks above reject every empty or duplicate id, negative count and
    # non-positive weight with its line number, so the net is not checked again.
    net = PetriNet._trusted(tuple(places), tuple(transitions), name)

    init_values = init_values or {}
    init = tuple(init_values.get(i, 0) for i in range(num))

    target_values = target_values or {}
    constraints = []
    for i in range(num):
        if i not in target_values:
            constraints.append((Relation.GEQ, 0))
        elif i in target_flagged:
            constraints.append((Relation.GEQ, target_values[i]))
        else:
            constraints.append((Relation.EQ, target_values[i]))
    target = TargetSpec(tuple(constraints))

    return Instance(net, init, frozenset(init_flagged), target).validate()


# ---------------------------------------------------------------------------
# backward coverability (upward-closed target, upward-closed init)


def _pre_basis(net: PetriNet, u):
    """Minimal markings from which one transition reaches the upward closure
    of u."""
    out = []
    for t in range(net.num_transitions):
        trans = net.transitions[t]
        effect = [p - g for p, g in zip(trans.produce, trans.guard)]
        pre = tuple(max(u[p] - effect[p], trans.guard[p]) for p in range(net.num_places))
        out.append(pre)
    return out


def _dominated(u, basis) -> bool:
    return any(all(a >= b for a, b in zip(u, v)) for v in basis)


def backward_coverable(net: PetriNet, init, init_upward, bounds) -> bool:
    """Exact decision of coverability from the upward-closed initial set.

    ``bounds`` is the all->= target vector.  Classic backward fixpoint on
    minimal bases of upward-closed sets; termination by well-quasi-ordering.
    """

    def covered_by_init(u) -> bool:
        # Flagged places can hold arbitrarily many tokens initially.
        return all(p in init_upward or init[p] >= u[p] for p in range(net.num_places))

    basis = {tuple(bounds)}
    while True:
        new = set()
        for u in basis:
            for pre in _pre_basis(net, u):
                if not _dominated(pre, basis | new):
                    new.add(pre)
        if not new:
            break
        merged = set()
        for u in basis | new:
            if not any(
                v != u and all(a >= b for a, b in zip(u, v)) for v in basis | new
            ):
                merged.add(u)
        if merged == basis:
            break
        basis = merged
    return any(covered_by_init(u) for u in basis)


def cover_distance_by_enumeration(net, init, init_upward, target, gen_weight, budget):
    """Optimal coverability distance, counting ``gen_weight`` per extra
    initial token, by enumerating every useful extra-token vector.

    Any optimal run whose total weight is D uses at most D / gen_weight
    extra tokens, so enumerating up to ``budget`` total extras is complete
    whenever budget >= D / gen_weight.
    """
    flagged = sorted(init_upward)
    best = INF
    for extras in itertools.product(range(budget + 1), repeat=len(flagged)):
        if sum(extras) > budget:
            continue
        start = list(init)
        for p, k in zip(flagged, extras):
            start[p] += k
        markings = enumerate_reachable(net, tuple(start))
        remaining = remaining_distances(net, markings, target)
        d = remaining[tuple(start)]
        if d != INF:
            total = sum(extras) * gen_weight + d
            if total < best:
                best = total
    return best


# ---------------------------------------------------------------------------
# reference firing tables: ``PetriNet._build_tables`` as it read every net's
# dense vectors, three comprehensions per transition, before ``_firings``
# read them in one loop and the net desugar_init extends kept its parent's
# records.  Every net's ``_firings``, ``scale`` and ``scaled_weights`` must
# equal what this returns for its transitions.


def reference_firings(transitions) -> tuple[tuple, int, tuple[int, ...]]:
    """The firing records ``(t, guard, deltas, raises)``, ``L`` and the
    ``L``-scaled weights of ``transitions``, read off the dense vectors."""
    firings = []
    for t, trans in enumerate(transitions):
        guard = tuple([(p, need) for p, need in enumerate(trans.guard) if need])
        deltas = tuple([(p, d) for p, d in enumerate(map(operator.sub, trans.produce, trans.guard)) if d])
        firings.append((t, guard, deltas, tuple([p for p, d in deltas if d > 0])))
    ratios = [t.weight.as_integer_ratio() for t in transitions]
    scale = math.lcm(*[den for _, den in ratios])
    return tuple(firings), scale, tuple([num * (scale // den) for num, den in ratios])


# ---------------------------------------------------------------------------
# reference stubborn sets: the set ``PetriNet.successors(m, bounds)`` fires,
# chosen off the dense guard and produce vectors, without masks or records.


def reference_stubborn_set(net: PetriNet, m, bounds) -> list[int]:
    """The enabled members, in index order, of the weak stubborn set of
    ``m`` under ``bounds`` (``TargetSpec.bounds()``), or every enabled
    transition when ``m`` violates no bound.

    Each violated place gives a seed: its raisers when ``m`` is below the
    least count, its lowerers when above the most.  A seed is closed under
    two rules: an enabled member brings in every transition that needs a
    place it lowers, a disabled one the raisers of the first place of its
    guard that ``m`` leaves short.  The closure with the fewest enabled
    members wins, a tie going to the earlier place, and the choice stops at
    a closure with at most one."""
    transitions = net.transitions
    indices = range(len(transitions))

    def enabled(t):
        return all(have >= need for have, need in zip(m, transitions[t].guard))

    def changers(p, sign):
        return [t for t in indices if (transitions[t].produce[p] - transitions[t].guard[p]) * sign > 0]

    def closure(seed):
        members, todo = set(seed), list(seed)
        while todo:
            t = todo.pop()
            guard, produce = transitions[t].guard, transitions[t].produce
            if enabled(t):
                lowered = [p for p in range(len(m)) if produce[p] < guard[p]]
                more = [u for u in indices if any(transitions[u].guard[p] for p in lowered)]
            else:
                more = changers(next(p for p in range(len(m)) if m[p] < guard[p]), 1)
            todo += [u for u in more if u not in members]
            members.update(more)
        return [t for t in sorted(members) if enabled(t)]

    best = None
    for p, least, most in bounds:
        if m[p] < least or m[p] > most:
            members = closure(changers(p, 1 if m[p] < least else -1))
            if best is None or len(members) < len(best):
                best = members
                if len(best) <= 1:
                    break
    return [t for t in indices if enabled(t)] if best is None else best


# ---------------------------------------------------------------------------
# reference net queries: the answers of ``PetriNet.dead_end``,
# ``PetriNet.guarded_within``, ``PetriNet.predecessors`` and
# ``PetriNet.realize``, read off the dense vectors alone.


def reference_dead_end(net: PetriNet, m, bounds) -> bool:
    """Whether some place that ``m`` violates under ``bounds`` has no
    transition whose effect moves it toward them: none that adds to it when
    it is below its least count, none that takes from it when above its most."""
    for p, least, most in bounds:
        effects = [trans.produce[p] - trans.guard[p] for trans in net.transitions]
        if (m[p] < least and max(effects, default=0) <= 0) or (m[p] > most and min(effects, default=0) >= 0):
            return True
    return False


def reference_guarded_within(net: PetriNet, places) -> list[int]:
    """The transitions, in index order, that need tokens only in ``places``."""
    return [t for t, trans in enumerate(net.transitions) if all(p in places for p, need in enumerate(trans.guard) if need)]


def reference_predecessors(net: PetriNet, m) -> list[tuple[int, tuple[int, ...]]]:
    """Each transition, in index order, with ``m`` minus its dense effect,
    for the transitions where that leaves no count negative."""
    out = []
    for t, trans in enumerate(net.transitions):
        before = tuple([have - made + need for have, need, made in zip(m, trans.guard, trans.produce)])
        if min(before, default=0) >= 0:
            out.append((t, before))
    return out


def reference_realize(net: PetriNet, m, counts, cap=MAX_TOKENS) -> list[int] | None:
    """The sequence ``PetriNet.realize(m, counts)`` returns, read off the
    dense vectors: each step fires the first enabled transition, in index
    order, with a count left.  None when none is enabled while a count is
    left, or when a step leaves a place above ``cap`` (``math.inf``
    lifts the cap)."""
    left, m, seq = list(counts), list(m), []
    while any(left):
        for t, trans in enumerate(net.transitions):
            if left[t] and all(have >= need for have, need in zip(m, trans.guard)):
                break
        else:
            return None
        m = [have - need + made for have, need, made in zip(m, trans.guard, trans.produce)]
        if max(m, default=0) > cap:
            return None
        seq.append(t)
        left[t] -= 1
    return seq


# ---------------------------------------------------------------------------
# random bounded instances


def random_bounded_instance(
    rng: random.Random,
    max_places: int = 4,
    max_transitions: int = 5,
    rational_weights: bool = False,
    upward: bool = False,
) -> Instance:
    """A random instance whose transitions never add tokens: each one
    consumes at least as many as it produces.  Without ``upward`` the
    reachable set is therefore finite.  With ``upward=True`` it is not:
    ``desugar_init`` turns each flag into a generator transition, and a
    search whose heuristic cannot prove the target unreachable (Dijkstra
    with ``zero``, GBFS with ``struct``) may never stop on an unreachable
    target, so such solves need a ``SearchLimits`` bound.

    Half of the targets are endpoints of a short random walk (reachable by
    construction, usually at a nonzero distance); the rest are arbitrary
    constraint vectors, which skew unreachable.  The verdict is always
    recomputed by the oracle, the bias only balances the corpus.
    """
    num_places = rng.randint(2, max_places)
    num_transitions = rng.randint(1, max_transitions)
    places = [f"p{i}" for i in range(num_places)]

    transitions = []
    for t in range(num_transitions):
        guard_total = rng.randint(1, 2)
        guard = [0] * num_places
        for _ in range(guard_total):
            guard[rng.randrange(num_places)] += 1
        # Token-preserving transitions keep the graph from draining instantly.
        produce_total = guard_total if rng.random() < 0.5 else rng.randint(0, guard_total)
        produce = [0] * num_places
        for _ in range(produce_total):
            produce[rng.randrange(num_places)] += 1
        if rational_weights:
            weight = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        else:
            weight = Fraction(1)
        transitions.append(Transition(f"t{t}", tuple(guard), tuple(produce), weight))
    net = PetriNet(places, transitions, name="random")

    init = [rng.randint(0, 3) for _ in range(num_places)]
    while sum(init) < 2:
        init[rng.randrange(num_places)] += 1
    init = tuple(init)
    init_upward = frozenset()
    if upward:
        candidates = [p for p in range(num_places) if init[p] >= 1]
        init_upward = frozenset(rng.sample(candidates, k=rng.randint(1, len(candidates))))

    if rng.random() < 0.5:
        # Walk-derived target: reachable by construction.
        m = init
        for _ in range(rng.randint(1, 8)):
            enabled = [t for t in range(net.num_transitions) if net.is_firable(m, t)]
            if not enabled:
                break
            m = net.fire(m, enabled[rng.randrange(len(enabled))])
        constraints = []
        for p in range(num_places):
            if upward:
                constraints.append((Relation.GEQ, rng.randint(0, m[p])))
            elif rng.random() < 0.7:
                constraints.append((Relation.EQ, m[p]))
            else:
                constraints.append((Relation.GEQ, rng.randint(0, m[p])))
    else:
        constraints = []
        for _ in range(num_places):
            rel = Relation.GEQ if upward else rng.choice([Relation.EQ, Relation.GEQ])
            constraints.append((rel, rng.randint(0, 2)))
    target = TargetSpec(tuple(constraints))

    return Instance(net, init, init_upward, target).validate()
