"""
Exact rational LP and ILP
=========================

The solver's numeric core: a two-phase simplex that takes and returns
fractions and pivots on integers over one common denominator (no floating
point anywhere), and a branch-and-bound integer minimizer on top of it.
"""

from fractions import Fraction

from ffreach import RationalLP, Relation, ilp_min, simplex_min

# %% minimize x + y subject to 3x + 2y = 4, x, y >= 0
problem = RationalLP.build([1, 1], [([3, 2], Relation.EQ, 4)])
out = simplex_min(problem)
print("LP optimum:", out.value, "at", out.point)

# %% The rational optimum is fractional; the integer optimum branches to (0, 2).
iout = ilp_min(problem)
print("ILP optimum:", iout.value, "at", iout.point)

# %% Out of node budget, branch-and-bound stops with a proven lower bound
# on the integer optimum instead: here the root LP value.
cut = ilp_min(problem, node_budget=1)
print("ILP with one node:", cut.kind.value, "lower bound", cut.lower_bound)

# %% Parity gap: 2x = 3 has the rational solution 3/2 but no integer one.
parity = RationalLP.build([1], [([2], Relation.EQ, 3)])
print("parity LP:", simplex_min(parity).value)
print("parity ILP:", ilp_min(parity).kind.value)

# %% Fractions stay exact no matter how awkward the data.
awkward = RationalLP.build(
    [Fraction(7, 3), Fraction(1, 9)],
    [([Fraction(2, 7), Fraction(-1, 5)], Relation.GEQ, Fraction(3, 11))],
)
out = simplex_min(awkward)
print("awkward optimum:", out.value, "=", float(out.value))
