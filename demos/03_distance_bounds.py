"""
Distance under-approximations
=============================

Three ways to bound the remaining distance to a target set from below:
counting transition firings over the rationals (d_Q), over the integers
(d_Z), and moving single tokens through a structural abstraction of the
net (d_struct).  Lower bounds are what make informed search exact.
"""

from ffreach import PetriNet, StateEquationHeuristic, StructHeuristic, TargetSpec, Transition

places = ["p1", "p2"]
net = PetriNet(
    places,
    [
        Transition.from_maps("t1", places, produce={"p1": 1}),
        Transition.from_maps("t2", places, consume={"p1": 1}, produce={"p1": 1, "p2": 1}),
        Transition.from_maps("t3", places, consume={"p1": 1}),
    ],
)
target = TargetSpec.exact((0, 1))

# %% The rational bound around the target: compare with true distances.
dq = StateEquationHeuristic(net, target)
print("d_Q toward (0,1):")
for m in [(0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (0, 1), (1, 2)]:
    print(f"  {m}: {dq(m)}")

# %% Integer firing counts can be strictly stronger: a transition that adds
# two tokens at a time can never hit an odd target over the integers.
parity = PetriNet(["p"], [Transition("double", (0,), (2,))])
odd = TargetSpec.exact((3,))
print("parity net, target p=3:")
print("  d_Q:", StateEquationHeuristic(parity, odd)((0,)))
print("  d_Z:", StateEquationHeuristic(parity, odd, integral=True)((0,)))

# %% The structural bound: tokens travel along place-to-place edges induced
# by transitions; the slowest token gives the bound.  Cheap to evaluate
# after one Dijkstra from the target's support over the reversed edges.
chain_places = ["p1", "p2", "p3"]
chain = PetriNet(
    chain_places,
    [
        Transition.from_maps("t1", chain_places, consume={"p1": 1}, produce={"p2": 1}),
        Transition.from_maps("t2", chain_places, consume={"p2": 1}, produce={"p3": 1}),
        Transition.from_maps("t3", chain_places, consume={"p3": 1}),
        Transition.from_maps("t4", chain_places, consume={"p3": 1}, produce={"p1": 1, "p3": 1}),
        Transition.from_maps("t5", chain_places, produce={"p1": 1}),
    ],
)
d_struct = StructHeuristic(chain, TargetSpec.exact((1, 0, 0)))
print("structural distance, tokens in p2 and p3, target exactly one token in p1:")
print("  d_struct =", d_struct((0, 1, 1)))
print("  (the p2 token needs two hops: p2 -> p3 -> p1)")
