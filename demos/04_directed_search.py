"""
Directed search strategies
==========================

One generic best-first loop, three selection strategies: Dijkstra orders by
path weight g, A* by g + h, greedy best-first by h alone.  With an exact
lower bound h, A* returns shortest witnesses while expanding a fraction of
what Dijkstra touches; greedy search is faster still but may settle for a
longer witness.
"""

from ffreach import Instance, PetriNet, Strategy, TargetSpec, Transition, directed_search, make_heuristic

places = ["p1", "p2"]
net = PetriNet(
    places,
    [
        Transition.from_maps("t1", places, produce={"p1": 1}),
        Transition.from_maps("t2", places, consume={"p1": 1}, produce={"p1": 1, "p2": 1}),
        Transition.from_maps("t3", places, consume={"p1": 1}),
    ],
)
inst = Instance(net, (0, 0), frozenset(), TargetSpec.exact((0, 1))).validate()

# %% All three strategies find the target; count what they expand.
for strategy in Strategy:
    result = directed_search(inst, strategy, make_heuristic("q", inst))
    names = [net.transitions[t].name for t in result.witness.sequence]
    print(f"{strategy.value:9s} distance={result.distance} witness={' '.join(names)}")
    print(f"          expanded {result.stats.expanded} markings")

# %% Greedy search can be lured into a heavy shortcut: add a weight-5
# transition straight to the goal and it takes it, while A* still returns
# the weight-3 route.
trap_net = PetriNet(
    places,
    list(net.transitions) + [Transition.from_maps("t4", places, produce={"p2": 1}, weight=5)],
)
trap = Instance(trap_net, (0, 0), frozenset(), TargetSpec.exact((0, 1))).validate()
for strategy in (Strategy.ASTAR, Strategy.GBFS):
    result = directed_search(trap, strategy, make_heuristic("q", trap))
    names = [trap_net.transitions[t].name for t in result.witness.sequence]
    print(f"{strategy.value:9s} distance={result.distance} witness={' '.join(names)}")

# %% Unreachable targets: when the relaxation is already unsolvable at the
# initial marking, the search never expands anything.
hopeless = Instance(net, (1, 2), frozenset(), TargetSpec.exact((0, 1))).validate()
result = directed_search(hopeless, Strategy.ASTAR, make_heuristic("q", hopeless))
print("from (1,2):", result.verdict.value, "after", result.stats.expanded, "expansions")
