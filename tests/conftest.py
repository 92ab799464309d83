import pytest

from ffreach import Instance, PetriNet, TargetSpec, Transition, directed_search


def search_expanding(inst: Instance, *args, reached: set | None = None):
    """``directed_search(inst, *args)`` and the markings it expanded, in
    order.  The search calls the net's ``successors`` once for each marking
    it expands except a goal, so a wrapper of that method records them; a
    reachable result whose goal was expanded, not reached by the lookahead
    from the last marking expanded, then adds the goal, its witness's final
    marking.  Every successor those calls return is added to ``reached``
    when it is given."""
    net, order = inst.net, []
    successors = net.successors

    def recording(m, *bounds):
        order.append(m)
        found = successors(m, *bounds)
        if reached is not None:
            reached.update(succ for _, succ in found)
        return found

    net.successors = recording
    try:
        result = directed_search(inst, *args)
    finally:
        del net.successors
    if result.reachable and result.stats.expanded > len(order):
        order.append(net.replay(inst.init, result.witness.sequence)[0])
    return result, order


def three_transition_net() -> PetriNet:
    """Two places; a producer into p1, a guarded copier p1 -> p1+p2, and a
    consumer of p1.  The running example throughout the tests."""
    places = ["p1", "p2"]
    return PetriNet(
        places,
        [
            Transition.from_maps("t1", places, produce={"p1": 1}),
            Transition.from_maps("t2", places, consume={"p1": 1}, produce={"p1": 1, "p2": 1}),
            Transition.from_maps("t3", places, consume={"p1": 1}),
        ],
        name="three-transitions",
    )


def chain_net() -> PetriNet:
    """p1 -> p2 -> p3 pipeline with a source into p1, a sink out of p3, and a
    feedback transition p3 -> p1+p3.  Used for the structural distance."""
    places = ["p1", "p2", "p3"]
    return PetriNet(
        places,
        [
            Transition.from_maps("t1", places, consume={"p1": 1}, produce={"p2": 1}),
            Transition.from_maps("t2", places, consume={"p2": 1}, produce={"p3": 1}),
            Transition.from_maps("t3", places, consume={"p3": 1}),
            Transition.from_maps("t4", places, consume={"p3": 1}, produce={"p1": 1, "p3": 1}),
            Transition.from_maps("t5", places, produce={"p1": 1}),
        ],
        name="chain",
    )


def parity_net() -> PetriNet:
    """Single place, single transition adding two tokens at a time."""
    return PetriNet(["p"], [Transition("t", (0,), (2,))], name="parity")


@pytest.fixture
def n1() -> PetriNet:
    return three_transition_net()


@pytest.fixture
def n1_instance(n1) -> Instance:
    return Instance(n1, (0, 0), frozenset(), TargetSpec.exact((0, 1))).validate()


@pytest.fixture
def n2() -> PetriNet:
    return chain_net()


FIG_FNET = """\
net three-transitions
places: p1 p2
init: p1=0 p2=0
transition t1
  produce p1:1
transition t2
  consume p1:1
  produce p1:1 p2:1
transition t3
  consume p1:1
target: p1=0 p2=1
"""


@pytest.fixture
def fig_fnet_text() -> str:
    return FIG_FNET
