import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from ffreach import (
    Instance,
    NetDefinitionError,
    PetriNet,
    Relation,
    SearchLimits,
    Strategy,
    TargetSpec,
    Transition,
    Verdict,
    desugar_init,
    directed_search,
    make_heuristic,
    parse_instance,
    random_walk,
)
from ffreach.net import MAX_TOKENS
from ffreach.ratlp import DEFAULT_ILP_NODE_BUDGET
from ffreach.search import BrokenParentChainError, SearchResult, reconstruct_witness
from conftest import search_expanding
from oracles import (
    backward_coverable,
    bounded_distance,
    cover_distance_by_enumeration,
    enumerate_reachable,
    oracle_solve,
    random_bounded_instance,
    reference_stubborn_set,
    remaining_distances,
)

INF = float("inf")


def instance(net, init, target) -> Instance:
    return Instance(net, init, frozenset(), target).validate()


class TestRunningExample:
    def test_astar_expands_only_the_shortest_path(self, n1_instance):
        # q's optimum at (0, 0), one t2, cannot fire; at (1, 0) it is t2
        # and t3, which the lookahead fires to the goal.
        result, expanded = search_expanding(n1_instance, Strategy.ASTAR, make_heuristic("q", n1_instance))
        assert result.verdict is Verdict.REACHABLE
        assert result.distance == 3
        assert result.witness.sequence == (0, 1, 2)
        assert expanded == [(0, 0), (1, 0)]
        assert result.stats.expanded == 2

    def test_gbfs_expands_the_same_markings(self, n1_instance):
        _, astar_expanded = search_expanding(n1_instance, Strategy.ASTAR, make_heuristic("q", n1_instance))
        gbfs, gbfs_expanded = search_expanding(n1_instance, Strategy.GBFS, make_heuristic("q", n1_instance))
        assert gbfs.verdict is Verdict.REACHABLE
        assert gbfs.distance == 3
        assert gbfs.witness.sequence == (0, 1, 2)
        assert gbfs_expanded == astar_expanded

    def test_dijkstra_agrees_on_distance(self, n1_instance):
        result = directed_search(n1_instance, Strategy.DIJKSTRA)
        assert result.distance == 3

    @pytest.mark.parametrize(
        "target_marking, distance, witness",
        [((1, 1), 2, (0, 1)), ((1, 2), 3, (0, 1, 1))],
    )
    def test_nearby_targets(self, n1, target_marking, distance, witness):
        # Expected values from the token-capped oracle: every transition adds
        # at most one token, so cap 6 is exact for distances up to 6.
        inst = instance(n1, (0, 0), TargetSpec.exact(target_marking))
        oracle_distance = bounded_distance(n1, (0, 0), inst.target, total_cap=6)
        assert oracle_distance == distance
        for strategy in Strategy:
            result = directed_search(inst, strategy, make_heuristic("q", inst))
            assert result.distance == distance
        astar = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
        assert astar.witness.sequence == witness

    def test_deterministic_expansion_order(self, n1_instance):
        runs = [
            search_expanding(n1_instance, Strategy.GBFS, make_heuristic("q", n1_instance))[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestUnreachable:
    def test_no_transitions(self):
        net = PetriNet(["a"], [])
        inst = instance(net, (0,), TargetSpec.exact((1,)))
        result = directed_search(inst, Strategy.DIJKSTRA)
        assert result.verdict is Verdict.UNREACHABLE
        assert result.distance is None

    def test_infinite_heuristic_at_init_short_circuits(self, n1):
        inst = instance(n1, (1, 2), TargetSpec.exact((0, 1)))
        result = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.expanded == 0

    def test_goal_equal_to_init(self, n1):
        inst = instance(n1, (1, 1), TargetSpec.exact((1, 1)))
        result = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
        assert result.distance == 0
        assert result.witness.sequence == ()


def test_upward_initial_marking_is_refused():
    # Searching from the exact (1, 0) would answer UNREACHABLE; the upward
    # reading (a >= 1) reaches (0, 1) by firing t from (2, 0).
    net = PetriNet(("a", "b"), (Transition("t", (2, 0), (0, 1)),))
    inst = Instance(net, (1, 0), frozenset({0}), TargetSpec.exact((0, 1))).validate()
    with pytest.raises(ValueError, match="desugar_init"):
        directed_search(inst)
    assert directed_search(desugar_init(inst)).verdict is Verdict.REACHABLE


@pytest.mark.parametrize("target", [TargetSpec.exact((0, 1, 5)), TargetSpec.cover((0, 1, 0)), TargetSpec.exact((0,))])
def test_target_of_the_wrong_length_is_refused(target):
    net = PetriNet(("a", "b"), (Transition("t", (1, 0), (0, 1)),))
    # Not validated: Instance.validate would refuse it first.
    inst = Instance(net, (1, 0), frozenset(), target)
    with pytest.raises(NetDefinitionError, match="target spec length differs from place count"):
        directed_search(inst)


def test_strategy_by_its_value():
    # "dijkstra", "astar" and "gbfs" run the searches their members run.
    rng = random.Random(5)
    for _ in range(40):
        inst = random_bounded_instance(rng)
        for strategy in Strategy:
            runs = [directed_search(inst, s, make_heuristic("q", inst)) for s in (strategy, strategy.value)]
            by_member, by_value = [(r.verdict, r.witness, r.stats.expanded, r.stats.heuristic_calls) for r in runs]
            assert by_value == by_member
    for other in ("bfs", "ASTAR", None):
        with pytest.raises(ValueError):
            directed_search(inst, other)


class TestLimits:
    def test_expansion_limit(self, n1_instance):
        result = directed_search(
            n1_instance, Strategy.DIJKSTRA, limits=SearchLimits(max_expansions=1)
        )
        assert result.verdict is Verdict.EXHAUSTED
        assert "expansion" in result.reason

    def test_time_limit(self, n1_instance):
        result = directed_search(
            n1_instance, Strategy.DIJKSTRA, limits=SearchLimits(max_time_ms=0)
        )
        assert result.verdict is Verdict.EXHAUSTED
        assert "time" in result.reason

    def test_limits_record(self):
        limits = SearchLimits(max_time_ms=5.0)
        assert limits == SearchLimits(None, 5.0) and hash(limits) == hash((None, 5.0))
        assert limits != SearchLimits(max_expansions=5)
        with pytest.raises(AttributeError):
            limits.max_time_ms = 1.0

    def test_each_result_has_its_own_stats(self):
        first, second = SearchResult(Verdict.UNREACHABLE), SearchResult(Verdict.UNREACHABLE)
        first.stats.expanded += 1
        assert (first.stats.expanded, second.stats.expanded) == (1, 0)

    def test_token_overflow_reported(self):
        # Only grow raises b, so it is in every stubborn set and is fired.
        net = PetriNet(["a", "b"], [Transition("grow", (0, 0), (1, 1))])
        inst = instance(net, (MAX_TOKENS, 0), TargetSpec(((Relation.GEQ, 0), (Relation.EQ, 1))))
        result = directed_search(inst, Strategy.DIJKSTRA)
        assert result.verdict is Verdict.EXHAUSTED
        assert "grow" in result.reason


class CountingHeuristic:
    """Wraps a heuristic and counts its calls and the calls on each marking."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.called: Counter = Counter()

    def __call__(self, m):
        self.calls += 1
        self.called[m] += 1
        return self.inner(m)


def draining_instance() -> Instance:
    """A finite state space without the target: three tokens flow a -> b -> c,
    two b tokens can merge back into one a, and four c tokens are wanted."""
    places = ["a", "b", "c"]
    net = PetriNet(
        places,
        [
            Transition.from_maps("ab", places, consume={"a": 1}, produce={"b": 1}),
            Transition.from_maps("bc", places, consume={"b": 1}, produce={"c": 1}),
            Transition.from_maps("ba", places, consume={"b": 2}, produce={"a": 1}),
        ],
    )
    return instance(net, (3, 0, 0), TargetSpec(((Relation.EQ, 0), (Relation.EQ, 0), (Relation.GEQ, 4))))


class TestEveryExit:
    """Each way out of the loop reports the counts it kept in locals."""

    def run(self, inst, strategy, name, limits=None):
        counter = CountingHeuristic(make_heuristic(name, inst))
        reached = {inst.init}
        result, expanded = search_expanding(inst, strategy, counter, limits, reached=reached)
        stats = result.stats
        assert stats.expanded == len(expanded)
        assert stats.heuristic_calls == counter.calls
        # Nothing is dropped at push time, so the root and every successor
        # of an expanded marking are stored, and only stored markings are
        # evaluated.
        assert stats.discovered == len(reached)
        assert counter.called.keys() <= reached
        return result, expanded

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_goal(self, n1_instance, strategy):
        result, expanded = self.run(n1_instance, strategy, "q")
        assert result.verdict is Verdict.REACHABLE
        assert expanded[-1] == (0, 1)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_expansion_limit(self, n1_instance, strategy):
        result, _ = self.run(n1_instance, strategy, "zero", SearchLimits(max_expansions=2))
        assert result.verdict is Verdict.EXHAUSTED and "expansion" in result.reason
        assert result.stats.expanded == 2

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_time_limit(self, strategy):
        # An unbounded net whose target lies 2**65 firings away.
        net = PetriNet(["a", "b"], [Transition("grow", (0, 0), (1, 0)), Transition("move", (1, 0), (0, 1))])
        inst = instance(net, (0, 0), TargetSpec.exact((0, MAX_TOKENS)))
        result, _ = self.run(inst, strategy, "struct", SearchLimits(max_time_ms=5))
        assert result.verdict is Verdict.EXHAUSTED and "time" in result.reason

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_token_overflow(self, strategy):
        # Below the target, b is raised by grow and swap alike, so every
        # stubborn set holds grow; its second firing overflows a.
        net = PetriNet(["a", "b"], [Transition("grow", (0, 0), (1, 1)), Transition("swap", (1, 0), (0, 1))])
        inst = instance(net, (MAX_TOKENS - 1, 0), TargetSpec(((Relation.GEQ, 0), (Relation.EQ, 2))))
        result, _ = self.run(inst, strategy, "zero")
        assert result.verdict is Verdict.EXHAUSTED and "overflow" in result.reason
        assert result.stats.expanded >= 2

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("name", ["zero", "struct"])
    def test_empty_frontier(self, strategy, name):
        result, _ = self.run(draining_instance(), strategy, name)
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.expanded > 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_infinite_initial_value(self, strategy):
        # The state equation cannot make four c tokens out of three.
        result, _ = self.run(draining_instance(), strategy, "q")
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.heuristic_calls == 1 and result.stats.expanded == 0
        # The search stores the root, then drops it when it pops and evaluates it.
        assert result.stats.discovered == 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_root_is_evaluated_once(self, n1_instance, strategy):
        # The root is pushed unevaluated and evaluated when it is popped.
        # Alone in the frontier, it is expanded, not pushed back.
        counter = CountingHeuristic(make_heuristic("q", n1_instance))
        assert counter.inner(n1_instance.init) > 0
        result = directed_search(n1_instance, strategy, counter)
        assert result.reachable and result.distance > 0
        assert counter.called[n1_instance.init] == 1
        assert result.stats.heuristic_calls == counter.calls == sum(counter.called.values())


class TestWitnessReconstruction:
    """The node table maps a marking to ``(g, parent, t)``; the root's
    parent and transition are ``None``."""

    def test_empty_chain(self):
        assert reconstruct_witness({(0, 0): (0, None, None)}, (0, 0)) == []

    def test_two_step_chain(self):
        nodes = {(0,): (0, None, None), (1,): (1, (0,), 4), (2,): (3, (1,), 7)}
        assert reconstruct_witness(nodes, (2,)) == [4, 7]

    def test_cycle_detected(self):
        nodes = {(0,): (1, (1,), 0), (1,): (1, (0,), 1)}
        with pytest.raises(BrokenParentChainError):
            reconstruct_witness(nodes, (0,))


def gbfs_trap_instance() -> Instance:
    """The copier pipeline plus a heavy direct transition to the goal.  The
    relaxed estimate at the start is blind to the cheaper three-step route,
    so greedy selection takes the expensive shortcut."""
    places = ["p1", "p2"]
    net = PetriNet(
        places,
        [
            Transition.from_maps("t1", places, produce={"p1": 1}),
            Transition.from_maps("t2", places, consume={"p1": 1}, produce={"p1": 1, "p2": 1}),
            Transition.from_maps("t3", places, consume={"p1": 1}),
            Transition.from_maps("t4", places, produce={"p2": 1}, weight=5),
        ],
    )
    return instance(net, (0, 0), TargetSpec.exact((0, 1)))


def ring(places: list[str], cycle: list[str]) -> list[Transition]:
    """One transition per place of ``cycle``, moving a token to the next place round it."""
    return [Transition.from_maps(f"{a}{b}", places, consume={a: 1}, produce={b: 1})
            for a, b in zip(cycle, cycle[1:] + cycle[:1])]


#: The 1,240th draw of ``random_bounded_instance(random.Random(7),
#: max_places=6, max_transitions=8, rational_weights=bool(i % 2),
#: upward=(i % 3 == 0))``, whose target is not coverable.  ``t5`` reads
#: ``p3``: it consumes a token there and produces it back.
READ_ARC_FNET = """\
net random
places: p0 p1 p2 p3 p4 p5
init: p0>=1 p1=3 p2>=3 p3>=3 p5=1
transition t0 weight 3/2
  consume p0:1
  produce p0:1
transition t1 weight 4/3
  consume p1:1
transition t2 weight 4/3
  consume p3:1
  produce p2:1
transition t3 weight 2
  consume p2:1
  produce p1:1
transition t4 weight 3/2
  consume p4:1
  produce p3:1
transition t5
  consume p3:1 p5:1
  produce p3:1 p4:1
target: p0>=2 p1>=1 p2>=1 p3>=1 p4>=2 p5>=1
"""


class TestStubbornSets:
    """At a marking that is no goal, the search fires only the enabled
    transitions of a weak stubborn set: ``net.successors(m, bounds)``."""

    def test_sets_of_the_running_example(self, n1):
        bounds = TargetSpec.exact((0, 1)).bounds()  # p1 = 0, p2 = 1

        def fired(m):
            return [t for t, _ in n1.successors(m, bounds)]

        # At (0, 0) p2 is low: t2 raises it, but t2 waits for p1, which
        # only t1 raises; t1 lowers nothing.
        assert fired((0, 0)) == [0]
        # At (1, 0) t2 raises p2 and lowers nothing: the set of p2 has one
        # enabled member, fewer than that of p1 (t3, and t2, which needs p1).
        assert fired((1, 0)) == [1]
        # p1 is high at (1, 1): t3 lowers it, and t2 needs what t3 lowers.
        assert fired((1, 1)) == [1, 2]
        # Nothing lowers p2, so no path from (0, 2) leads to the target.
        assert fired((0, 2)) == []
        assert n1.successors((0, 1), bounds) == n1.successors((0, 1))  # the target: no reduction
        assert n1.successors((1, 1), bounds) == [(1, (1, 2)), (2, (0, 1))]

    def test_a_read_arc_leaves_a_finite_reduced_space(self):
        # The blind searches exhaust the reduced state space in 3
        # expansions.  Closing t5 under "what lowers a place t5 needs" as
        # well, as strong stubborn sets do, brings in t2, and fed by the
        # generators of the upward places the searches run into any
        # expansion limit.
        base = parse_instance(READ_ARC_FNET)
        target = [bound for _, bound in base.target.constraints]
        assert not backward_coverable(base.net, base.init, base.init_upward, target)
        inst = desugar_init(base)
        for strategy, name in [(Strategy.DIJKSTRA, "zero"), (Strategy.ASTAR, "struct"), (Strategy.GBFS, "struct")]:
            result = directed_search(inst, strategy, make_heuristic(name, inst), SearchLimits(max_expansions=10))
            assert result.verdict is Verdict.UNREACHABLE, (strategy, name)

    def test_independent_loops_are_walked_one_at_a_time(self):
        # Two token rings of five places; the target moves each token three
        # places on.  Firing every enabled transition, Dijkstra expands 21
        # markings, interleavings of the two walks; with the reduction ring
        # a walks first, then ring b.
        a, b = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
        net = PetriNet(a + b, ring(a + b, a) + ring(a + b, b))
        inst = instance(net, (1, 0, 0, 0, 0) * 2, TargetSpec.exact((0, 0, 0, 1, 0) * 2))
        result, expanded = search_expanding(inst, Strategy.DIJKSTRA, make_heuristic("zero", inst))
        assert result.distance == 6
        assert result.stats.expanded == len(expanded) == 7
        assert result.stats.discovered == 7

    def test_what_needs_a_place_an_enabled_member_lowers_joins_the_set(self):
        # "move" turns the a token into the g token; "copy" reads a and adds
        # a c token; "mint" adds a c token at weight 5.  Copy must come
        # before move.  At the start the set of g (move, then copy, which
        # needs the a token move lowers) has two enabled members, and that
        # of c (copy, mint), with no fewer, is not kept; without the rule
        # the set of g would be move alone, and after it only mint adds c.
        places = ["g", "a", "c"]
        net = PetriNet(places, [
            Transition.from_maps("move", places, consume={"a": 1}, produce={"g": 1}),
            Transition.from_maps("copy", places, consume={"a": 1}, produce={"a": 1, "c": 1}),
            Transition.from_maps("mint", places, produce={"c": 1}, weight=5),
        ])
        target = TargetSpec(((Relation.EQ, 1), (Relation.GEQ, 0), (Relation.EQ, 1)))
        inst = instance(net, (0, 1, 0), target)
        assert [t for t, _ in net.successors((0, 1, 0), target.bounds())] == [0, 1]
        for strategy in Strategy:
            for name in HEURISTIC_NAMES:
                result = directed_search(inst, strategy, make_heuristic(name, inst))
                assert result.reachable, (strategy, name)
                if strategy is not Strategy.GBFS:
                    assert (result.distance, result.witness.sequence) == (2, (1, 0)), (strategy, name)

    @staticmethod
    def fired(places, raisers, target, m):
        """The transitions fired at ``m`` in a net where transition ``i``
        makes a token on ``raisers[i]`` from nothing."""
        net = PetriNet(places, [Transition.from_maps(f"t{i}", places, produce={p: 1}) for i, p in enumerate(raisers)])
        return [t for t, _ in net.successors(m, target.bounds())]

    def test_the_seed_with_the_fewest_enabled_members_is_fired(self):
        # a and b are both short; two transitions raise a, one raises b.
        assert self.fired("ab", "aab", TargetSpec.exact((1, 1)), (0, 0)) == [2]
        # Above an = bound the seed is the place's lowerers: none here.
        assert self.fired("ab", "aab", TargetSpec.exact((1, 1)), (0, 2)) == []

    def test_a_tie_keeps_the_earlier_place(self):
        # Two transitions raise each of a and b: a's are fired, whatever their indices.
        assert self.fired("ab", "aabb", TargetSpec.exact((1, 1)), (0, 0)) == [0, 1]
        assert self.fired("ab", "bbaa", TargetSpec.exact((1, 1)), (0, 0)) == [2, 3]
        # A first closure with one enabled member ends the choice.
        assert self.fired("ab", "ab", TargetSpec.exact((1, 1)), (0, 0)) == [0]

    def test_an_empty_seed_leaves_no_successors_unless_the_choice_has_stopped(self):
        # Nothing raises c, so no path reaches the target from (0, 0, 0).
        assert self.fired("abc", "aa", TargetSpec.exact((1, 0, 1)), (0, 0, 0)) == []
        assert self.fired("cab", "aa", TargetSpec.exact((1, 1, 0)), (0, 0, 0)) == []
        # But the choice has stopped at a closure with one enabled member.
        assert self.fired("abc", "a", TargetSpec.exact((1, 0, 1)), (0, 0, 0)) == [0]

    def test_the_set_fired_is_the_reference_set(self):
        # Desugared upward draws have generators, whose guards are empty;
        # the others have = targets, whose places can be above their bound.
        rng = random.Random(34)
        empty_guards = read_arcs = 0
        for i in range(300):
            inst = desugar_init(random_bounded_instance(rng, max_places=5, max_transitions=6, upward=i % 2 == 0))
            net, bounds = inst.net, inst.target.bounds()
            empty_guards += sum(not any(t.guard) for t in net.transitions)
            read_arcs += sum(0 < need <= made for t in net.transitions for need, made in zip(t.guard, t.produce))
            for _ in range(6):
                m = tuple(rng.randint(0, 3) for _ in net.places)
                fired = [t for t, _ in net.successors(m, bounds)]
                assert fired == reference_stubborn_set(net, m, bounds), (i, m)
        assert empty_guards and read_arcs

    def test_blind_searches_solve_a_mutex_net_of_forty_processes(self):
        # lock, the first violated place, closes to every enabled enter_i:
        # seeded there, Dijkstra+zero stores about a million markings
        # without reaching the target.
        inst = mutex_instance(40)
        distance = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst)).distance
        assert distance == 38
        for strategy, name in [(Strategy.DIJKSTRA, "zero"), (Strategy.ASTAR, "struct")]:
            result = directed_search(inst, strategy, make_heuristic(name, inst), SearchLimits(max_expansions=500))
            assert result.reachable and result.distance == distance


def mutex_instance(procs: int) -> Instance:
    """``procs`` processes, two tokens each, competing for one lock, with
    the end of a 40-step seed-1 random walk as exact target."""
    places = ["lock"]
    for i in range(procs):
        places += [f"idle{i}", f"wait{i}", f"crit{i}"]
    transitions = []
    for i in range(procs):
        transitions += [
            Transition.from_maps(f"req{i}", places, {f"idle{i}": 1}, {f"wait{i}": 1}),
            Transition.from_maps(f"enter{i}", places, {f"wait{i}": 1, "lock": 1}, {f"crit{i}": 1}, 2),
            Transition.from_maps(f"exit{i}", places, {f"crit{i}": 1}, {f"idle{i}": 1, "lock": 1}),
        ]
    net = PetriNet(places, transitions, f"mutex{procs}")
    init = (1,) + (2, 0, 0) * procs
    return instance(net, init, TargetSpec.exact(random_walk(net, init, 40, 1)[0]))


def mint_instance(tokens: int) -> Instance:
    """One place, filled by ``pair`` two tokens at a time or by ``one``
    one at a time, both of weight 1, up to exactly ``tokens`` from 0."""
    places = ["p"]
    net = PetriNet(places, [Transition.from_maps("pair", places, None, {"p": 2}),
                            Transition.from_maps("one", places, None, {"p": 1})], "mint")
    return instance(net, (0,), TargetSpec.exact((tokens,)))


def test_gbfs_evaluates_few_markings_it_does_not_expand():
    # An odd gap makes q's optimum half a ``pair`` more than an integer at
    # every even marking, so the lookahead never fires and GBFS expands
    # 0, 2, ..., 80 and the goal.  Each expansion pushes two successors;
    # evaluated when popped, the ``one`` successors GBFS never reaches are
    # never solved (evaluated when pushed, all 83 stored markings would be).
    inst = mint_instance(81)
    result = directed_search(inst, Strategy.GBFS, make_heuristic("q", inst))
    assert result.reachable and result.stats.expanded == 42 and result.stats.discovered == 83
    assert result.stats.heuristic_calls <= result.stats.expanded + 10


@pytest.mark.parametrize("strategy", [Strategy.ASTAR, Strategy.GBFS])
def test_the_lookahead_settles_the_mutex_net_at_the_root(strategy):
    # q's optimum at the root fires, in index order, to the target: 1
    # expansion, where each strategy expanded 41 markings without the
    # lookahead.
    inst = mutex_instance(160)
    result = directed_search(inst, strategy, make_heuristic("q", inst))
    assert result.reachable and result.distance == 41
    assert (result.stats.expanded, result.stats.heuristic_calls) == (1, 1)


class TestGbfsContract:
    def test_witness_valid_but_suboptimal(self):
        inst = gbfs_trap_instance()
        gbfs = directed_search(inst, Strategy.GBFS, make_heuristic("q", inst))
        astar = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
        assert astar.distance == 3
        assert gbfs.distance == 5
        final, witness = inst.net.replay(inst.init, gbfs.witness.sequence)
        assert inst.target.satisfied(final)
        assert witness.total_weight == gbfs.distance


class LookaheadRecorder:
    """A state-equation heuristic that counts its lookaheads and keeps the
    marking and sequence of the last one that fired."""

    def __init__(self, inner):
        self.inner, self.tries, self.ended = inner, 0, None

    def __call__(self, m):
        return self.inner(m)

    def lookahead(self, m, deadline=None):
        self.tries += 1
        tail = self.inner.lookahead(m, deadline)
        if tail is not None:
            self.ended = (m, tail)
        return tail


def coins_instance(target) -> Instance:
    """Coins minted two or three at a time and traded for goods, which are
    packed in pairs, from nothing to the exact ``(coin, good, pack)``."""
    places = ["coin", "good", "pack"]
    net = PetriNet(places, [
        Transition.from_maps("mint2", places, None, {"coin": 2}),
        Transition.from_maps("mint3", places, None, {"coin": 3}, 2),
        Transition.from_maps("buy", places, {"coin": 3}, {"good": 1}),
        Transition.from_maps("sell", places, {"good": 1}, {"coin": 2}),
        Transition.from_maps("wrap", places, {"good": 2}, {"pack": 1}),
        Transition.from_maps("unwrap", places, {"pack": 1}, {"good": 1, "coin": 1}),
    ], "coins")
    return instance(net, (0, 0, 0), TargetSpec.exact(target))


class TestLookahead:
    def test_random_corpus(self):
        # A lookahead that fired ends the search at m: the witness is the
        # path to m, then the fired tail, which weighs exactly h(m).
        # Dijkstra never looks ahead.
        rng = random.Random(3141)
        ended = Counter()
        for i in range(300):
            inst = random_bounded_instance(rng, rational_weights=i % 2 == 1)
            reachable, distance = oracle_solve(inst)
            for strategy in Strategy:
                for name in ("q", "z"):
                    heuristic = LookaheadRecorder(make_heuristic(name, inst))
                    result = directed_search(inst, strategy, heuristic)
                    if strategy is Strategy.DIJKSTRA:
                        assert heuristic.tries == 0
                    if not reachable:
                        assert result.verdict is Verdict.UNREACHABLE
                        continue
                    assert_answer(inst, result, strategy, distance)
                    if heuristic.ended is None:
                        continue
                    m, tail = heuristic.ended
                    sequence = result.witness.sequence
                    path = sequence[: len(sequence) - len(tail)]
                    assert sequence[len(path) :] == tuple(tail)
                    final, walked = inst.net.replay(inst.init, path)
                    assert final == m
                    assert result.distance == walked.total_weight + heuristic(m)
                    ended[strategy] += 1
        assert ended[Strategy.ASTAR] >= 200 and ended[Strategy.GBFS] >= 200, ended

    def test_a_fractional_optimum_is_never_fired(self):
        # Three coins cost q = 3/2 as one and a half mint2, and 2 as one
        # mint3.  Rounded down, x* would fire one mint2, which ends at two.
        inst = coins_instance((3, 0, 0))
        heuristic = make_heuristic("q", inst)
        assert heuristic(inst.init) == Fraction(3, 2)
        assert heuristic.lookahead(inst.init) is None
        recorder = LookaheadRecorder(make_heuristic("q", inst))
        result = directed_search(inst, Strategy.ASTAR, recorder)
        assert result.distance == 2 and result.witness.sequence == (1,)
        assert recorder.tries >= 1

    def test_a_greedy_run_that_fails_is_fired_once(self):
        # x* at the root is 3,000 ``fill`` and one ``use``, which needs a
        # ``key`` that x* does not mint: greedy firing fills p, then gets
        # stuck.  A* expands the 3,000 markings along that run, and x* at
        # each is the rest of it, so each lookahead would refire the rest
        # of the run; kept as failed, the run is fired once, not 3,000
        # times (seconds).
        places = ["p", "k", "b"]
        net = PetriNet(places, [Transition.from_maps("fill", places, None, {"p": 1}),
                                Transition.from_maps("use", places, {"k": 1}, {"k": 1, "b": 1}),
                                Transition.from_maps("key", places, None, {"k": 1})])
        inst = instance(net, (0, 0, 0), TargetSpec(((Relation.GEQ, 3000), (Relation.GEQ, 0), (Relation.GEQ, 1))))
        recorder = LookaheadRecorder(make_heuristic("q", inst))
        start = time.monotonic()
        result = directed_search(inst, Strategy.ASTAR, recorder)
        assert time.monotonic() - start < 1
        assert result.distance == 3002 and result.stats.expanded == recorder.tries == 3002

    @pytest.mark.parametrize("strategy", [Strategy.ASTAR, Strategy.GBFS])
    @pytest.mark.parametrize("name", ["q", "z"])
    def test_a_lookahead_past_max_tokens_fails_without_raising(self, strategy, name):
        # x* at the root fires ``fill`` and ``move`` twice each; ``fill``
        # first, as the greedy order picks it, passes MAX_TOKENS.  The
        # search goes on, and the lookahead fires from the next marking.
        places = ["p", "q"]
        net = PetriNet(places, [Transition.from_maps("fill", places, None, {"p": 1}),
                                Transition.from_maps("move", places, {"p": 1}, {"q": 1})])
        inst = instance(net, (MAX_TOKENS, 0), TargetSpec.exact((MAX_TOKENS, 2)))
        heuristic = make_heuristic(name, inst)
        assert heuristic(inst.init) == 4 and heuristic.lookahead(inst.init) is None
        recorder = LookaheadRecorder(make_heuristic(name, inst))
        result = directed_search(inst, strategy, recorder)
        assert result.reachable and result.distance == 4
        assert recorder.ended is not None and recorder.ended[0] != inst.init


HEURISTIC_NAMES = ("zero", "struct", "q", "z")


def assert_answer(inst: Instance, result: SearchResult, strategy: Strategy, distance) -> None:
    """``result`` reaches the target at the optimal ``distance`` (GBFS: at
    no less), with a witness that replays to a target marking at that weight."""
    assert result.reachable
    if strategy is Strategy.GBFS:
        assert result.distance >= distance
    else:
        assert result.distance == distance
    final, witness = inst.net.replay(inst.init, result.witness.sequence)
    assert inst.target.satisfied(final)
    assert witness.total_weight == result.distance


class TestRandomCorpus:
    def test_all_strategies_match_the_oracle(self):
        # Every search fires only the transitions of a stubborn set; the
        # oracle enumerates every successor.
        rng = random.Random(90210)
        reachable_seen = unreachable_seen = 0
        for i in range(40):
            inst = random_bounded_instance(rng, rational_weights=i % 2 == 1)
            reachable, distance = oracle_solve(inst)
            for strategy in Strategy:
                for name in HEURISTIC_NAMES:
                    result = directed_search(inst, strategy, make_heuristic(name, inst))
                    if reachable:
                        assert_answer(inst, result, strategy, distance)
                    else:
                        assert result.verdict is Verdict.UNREACHABLE
            reachable_seen += reachable
            unreachable_seen += not reachable
        assert reachable_seen >= 5 and unreachable_seen >= 5

    def test_cover_targets_from_upward_markings_match_the_oracle(self):
        # All-``>=`` targets from upward initial markings, searched after
        # desugar_init: the generators make the state space infinite, so an
        # unreachable target may exhaust the limit instead.  The optimal
        # distance is found by enumerating every extra-token vector an
        # optimal run could afford.
        rng = random.Random(6161)
        reachable_seen = unreachable_seen = 0
        for i in range(80):
            base = random_bounded_instance(rng, rational_weights=i % 3 == 1, upward=True)
            bounds = tuple(bound for _, bound in base.target.constraints)
            reachable = backward_coverable(base.net, base.init, base.init_upward, bounds)
            inst, gen_weight, distance = desugar_init(base), base.net.min_weight(), None
            for strategy in Strategy:
                for name in HEURISTIC_NAMES:
                    result = directed_search(inst, strategy, make_heuristic(name, inst), SearchLimits(5_000))
                    if not reachable:
                        assert result.verdict in (Verdict.UNREACHABLE, Verdict.EXHAUSTED)
                        continue
                    if distance is None:
                        assert result.reachable
                        distance = cover_distance_by_enumeration(
                            base.net, base.init, base.init_upward, base.target,
                            gen_weight=gen_weight, budget=int(result.distance / gen_weight),
                        )
                    assert_answer(inst, result, strategy, distance)
            reachable_seen += reachable
            unreachable_seen += not reachable
        assert reachable_seen >= 50 and unreachable_seen >= 5

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_deferred_evaluation_matches_the_oracle(self, strategy):
        # Every strategy evaluates a marking when it pops it, and pushes a
        # successor m' of m by t at h(m) - w(t).  Rational weights make an
        # A* push that forgets to subtract w(t) lose the optimum on a few
        # of these instances.  z with one ILP node keeps running out of its
        # budget.
        rng = random.Random(2)
        budget_ran_out = 0
        configs = [(name, DEFAULT_ILP_NODE_BUDGET) for name in HEURISTIC_NAMES] + [("z", 1)]
        for _ in range(500):
            inst = random_bounded_instance(rng, max_places=5, max_transitions=7, rational_weights=True)
            reachable, distance = oracle_solve(inst)
            for name, budget in configs:
                result = directed_search(inst, strategy, make_heuristic(name, inst, budget))
                if reachable:
                    assert_answer(inst, result, strategy, distance)
                else:
                    assert result.verdict is Verdict.UNREACHABLE
            budget_ran_out += make_heuristic("z", inst, 1)(inst.init) < make_heuristic("z", inst)(inst.init)
        assert budget_ran_out >= 10, budget_ran_out

    def test_no_reexpansion_with_consistent_heuristic(self):
        rng = random.Random(13579)
        for _ in range(25):
            inst = random_bounded_instance(rng)
            _, expanded = search_expanding(inst, Strategy.ASTAR, make_heuristic("q", inst))
            assert len(expanded) == len(set(expanded))

    def test_gbfs_terminates_and_upper_bounds(self):
        rng = random.Random(24680)
        for _ in range(30):
            inst = random_bounded_instance(rng)
            reachable, distance = oracle_solve(inst)
            if not reachable:
                continue
            result = directed_search(inst, Strategy.GBFS, make_heuristic("q", inst))
            assert result.verdict is Verdict.REACHABLE
            assert result.distance >= distance
            final, _ = inst.net.replay(inst.init, result.witness.sequence)
            assert inst.target.satisfied(final)

    def test_astar_optimal_under_inconsistent_admissible_heuristic(self):
        # Reinsertion on g-improvement restores optimality even when the
        # heuristic is only admissible: dampen the true distance on an
        # arbitrary half of the markings, which breaks consistency.
        rng = random.Random(192837)
        checked = 0
        for _ in range(40):
            inst = random_bounded_instance(rng)
            markings = enumerate_reachable(inst.net, inst.init)
            remaining = remaining_distances(inst.net, markings, inst.target)
            truth = remaining[tuple(inst.init)]
            if truth == INF:
                continue

            def jagged(m):
                t = remaining.get(m, INF)
                if t == INF:
                    return INF
                return t if hash(m) % 2 else t / 3

            result = directed_search(inst, Strategy.ASTAR, jagged)
            assert result.reachable and result.distance == truth
            checked += 1
        assert checked >= 10

    def test_expanded_g_values_are_true_distances_for_astar(self):
        # With a consistent heuristic every expanded marking is expanded at
        # its optimal g; spot-check via the oracle's forward distances.
        rng = random.Random(86420)
        for _ in range(10):
            inst = random_bounded_instance(rng)
            markings = enumerate_reachable(inst.net, inst.init)
            remaining = remaining_distances(inst.net, markings, inst.target)
            if remaining[tuple(inst.init)] == INF:
                continue
            result = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
            assert result.reachable


MIXED_WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))  # lcm of denominators: 30


def _reweighted(inst: Instance) -> Instance:
    """The same instance with weights 1/2, 1/3, 2/5 assigned in turn."""
    transitions = [
        Transition(t.name, t.guard, t.produce, MIXED_WEIGHTS[k % 3]) for k, t in enumerate(inst.net.transitions)
    ]
    net = PetriNet(inst.net.places, transitions, name=inst.net.name)
    return Instance(net, inst.init, inst.init_upward, inst.target).validate()


class TestIntegerPathWeights:
    """The loop scales weights by the lcm of their denominators; distances
    and witnesses must come out as the exact rationals."""

    def test_mixed_denominators_hand_built(self):
        places = ["a", "b", "c"]
        net = PetriNet(
            places,
            [
                Transition.from_maps("half", places, consume={"a": 1}, produce={"b": 1}, weight=Fraction(1, 2)),
                Transition.from_maps("third", places, consume={"b": 1}, produce={"c": 1}, weight=Fraction(1, 3)),
                Transition.from_maps("two_fifths", places, consume={"a": 1, "b": 1}, produce={"c": 2}, weight=Fraction(2, 5)),
            ],
        )
        inst = instance(net, (2, 0, 0), TargetSpec.exact((0, 0, 2)))
        # half, then two_fifths: 1/2 + 2/5 beats half, half, third, third (5/3).
        reachable, truth = oracle_solve(inst)
        assert reachable and truth == Fraction(9, 10)
        for strategy, name in [
            (Strategy.DIJKSTRA, "zero"),
            (Strategy.ASTAR, "q"),
            (Strategy.ASTAR, "z"),
            (Strategy.ASTAR, "struct"),
        ]:
            result = directed_search(inst, strategy, make_heuristic(name, inst))
            assert result.reachable
            assert type(result.distance) is Fraction and result.distance == truth
            assert result.witness.total_weight == truth
            assert net.replay(inst.init, result.witness.sequence)[0] == (0, 0, 2)

    def test_random_nets_match_the_oracle(self):
        rng = random.Random(3030)
        checked = 0
        for _ in range(60):
            inst = random_bounded_instance(rng)
            if inst.net.num_transitions < 3:
                continue
            inst = _reweighted(inst)
            reachable, truth = oracle_solve(inst)
            markings = enumerate_reachable(inst.net, inst.init)
            remaining = remaining_distances(inst.net, markings, inst.target)

            def sevenths(m):
                # Admissible, and not a multiple of 1/30: scaled, it stays a Fraction.
                return remaining[m] / 7 if remaining[m] != INF else INF

            for strategy, heuristic in [
                (Strategy.DIJKSTRA, make_heuristic("zero", inst)),
                (Strategy.ASTAR, make_heuristic("q", inst)),
                (Strategy.ASTAR, make_heuristic("struct", inst)),
                (Strategy.ASTAR, sevenths),
            ]:
                result = directed_search(inst, strategy, heuristic)
                assert result.reachable == reachable
                if reachable:
                    assert type(result.distance) is Fraction and result.distance == truth
            checked += reachable
        assert checked >= 10


class TestHeuristicValueTypes:
    def test_foreign_infinity_and_plain_ints(self):
        rng = random.Random(4242)
        unreachable = reachable = 0
        for _ in range(40):
            inst = random_bounded_instance(rng)  # unit weights
            markings = enumerate_reachable(inst.net, inst.init)
            remaining = remaining_distances(inst.net, markings, inst.target)

            def exact(m):
                d = remaining[m]
                # A fresh float infinity each time, and a plain int otherwise.
                return float("inf") if d == INF else int(d)

            result = directed_search(inst, Strategy.ASTAR, exact)
            truth = remaining[tuple(inst.init)]
            if truth == INF:
                assert result.verdict is Verdict.UNREACHABLE
                assert result.stats.expanded == 0
                unreachable += 1
            else:
                assert result.reachable and result.distance == truth
                reachable += 1
        assert unreachable >= 5 and reachable >= 5

    def test_int_zero_matches_zero_heuristic(self):
        rng = random.Random(4343)
        for _ in range(20):
            inst = random_bounded_instance(rng, rational_weights=True)
            for strategy in (Strategy.DIJKSTRA, Strategy.ASTAR):
                plain, plain_expanded = search_expanding(inst, strategy, lambda m: 0)
                zero, zero_expanded = search_expanding(inst, strategy, make_heuristic("zero", inst))
                assert plain.verdict is zero.verdict
                assert plain.distance == zero.distance
                assert plain_expanded == zero_expanded
