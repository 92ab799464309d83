import itertools
import random

import pytest

from ffreach import (
    Instance,
    NetDefinitionError,
    PetriNet,
    PruneVerdict,
    Relation,
    Strategy,
    TargetSpec,
    Transition,
    desugar_init,
    directed_search,
    make_heuristic,
    prune_instance,
    sign_analysis,
)
from ffreach import prune
from ffreach.prune import PruneResult
from oracles import enumerate_reachable, random_bounded_instance


def self_loop_net():
    places = ["a", "b"]
    return PetriNet(places, [Transition.from_maps("t", places, consume={"a": 1}, produce={"a": 1})])


def reference_markable(net: PetriNet, initially_marked: set[int]) -> set[int]:
    """The least fixpoint of sign analysis by brute force on the dense
    vectors: a transition whose guard places are all marked marks every
    place it produces into, until no transition marks a new place."""
    marked = set(initially_marked)
    changed = True
    while changed:
        changed = False
        for trans in net.transitions:
            if all(p in marked for p, need in enumerate(trans.guard) if need):
                new = {p for p, count in enumerate(trans.produce) if count} - marked
                changed = changed or bool(new)
                marked |= new
    return marked


def self_raising_net():
    """Self-loops, and transitions that raise one of their own guard places."""
    places = ["a", "b", "c", "d"]
    return PetriNet(places, [
        Transition.from_maps("loop", places, consume={"d": 1}, produce={"d": 1}),
        Transition.from_maps("grow", places, consume={"a": 1}, produce={"a": 2, "b": 1}),
        Transition.from_maps("join", places, consume={"b": 1, "c": 1}, produce={"a": 1, "d": 1}),
        Transition.from_maps("feed", places, consume={"b": 2}, produce={"b": 3, "c": 1}),
        Transition.from_maps("keep", places, consume={"c": 1, "d": 2}, produce={"c": 1, "d": 2}),
    ])


def chain(length: int, reverse: bool) -> PetriNet:
    """``c_i`` moves a token from ``s_i`` to ``s_(i+1)``, listed in order or in reverse."""
    places = [f"s{i}" for i in range(length + 1)]
    transitions = [
        Transition.from_maps(f"c{i}", places, consume={f"s{i}": 1}, produce={f"s{i + 1}": 1})
        for i in range(length)
    ]
    return PetriNet(places, transitions[::-1] if reverse else transitions)


def wide_guard(k: int) -> PetriNet:
    """``big`` needs all of ``q0 .. q(k-1)`` to mark ``qk``, and ``c_i``
    keeps ``q_i`` while it marks ``q_(i+1)``.  Listed as ``c_(k-2) .. c_0``
    and then ``big``, so that from ``{q0}`` the fixpoint wakes ``big`` once
    per place of its guard."""
    places = [f"q{i}" for i in range(k + 1)]
    steps = [
        Transition.from_maps(f"c{i}", places, consume={f"q{i}": 1}, produce={f"q{i}": 1, f"q{i + 1}": 1})
        for i in reversed(range(k - 1))
    ]
    big = Transition.from_maps("big", places, consume={f"q{i}": 1 for i in range(k)}, produce={f"q{k}": 1})
    return PetriNet(places, steps + [big])


class TestSignAnalysis:
    def test_empty_guard_seeds_the_fixpoint(self, n1):
        assert sign_analysis(n1, set()) == {0, 1}

    def test_unproducible_place_stays_unmarked(self):
        net = self_loop_net()
        assert sign_analysis(net, {0}) == {0}

    def test_full_set_is_a_fixpoint(self, n1):
        assert sign_analysis(n1, {0, 1}) == {0, 1}

    def test_chained_propagation(self, n2):
        assert sign_analysis(n2, set()) == {0, 1, 2}

    def test_order_independence(self):
        rng = random.Random(4242)
        for _ in range(30):
            inst = random_bounded_instance(rng)
            net = inst.net
            marked = sign_analysis(net, {p for p in range(net.num_places) if inst.init[p] > 0})
            order = list(range(net.num_transitions))
            rng.shuffle(order)
            permuted = PetriNet(net.places, [net.transitions[t] for t in order], name=net.name)
            permuted_marked = sign_analysis(
                permuted, {p for p in range(net.num_places) if inst.init[p] > 0}
            )
            assert marked == permuted_marked


    def test_self_raising_transitions(self):
        net = self_raising_net()
        assert sign_analysis(net, {0}) == {0, 1, 2, 3}
        assert sign_analysis(net, {1}) == {0, 1, 2, 3}
        assert sign_analysis(net, {2}) == {2}
        assert sign_analysis(net, {3}) == {3}

    def test_matches_a_reference_fixpoint(self):
        rng = random.Random(5150)
        nets = [self_loop_net(), self_raising_net()]
        for k in range(150):
            inst = random_bounded_instance(rng, max_places=6, max_transitions=8, upward=k % 3 == 0)
            nets.append(desugar_init(inst).net)
        grew = stopped_short = 0
        for net in nets:
            subsets = [set(), set(range(net.num_places))]
            subsets += [{p for p in range(net.num_places) if rng.random() < 0.3} for _ in range(4)]
            for initially_marked in subsets:
                expected = reference_markable(net, initially_marked)
                assert sign_analysis(net, initially_marked) == expected, (net.transitions, initially_marked)
                grew += expected != initially_marked
                stopped_short += len(expected) < net.num_places
        assert grew >= 100 and stopped_short >= 100  # neither side of the fixpoint is vacuous

        # Transitions woken many times, which the random nets rarely have.
        shaped = [(chain(200, False), {0}), (chain(200, True), {0}), (wide_guard(200), {0})]
        shaped.append((PetriNet([], [Transition("t", (), ())]), set()))
        for net, start in shaped:
            assert reference_markable(net, start) == set(range(net.num_places))
            for initially_marked in (start, {p for p in range(net.num_places) if rng.random() < 0.3}):
                assert sign_analysis(net, initially_marked) == reference_markable(net, initially_marked)


class TestPruneInstance:
    def test_fully_markable_net_unchanged(self, n1_instance):
        result = prune_instance(n1_instance)
        assert result.verdict is PruneVerdict.PRUNED
        assert result.pruned_instance is n1_instance

    def test_target_on_dead_place_settles_instance(self):
        net = self_loop_net()
        inst = Instance(net, (1, 0), frozenset(), TargetSpec(((Relation.GEQ, 0), (Relation.GEQ, 1)))).validate()
        assert prune_instance(inst).verdict is PruneVerdict.IMMEDIATELY_UNREACHABLE

    def test_vacuous_constraint_dropped(self):
        net = self_loop_net()
        inst = Instance(net, (1, 0), frozenset(), TargetSpec(((Relation.GEQ, 1), (Relation.EQ, 0)))).validate()
        result = prune_instance(inst)
        assert result.verdict is PruneVerdict.PRUNED
        pruned = result.pruned_instance
        assert pruned.net.num_places == 1
        assert pruned.net.num_transitions == 1
        assert pruned.target.constraints == ((Relation.GEQ, 1),)

    def test_transitions_needing_dead_places_removed(self):
        places = ["a", "b"]
        net = PetriNet(
            places,
            [
                Transition.from_maps("keep", places, consume={"a": 1}, produce={"a": 1}),
                Transition.from_maps("drop", places, consume={"b": 1}, produce={"a": 1}),
            ],
        )
        inst = Instance(net, (1, 0), frozenset(), TargetSpec.cover((0, 0))).validate()
        result = prune_instance(inst)
        assert result.pruned_instance.net.places == ("a",)
        assert [t.name for t in result.pruned_instance.net.transitions] == ["keep"]

    def test_upward_places_survive(self):
        places = ["a", "b"]
        net = PetriNet(places, [Transition.from_maps("t", places, consume={"a": 1})])
        inst = Instance(net, (1, 0), frozenset({0}), TargetSpec.cover((0, 0))).validate()
        result = prune_instance(inst)
        assert result.pruned_instance.init_upward == frozenset({0})

    def test_input_returned_when_nothing_is_removed(self):
        rng = random.Random(454545)
        counts = {True: 0, False: 0}
        settled_count = 0
        for _ in range(100):
            inst = desugar_init(random_bounded_instance(rng, upward=rng.random() < 0.3))
            result = prune_instance(inst)
            marked = {p for p in range(inst.net.num_places) if inst.init[p] > 0}
            removes_nothing = len(sign_analysis(inst.net, marked)) == inst.net.num_places
            settled = result.verdict is PruneVerdict.IMMEDIATELY_UNREACHABLE
            # A settled instance is not projected: the caller stops at the verdict.
            assert (result.pruned_instance is inst) == (removes_nothing or settled)
            if removes_nothing:
                assert not settled
            counts[removes_nothing] += 1
            settled_count += settled
        assert min(counts.values()) >= 20 and settled_count >= 10, (counts, settled_count)


    def test_fully_marked_instance_skips_the_fixpoint(self, monkeypatch):
        calls = []

        def counting(net, initially_marked):
            calls.append(net)
            return sign_analysis(net, initially_marked)

        monkeypatch.setattr(prune, "sign_analysis", counting)
        rng = random.Random(171717)
        counts = {True: 0, False: 0}
        for _ in range(200):
            inst = desugar_init(random_bounded_instance(rng, upward=rng.random() < 0.3))
            all_marked = all(inst.init)
            calls.clear()
            result = prune_instance(inst)
            assert len(calls) == (0 if all_marked else 1)
            if all_marked:
                assert result == PruneResult(inst, PruneVerdict.PRUNED) and result.pruned_instance is inst
            counts[all_marked] += 1
        assert min(counts.values()) >= 20
        # An upward-flagged place counts as marked before desugaring too.
        net = self_loop_net()
        inst = Instance(net, (1, 1), frozenset({1}), TargetSpec.cover((0, 2))).validate()
        calls.clear()
        assert prune_instance(inst).pruned_instance is inst and not calls

    @pytest.mark.parametrize("target", [TargetSpec.exact((0, 1, 0, 5)), TargetSpec.exact((0, 1))])
    @pytest.mark.parametrize("init", [(1, 0, 0), (1, 1, 1)])
    def test_target_of_the_wrong_length_is_refused(self, target, init):
        places = ["a", "b", "c"]
        net = PetriNet(places, [Transition.from_maps("t", places, consume={"a": 1}, produce={"b": 1})])
        # Not validated: Instance.validate would refuse it first.
        inst = Instance(net, init, frozenset(), target)
        with pytest.raises(NetDefinitionError, match="target spec length differs from place count"):
            prune_instance(inst)

    def test_result_record(self, n1_instance):
        result = prune_instance(n1_instance)
        assert hash(result) == hash((n1_instance, PruneVerdict.PRUNED))
        assert result == PruneResult(n1_instance, PruneVerdict.PRUNED)
        assert result != PruneResult(n1_instance, PruneVerdict.IMMEDIATELY_UNREACHABLE)
        with pytest.raises(AttributeError):
            result.verdict = PruneVerdict.IMMEDIATELY_UNREACHABLE


class TestSoundness:
    def test_pruned_places_never_marked(self):
        # Generators make the desugared net unbounded, so reachability is
        # enumerated on the base net over a truncated slice of the upward
        # closure of the initial marking.
        rng = random.Random(515151)
        for _ in range(40):
            base = random_bounded_instance(rng, upward=rng.random() < 0.3)
            inst = desugar_init(base)
            result = prune_instance(inst)
            # A settled instance comes back unprojected; its unmarkable places are checked too.
            markable = sign_analysis(inst.net, {p for p in range(inst.net.num_places) if inst.init[p] > 0})
            if result.verdict is PruneVerdict.PRUNED:
                assert result.pruned_instance.net.places == tuple(inst.net.places[p] for p in sorted(markable))
            removed = [p for p in range(base.net.num_places) if p not in markable]
            flagged = sorted(base.init_upward)
            for extras in itertools.product(range(3), repeat=len(flagged)):
                start = list(base.init)
                for p, k in zip(flagged, extras):
                    start[p] += k
                for m in enumerate_reachable(base.net, tuple(start)):
                    assert all(m[p] == 0 for p in removed)

    def test_verdict_and_distance_preserved(self):
        rng = random.Random(626262)
        checked = 0
        for _ in range(40):
            inst = desugar_init(random_bounded_instance(rng, rational_weights=rng.random() < 0.5))
            result = prune_instance(inst)
            if result.verdict is PruneVerdict.IMMEDIATELY_UNREACHABLE:
                unpruned = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
                assert not unpruned.reachable
                continue
            pruned_inst = result.pruned_instance
            res_pruned = directed_search(pruned_inst, Strategy.ASTAR, make_heuristic("q", pruned_inst))
            res_plain = directed_search(inst, Strategy.ASTAR, make_heuristic("q", inst))
            assert res_pruned.verdict == res_plain.verdict
            if res_plain.reachable:
                assert res_pruned.distance == res_plain.distance
                checked += 1
        assert checked >= 5

    def test_witness_remaps_onto_original(self):
        rng = random.Random(737373)
        replayed = 0
        for _ in range(150):
            inst = desugar_init(random_bounded_instance(rng))
            result = prune_instance(inst)
            if result.verdict is not PruneVerdict.PRUNED:
                continue
            pruned_inst = result.pruned_instance
            res = directed_search(pruned_inst, Strategy.ASTAR, make_heuristic("q", pruned_inst))
            if not res.reachable:
                continue
            # The pruned net keeps transition names, so a witness maps back by name.
            index = {t.name: i for i, t in enumerate(inst.net.transitions)}
            original_seq = [index[pruned_inst.net.transitions[t].name] for t in res.witness.sequence]
            final, witness = inst.net.replay(inst.init, original_seq)
            assert inst.target.satisfied(final)
            assert witness.total_weight == res.distance
            replayed += 1
        assert replayed >= 10
