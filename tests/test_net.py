import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffreach import (
    MAX_TOKENS,
    Instance,
    NetDefinitionError,
    NotFirableError,
    PetriNet,
    Strategy,
    TargetSpec,
    TokenOverflowError,
    Transition,
    desugar_init,
    directed_search,
    make_heuristic,
    parse_instance,
    prune_instance,
    serialize_instance,
)
from oracles import enumerate_reachable, random_bounded_instance

T1, T2, T3 = 0, 1, 2


class TestFirability:
    def test_guarded_transition_enabled(self, n1):
        assert n1.is_firable((1, 0), T2)

    def test_guarded_transition_disabled(self, n1):
        assert not n1.is_firable((0, 1), T2)

    def test_empty_guard_always_enabled(self, n1):
        assert n1.is_firable((0, 0), T1)

    def test_bad_index_raises(self, n1):
        with pytest.raises(IndexError):
            n1.is_firable((0, 0), 3)


class TestFire:
    @pytest.mark.parametrize(
        "marking, t, expected",
        [((0, 0), T1, (1, 0)), ((1, 0), T2, (1, 1)), ((1, 1), T3, (0, 1))],
    )
    def test_single_steps(self, n1, marking, t, expected):
        assert n1.fire(marking, t) == expected

    def test_not_firable_raises(self, n1):
        with pytest.raises(NotFirableError) as exc:
            n1.fire((0, 0), T2)
        assert exc.value.transition == T2

    def test_overflow_raises(self, n1):
        with pytest.raises(TokenOverflowError) as exc:
            n1.fire((MAX_TOKENS, 0), T1)
        assert exc.value.transition == T1

    def test_effect_is_exact(self, n1):
        for t in range(n1.num_transitions):
            m = (3, 3)
            if n1.is_firable(m, t):
                result = n1.fire(m, t)
                assert tuple(r - v for r, v in zip(result, m)) == n1.effect(t)


class TestReplay:
    def test_three_step_path(self, n1):
        final, witness = n1.replay((0, 0), [T1, T2, T3])
        assert final == (0, 1)
        assert witness.total_weight == 3
        assert witness.parikh == (1, 1, 1)

    def test_empty_sequence(self, n1):
        final, witness = n1.replay((0, 0), [])
        assert final == (0, 0)
        assert witness.total_weight == 0

    def test_five_step_path(self, n1):
        final, witness = n1.replay((0, 0), [T1, T1, T2, T3, T3])
        assert final == (0, 1)
        assert witness.total_weight == 5
        assert witness.parikh == (2, 1, 2)

    def test_failure_reports_step(self, n1):
        with pytest.raises(NotFirableError) as exc:
            n1.replay((0, 0), [T1, T3, T3])
        assert exc.value.step == 2

    def test_concatenation_law(self, n1):
        mid, w1 = n1.replay((0, 0), [T1, T1])
        final, w2 = n1.replay(mid, [T2, T3])
        whole_final, whole = n1.replay((0, 0), [T1, T1, T2, T3])
        assert whole_final == final
        assert whole.total_weight == w1.total_weight + w2.total_weight


class TestSuccessors:
    def test_lone_producer(self, n1):
        assert n1.successors((0, 0)) == [(T1, (1, 0))]

    def test_three_way_branching(self, n1):
        assert n1.successors((1, 0)) == [(T1, (2, 0)), (T2, (1, 1)), (T3, (0, 0))]

    def test_matches_exhaustive_guard_check(self, n1):
        expected = [
            (t, n1.fire((0, 1), t))
            for t in range(n1.num_transitions)
            if all(h >= g for h, g in zip((0, 1), n1.transitions[t].guard))
        ]
        assert n1.successors((0, 1)) == expected == [(T1, (1, 1))]


class TestValidation:
    def test_duplicate_place_ids(self):
        with pytest.raises(NetDefinitionError):
            PetriNet(["a", "a"], [])

    def test_duplicate_transition_ids(self):
        t = Transition("t", (0,), (0,))
        with pytest.raises(NetDefinitionError):
            PetriNet(["a"], [t, t])

    def test_vector_length_mismatch(self):
        with pytest.raises(NetDefinitionError):
            PetriNet(["a", "b"], [Transition("t", (0,), (0,))])

    def test_nonpositive_weight(self):
        with pytest.raises(NetDefinitionError):
            Transition.from_maps("t", ["a"], weight=0)

    def test_negative_guard_entry(self):
        with pytest.raises(NetDefinitionError):
            PetriNet(["a"], [Transition("t", (-1,), (0,))])

    def test_weight_default_is_one(self):
        t = Transition.from_maps("t", ["a"], produce={"a": 1})
        assert t.weight == Fraction(1)

    def test_from_maps_rejects_unknown_place(self):
        with pytest.raises(NetDefinitionError):
            Transition.from_maps("t", ["a"], consume={"b": 1})

    def test_from_maps_rejects_fractional_count(self):
        with pytest.raises(NetDefinitionError):
            Transition.from_maps("t", ["a"], consume={"a": 0.5})

    def test_list_vectors_are_stored_as_int_tuples(self):
        net = PetriNet(["a", "b"], [Transition("t", [1, 0], [0, 1]), Transition("u", [0, 1], [1, 0], 2)])
        assert [(t.guard, t.produce) for t in net.transitions] == [((1, 0), (0, 1)), ((0, 1), (1, 0))]
        assert all(type(v) is int for t in net.transitions for v in (*t.guard, *t.produce))
        assert hash(net) == hash(PetriNet(["a", "b"], net.transitions))
        inst = Instance(net, (1, 0), frozenset(), TargetSpec.exact((0, 1))).validate()
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize("marking", [(1.7, 0), (Fraction(1), 0), ("1", 0)], ids=["float", "fraction", "string"])
    def test_marking_components_must_be_ints(self, n1, marking):
        with pytest.raises(NetDefinitionError):
            n1.check_marking(marking)
        with pytest.raises(NetDefinitionError):
            Instance(n1, marking, frozenset(), TargetSpec.exact((0, 1))).validate()

    @pytest.mark.parametrize(
        "places, transitions",
        [
            (["a", ""], []),
            (["a"], [Transition("", (0,), (0,))]),
            (["a"], [Transition("t", (0,), (-1,))]),
            (["a"], [Transition("t", (0,), (0,), Fraction(0))]),
            (["a"], [Transition("t", (0,), (0,), Fraction(-1, 2))]),
            (["a", "b"], [Transition("t", (0.5, 0), (0, 1))]),
            (["a"], [Transition("t", ("1",), (0,))]),
        ],
        ids=[
            "empty-place-id",
            "empty-transition-id",
            "negative-produce",
            "zero-weight",
            "negative-weight",
            "fractional-guard",
            "string-guard",
        ],
    )
    def test_constructor_still_validates(self, places, transitions):
        with pytest.raises(NetDefinitionError):
            PetriNet(places, transitions)


class TestWeightNormalization:
    """``PetriNet(...)`` stores every weight as a ``Fraction``, whatever
    ``Fraction`` accepts was passed in."""

    @pytest.mark.parametrize(
        "weight, exact",
        [(0.5, Fraction(1, 2)), ("1/3", Fraction(1, 3)), (2, Fraction(2))],
        ids=["float", "string", "int"],
    )
    def test_weight_is_stored_as_a_fraction(self, weight, exact):
        net = PetriNet(["a", "b"], [Transition("t", (1, 0), (0, 1), weight), Transition("u", (0, 1), (1, 0))])
        assert [type(t.weight) for t in net.transitions] == [Fraction, Fraction]
        assert net.transitions[0].weight == exact
        assert net.witness([0, 1]).total_weight == exact + 1

        inst = Instance(net, (1, 0), frozenset(), TargetSpec.exact((0, 1))).validate()
        for strategy, name in [
            (Strategy.DIJKSTRA, "zero"),
            (Strategy.ASTAR, "q"),
            (Strategy.ASTAR, "z"),
            (Strategy.ASTAR, "struct"),
            (Strategy.GBFS, "struct"),
        ]:
            result = directed_search(inst, strategy, make_heuristic(name, inst))
            assert type(result.distance) is Fraction and result.distance == exact
            assert result.witness.sequence == (0,)

        text = serialize_instance(inst)
        assert f"weight {exact}" in text
        reparsed = parse_instance(text)
        assert reparsed == inst
        assert serialize_instance(reparsed) == text


def assert_same_tables(net: PetriNet) -> None:
    """``net`` has the tables of a checked rebuild of its parts."""
    rebuilt = PetriNet(net.places, net.transitions, name=net.name)
    assert net == rebuilt
    assert net.place_index == rebuilt.place_index
    assert net.transition_index == rebuilt.transition_index
    assert net._guards == rebuilt._guards
    assert net._deltas == rebuilt._deltas
    assert net._effects == rebuilt._effects
    assert net.scale == rebuilt.scale
    assert net.scaled_weights == rebuilt.scaled_weights


class TestTrustedConstruction:
    """The parser, ``desugar_init`` and ``prune_instance`` build their nets
    through ``PetriNet._trusted``; those nets must equal checked rebuilds."""

    def test_derived_nets_match_validated_rebuilds(self):
        rng = random.Random(880088)
        pruned_some = 0
        for k in range(200):
            inst = random_bounded_instance(rng, rational_weights=k % 2 == 0, upward=k % 3 == 0)
            parsed = parse_instance(serialize_instance(inst))
            desugared = desugar_init(parsed)
            pruned = prune_instance(desugared).pruned_instance
            for net in (parsed.net, desugared.net, pruned.net):
                assert_same_tables(net)
            pruned_some += pruned.net.num_places < desugared.net.num_places
        assert pruned_some >= 20


# A tiny strategy for random sequences over the three-transition net.
@st.composite
def markings_and_sequences(draw):
    m0 = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    seq = draw(st.lists(st.integers(0, 2), max_size=8))
    return m0, seq


@given(markings_and_sequences())
@settings(max_examples=200, deadline=None)
def test_replay_weight_equals_length_on_unit_weights(case):
    net = PetriNet(
        ["p1", "p2"],
        [
            Transition.from_maps("t1", ["p1", "p2"], produce={"p1": 1}),
            Transition.from_maps("t2", ["p1", "p2"], consume={"p1": 1}, produce={"p1": 1, "p2": 1}),
            Transition.from_maps("t3", ["p1", "p2"], consume={"p1": 1}),
        ],
    )
    m0, seq = case
    try:
        _, witness = net.replay(m0, seq)
    except NotFirableError:
        return
    assert witness.total_weight == len(seq)
    assert sum(witness.parikh) == len(seq)
    for t in range(net.num_transitions):
        assert witness.parikh[t] == seq.count(t)


def _dense_successors(net, m):
    """Reference token game straight from the dense guard/produce vectors."""
    out = []
    for t, trans in enumerate(net.transitions):
        if all(have >= need for have, need in zip(m, trans.guard)):
            out.append((t, tuple(v - g + p for v, g, p in zip(m, trans.guard, trans.produce))))
    return out


class TestSparseTokenGame:
    def test_successors_match_dense_reference(self):
        rng = random.Random(2718)
        checked = 0
        for _ in range(40):
            inst = random_bounded_instance(rng, rational_weights=True)
            net = inst.net
            reachable = enumerate_reachable(net, inst.init)
            arbitrary = {tuple(rng.randint(0, 3) for _ in net.places) for _ in range(20)}
            for m in sorted(reachable | arbitrary):
                expected = _dense_successors(net, m)
                assert net.successors(m) == expected
                assert [t for t in range(net.num_transitions) if net.is_firable(m, t)] == [t for t, _ in expected]
                for t, succ in expected:
                    assert net.fire(m, t) == succ
                checked += 1
        assert checked > 500

    def _overflow_net(self) -> PetriNet:
        places = ["a", "b", "c"]
        return PetriNet(
            places,
            [
                Transition.from_maps("drain_a", places, consume={"a": 1}),
                Transition.from_maps("read_b", places, consume={"b": 1}, produce={"b": 1}),
                Transition.from_maps("grow_a_if_c", places, consume={"c": 1}, produce={"a": 1, "c": 1}),
                Transition.from_maps("grow_b", places, produce={"b": 1}),
                Transition.from_maps("grow_a", places, produce={"a": 1}),
            ],
        )

    def test_consuming_from_a_full_place_still_fires(self):
        net = self._overflow_net()
        assert net.fire((MAX_TOKENS, 0, 0), 0) == (MAX_TOKENS - 1, 0, 0)
        # A zero net effect on a full place cannot overflow either.
        assert net.fire((0, MAX_TOKENS, 0), 1) == (0, MAX_TOKENS, 0)
        places = ["a", "b"]
        no_growth = PetriNet(
            places,
            [
                Transition.from_maps("drain_a", places, consume={"a": 1}),
                Transition.from_maps("read_b", places, consume={"b": 1}, produce={"b": 1}),
            ],
        )
        assert no_growth.successors((MAX_TOKENS, MAX_TOKENS)) == [
            (0, (MAX_TOKENS - 1, MAX_TOKENS)),
            (1, (MAX_TOKENS, MAX_TOKENS)),
        ]

    def test_overflow_at_first_enabled_positive_delta(self):
        net = self._overflow_net()
        # grow_a_if_c is disabled (c is empty), so grow_b is the first
        # enabled transition with a positive delta on a full place.
        with pytest.raises(TokenOverflowError) as exc:
            net.successors((MAX_TOKENS, MAX_TOKENS, 0))
        assert exc.value.transition == 3
        with pytest.raises(TokenOverflowError) as exc:
            net.successors((MAX_TOKENS, MAX_TOKENS, 1))
        assert exc.value.transition == 2
        # b has room, so only grow_a overflows.
        with pytest.raises(TokenOverflowError) as exc:
            net.successors((MAX_TOKENS, 0, 0))
        assert exc.value.transition == 4
        assert [t for t, _ in net.successors((MAX_TOKENS - 1, 0, 0))] == [0, 3, 4]
