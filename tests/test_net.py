import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffreach import (
    Instance,
    NetDefinitionError,
    NotFirableError,
    PetriNet,
    Relation,
    Strategy,
    TargetSpec,
    TokenOverflowError,
    Transition,
    Verdict,
    desugar_init,
    directed_search,
    make_heuristic,
    parse_instance,
    prune_instance,
    serialize_instance,
    solve_instance,
)
from ffreach import net as net_module
from ffreach.net import MAX_TOKENS, Witness
from oracles import (
    enumerate_reachable,
    random_bounded_instance,
    reference_dead_end,
    reference_firings,
    reference_guarded_within,
    reference_predecessors,
    reference_realize,
)

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

    def test_negative_index_raises(self, n1):
        # -1 would otherwise name t3, which is enabled at (1, 1).
        with pytest.raises(IndexError):
            n1.fire((1, 1), -1)


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
                trans = n1.transitions[t]
                effect = tuple(p - g for p, g in zip(trans.produce, trans.guard))
                assert tuple(r - v for r, v in zip(result, m)) == effect


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

    def test_negative_index_raises(self, n1):
        with pytest.raises(IndexError):
            n1.replay((0, 0), [T1, T2, -1])

    def test_witness_rejects_a_negative_index(self, n1):
        with pytest.raises(IndexError):
            n1.witness([-1])

    @pytest.mark.parametrize("index", [1.9, "1", Fraction(3, 2)])
    def test_witness_rejects_an_index_that_is_not_an_int(self, n1, index):
        with pytest.raises(TypeError):
            n1.witness([index])

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

    def test_from_maps_reads_one_shot_places_once(self):
        t = Transition.from_maps("t", (p for p in "ab"), {"a": 1}, {"b": 1})
        assert (t.guard, t.produce) == ((1, 0), (0, 1))

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

    @pytest.mark.parametrize(
        "weight", ["x", float("nan"), float("inf"), None], ids=["string", "nan", "inf", "none"]
    )
    def test_weight_that_is_no_rational(self, weight):
        # Fraction itself raises ValueError, OverflowError or TypeError here.
        with pytest.raises(NetDefinitionError):
            PetriNet(["a"], [Transition("t", (0,), (0,), weight)])

    def test_validated_instance_and_target_are_hashable(self, n1):
        target = TargetSpec([(Relation.EQ, 0), (Relation.GEQ, 1)])
        assert target.constraints == ((Relation.EQ, 0), (Relation.GEQ, 1))
        assert hash(target) == hash(TargetSpec(((Relation.EQ, 0), (Relation.GEQ, 1))))
        assert hash(TargetSpec(([Relation.EQ, 0], (Relation.GEQ, 1)))) == hash(target)
        given = Instance(n1, [1, 0], {0}, TargetSpec.exact((0, 1)))
        inst = given.validate()
        assert (inst.init, inst.init_upward) == ((1, 0), frozenset({0}))
        assert type(inst.init) is tuple and type(inst.init_upward) is frozenset
        assert hash(inst) == hash(Instance(n1, (1, 0), frozenset({0}), TargetSpec.exact((0, 1))))
        # The receiver keeps what it was given.
        assert given.init == [1, 0] and given.init_upward == {0} and type(given.init_upward) is set

    def test_records_compare_and_hash_as_their_field_tuples(self, n1):
        fields = {
            Transition: ("name", "guard", "produce", "weight"),
            Witness: ("sequence", "total_weight", "parikh"),
            Instance: ("net", "init", "init_upward", "target"),
        }
        target = TargetSpec.exact((0, 1))
        records = [
            Transition("t", (1, 0), (0, 1)),
            Transition("t", (1, 0), (0, 1), Fraction(1)),
            Transition("t", (1, 0), (0, 1), Fraction(2)),
            Witness((0, 1), Fraction(2), (1, 1)),
            Witness((0, 1), Fraction(2), (1, 1)),
            Witness((1, 0), Fraction(2), (1, 1)),
            Instance(n1, (1, 0), frozenset(), target),
            Instance(n1, (1, 0), frozenset(), TargetSpec.exact((0, 1))),
            Instance(n1, (0, 0), frozenset(), target),
        ]
        equal_pairs = 0
        for a in records:
            as_tuple = tuple(getattr(a, name) for name in fields[type(a)])
            assert hash(a) == hash(as_tuple)
            for b in records:
                if type(b) is type(a):
                    same = as_tuple == tuple(getattr(b, name) for name in fields[type(b)])
                    assert (a == b) is same
                    equal_pairs += same and a is not b
            for name in fields[type(a)]:
                with pytest.raises(AttributeError):
                    setattr(a, name, None)
        assert equal_pairs == 6


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


def assert_reference_tables(net: PetriNet) -> None:
    """``net`` equals a checked rebuild of its parts, and its tables are the
    reference tables of its transitions."""
    assert net == PetriNet(net.places, net.transitions, name=net.name)
    assert (net._firings, net.scale, net.scaled_weights) == reference_firings(net.transitions)


def derived_nets(text: str) -> tuple[PetriNet, PetriNet, PetriNet]:
    """The parsed, desugared and pruned nets of an instance text."""
    parsed = parse_instance(text)
    desugared = desugar_init(parsed)
    return parsed.net, desugared.net, prune_instance(desugared).pruned_instance.net


class TestTrustedConstruction:
    """The parser and ``prune_instance`` build their nets through
    ``PetriNet._trusted``, and ``desugar_init`` extends the parsed net's
    firing records.  All must equal checked rebuilds and hold the reference
    tables."""

    def test_derived_nets_match_validated_rebuilds(self):
        rng = random.Random(880088)
        pruned_some = 0
        for k in range(200):
            inst = random_bounded_instance(rng, rational_weights=k % 2 == 0, upward=k % 3 == 0)
            nets = derived_nets(serialize_instance(inst))
            for net in nets:
                assert_reference_tables(net)
            pruned_some += nets[2].num_places < nets[1].num_places
        assert pruned_some >= 20

    @pytest.mark.parametrize(
        "text, places, transitions",
        [
            # No place is markable; only the transition that reads and writes nothing is kept.
            ("net z\nplaces: a b\ntransition t weight 1/2\n  consume a:1\n  produce b:1\n"
             "transition idle weight 2/3\n", (), ("idle",)),
            # One place, the last one, kept: its effects and raises move to place 0.
            ("net one\nplaces: x y z\ninit: z=2\ntransition t0\n  consume x:1\n  produce y:1\n"
             "transition t1 weight 3/2\n  consume z:1\ntransition t2\n  consume z:2\n  produce z:3 y:0\n",
             ("z",), ("t1", "t2")),
            # All places but one: the place after the removed one moves down, and t4,
            # whose guard's first place is markable but whose second is not, goes.
            ("net most\nplaces: a b c d\ninit: a=1\ntransition t0\n  consume a:1\n  produce b:1 d:2\n"
             "transition t1\n  consume c:1\n  produce a:1\ntransition t2 weight 1/3\n  consume b:1 d:1\n"
             "  produce a:1 d:2\ntransition t3\n  produce d:1\ntransition t4\n  consume a:1 c:1\n  produce b:1\n",
             ("a", "b", "d"), ("t0", "t2", "t3")),
            # Upward flags: the generators are kept, the unmarkable place is not.
            ("net spawn\nplaces: idle ready done\ninit: ready>=1\ntransition work weight 5/3\n"
             "  consume ready:2\n  produce done:1\ntransition stuck\n  consume idle:1\n  produce done:4\n",
             ("ready", "done"), ("work", "gen_ready")),
        ],
        ids=["no-place", "one-place", "all-but-one", "upward"],
    )
    def test_prunes_keep_reference_tables(self, text, places, transitions):
        nets = derived_nets(text)
        for net in nets:
            assert_reference_tables(net)
        assert nets[2].places == places
        assert tuple(t.name for t in nets[2].transitions) == transitions

    @pytest.mark.parametrize(
        "init, generators, kept",
        [("a=1", (), ("a",)), ("a>=1", ("gen_a",), ("a",)), ("a>=1 b>=2", ("gen_a", "gen_b"), ("a", "b"))],
        ids=["unflagged", "one-flag", "two-flags"],
    )
    def test_net_without_transitions(self, init, generators, kept):
        nets = derived_nets(f"net bare\nplaces: a b c\ninit: {init}\ntarget: a>=1\n")
        for net in nets:
            assert_reference_tables(net)
        assert nets[0].transitions == ()
        assert tuple(t.name for t in nets[1].transitions) == generators
        assert nets[2].places == kept
        assert tuple(t.name for t in nets[2].transitions) == generators

    def test_pruning_the_only_third_changes_the_scale(self):
        parsed, _, pruned = derived_nets(
            "net thirds\nplaces: a b\ninit: a=1\ntransition half weight 1/2\n  consume a:1\n  produce a:1\n"
            "transition third weight 2/3\n  consume b:1\n  produce a:1\n"
        )
        assert (parsed.scale, parsed.scaled_weights) == (6, (3, 4))
        assert (pruned.scale, pruned.scaled_weights) == (2, (1,))
        assert_reference_tables(pruned)


class TestDenseReads:
    """A solve reads dense vectors into firing records once per net it
    builds: the parsed net's, only the generators' of the net
    ``desugar_init`` extends, and the projected ones of the net
    ``prune_instance`` keeps."""

    @pytest.mark.parametrize(
        "text, reads",
        [
            ("net spawn\nplaces: idle ready done\ninit: ready>=1\ntransition work\n  consume ready:2\n"
             "  produce done:1\ntransition stuck\n  consume idle:1\n  produce done:1\ntarget: done>=1\n",
             [("work", "stuck"), ("gen_ready",), ("work", "gen_ready")]),
            (None, None),
        ],
        ids=["upward-and-projected", "neither"],
    )
    def test_each_net_read_once(self, text, reads, fig_fnet_text, monkeypatch):
        read = []
        firings = net_module._firings

        def counted(transitions, first):
            read.append(tuple(t.name for t in transitions))
            return firings(transitions, first)

        monkeypatch.setattr(net_module, "_firings", counted)
        inst = parse_instance(text or fig_fnet_text)
        result, _, _ = solve_instance(inst)
        assert result.verdict is Verdict.REACHABLE
        # The fixture has no upward flag and every place markable: desugar and prune keep its net.
        assert read == (reads or [tuple(t.name for t in inst.net.transitions)])


class TestNetQueries:
    """``dead_end``, ``guarded_within``, ``predecessors`` and ``realize``,
    which other modules ask instead of reading the net's records and masks,
    answer what the dense-vector oracles answer."""

    def test_dead_end_and_guarded_within_match_the_oracles(self):
        # Desugared upward draws have generators, which raise a place with
        # an empty guard; the others have = targets, whose places can be
        # above their bound.
        rng = random.Random(3535)
        dead_ends = {True: 0, False: 0}
        partial = 0
        for i in range(300):
            inst = desugar_init(random_bounded_instance(rng, max_places=5, max_transitions=6, upward=i % 2 == 0))
            net, bounds = inst.net, inst.target.bounds()
            for _ in range(6):
                m = tuple(rng.randint(0, 3) for _ in net.places)
                answer = net.dead_end(m, bounds)
                assert answer == reference_dead_end(net, m, bounds), (i, m)
                dead_ends[answer] += 1
            places = {p for p in range(net.num_places) if rng.random() < 0.6}
            kept = net.guarded_within(places)
            assert kept == reference_guarded_within(net, places), (i, places)
            partial += 0 < len(kept) < net.num_transitions
        assert min(dead_ends.values()) >= 100 and partial >= 50, (dead_ends, partial)

    def test_predecessors_match_the_oracle(self):
        # Zeros in the markings leave some transitions without a
        # predecessor; the generators of desugared upward draws need none.
        rng = random.Random(5353)
        kept = skipped = 0
        for i in range(300):
            net = desugar_init(random_bounded_instance(rng, max_places=5, max_transitions=6, upward=i % 2 == 0)).net
            for _ in range(6):
                m = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in net.places)
                found = list(net.predecessors(m))
                assert found == reference_predecessors(net, m), (i, m)
                kept += len(found)
                skipped += net.num_transitions - len(found)
        assert min(kept, skipped) >= 1000, (kept, skipped)

    def test_realize_matches_the_oracle(self):
        # Random counts at random markings end all three ways: fired, stuck
        # with a count left, or past MAX_TOKENS, which markings next to it
        # reach through a transition that moves tokens or a generator of a
        # desugared upward draw.
        # With a ``failed`` set shared by a net's runs, the answers stay the
        # same, and every state kept there fails under the oracle too.
        rng = random.Random(4242)
        outcomes = Counter()
        for i in range(300):
            net = desugar_init(random_bounded_instance(rng, max_places=5, max_transitions=6, upward=i % 2 == 0)).net
            failed = set()
            for _ in range(6):
                m = tuple(rng.choice((0, 1, 2, 3, MAX_TOKENS - 1)) for _ in net.places)
                counts = [rng.randint(0, 2) for _ in net.transitions]
                sequence = net.realize(m, counts)
                assert sequence == reference_realize(net, m, counts), (i, m, counts)
                assert net.realize(m, counts, failed=failed) == sequence
                if sequence is not None:
                    assert sorted(sequence) == sorted(t for t, count in enumerate(counts) for _ in range(count))
                    outcomes["fired"] += 1
                elif reference_realize(net, m, counts, cap=math.inf) is None:
                    outcomes["stuck"] += 1
                else:
                    outcomes["overflow"] += 1
            for marking, left in failed:
                assert reference_realize(net, marking, left) is None, (i, marking, left)
            outcomes["kept"] += len(failed)
        assert outcomes["kept"] >= 1000, outcomes
        assert min(outcomes[kind] for kind in ("fired", "stuck", "overflow")) >= 50, outcomes

    def test_realize_stops_at_its_deadline(self):
        net = PetriNet(["p"], [Transition("t", (0,), (1,))])
        assert net.realize((0,), [3]) == [0, 0, 0]
        assert net.realize((0,), [3], deadline=time.monotonic() - 1) is None
        assert net.realize((0,), [0], deadline=time.monotonic() - 1) == []


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


def _dense_fire(net, m, t):
    """Reference firing straight from the dense guard/produce vectors, with
    token counts limited to 64 bits."""
    trans = net.transitions[t]
    if any(have < need for have, need in zip(m, trans.guard)):
        raise NotFirableError("reference: not firable", t)
    succ = tuple(v - g + p for v, g, p in zip(m, trans.guard, trans.produce))
    if max(succ, default=0) > MAX_TOKENS:
        raise TokenOverflowError("reference: overflow", t)
    return succ


def _dense_successors(net, m):
    """Reference token game: every enabled transition with its successor, in
    index order; raises at the first one whose result passes MAX_TOKENS."""
    return [
        (t, _dense_fire(net, m, t))
        for t, trans in enumerate(net.transitions)
        if all(have >= need for have, need in zip(m, trans.guard))
    ]


def _outcome(call):
    """What ``call()`` returns, or the kind and transition of its error."""
    try:
        return call()
    except (NotFirableError, TokenOverflowError) as exc:
        return type(exc), exc.transition


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

    def test_overflow_matches_dense_reference(self):
        """Markings with counts near the 64-bit limit, on random nets that
        include guards of several entries and a zero-effect self-loop:
        ``successors`` and ``fire`` return what the reference returns, or
        raise for the same transition, and ``is_firable`` agrees."""
        rng = random.Random(6464)
        counts = (0, 1, 2, MAX_TOKENS - 2, MAX_TOKENS - 1, MAX_TOKENS)
        overflows = long_guards = full_loops = 0
        for _ in range(80):
            n = rng.randint(1, 4)
            places = [f"p{i}" for i in range(n)]
            transitions = []
            for k in range(rng.randint(1, 6)):
                guard, produce = [0] * n, [0] * n
                for _ in range(rng.randint(0, 3)):
                    guard[rng.randrange(n)] += 1
                for _ in range(rng.randint(0, 3)):
                    produce[rng.randrange(n)] += 1
                transitions.append(Transition(f"t{k}", tuple(guard), tuple(produce)))
            loop_place = rng.randrange(n)
            loop = tuple(int(p == loop_place) for p in range(n))
            transitions.insert(rng.randint(0, len(transitions)), Transition("loop", loop, loop))
            net = PetriNet(places, transitions)
            for _ in range(30):
                m = tuple(rng.choice(counts) for _ in places)
                expected = _outcome(lambda: _dense_successors(net, m))
                assert _outcome(lambda: net.successors(m)) == expected
                for t, trans in enumerate(net.transitions):
                    assert _outcome(lambda: net.fire(m, t)) == _outcome(lambda: _dense_fire(net, m, t))
                    enabled = net.is_firable(m, t)
                    assert enabled == all(have >= need for have, need in zip(m, trans.guard))
                    long_guards += enabled and sum(map(bool, trans.guard)) >= 2
                    full_loops += enabled and trans.name == "loop" and m[loop_place] == MAX_TOKENS
                overflows += not isinstance(expected, list)  # (TokenOverflowError, t)
        assert overflows >= 100 and long_guards >= 100 and full_loops >= 50

    def test_net_without_places(self):
        # Pruning can remove every place; its one marking () enables every transition.
        net = PetriNet([], [Transition("t", (), ()), Transition("u", (), (), 2)])
        assert net.successors(()) == [(0, ()), (1, ())]
        assert net.is_firable((), 1) and net.fire((), 1) == ()
        assert net.replay((), [1, 0, 1])[1].total_weight == 5

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
