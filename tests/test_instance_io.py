import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffreach import (
    DuplicateIdError,
    FnetParseError,
    Instance,
    NetDefinitionError,
    NonPositiveWeightError,
    PetriNet,
    Relation,
    TargetSpec,
    Transition,
    UnknownPlaceError,
    desugar_init,
    generator_names,
    parse_instance,
    serialize_instance,
)


class TestParse:
    def test_running_example(self, fig_fnet_text):
        inst = parse_instance(fig_fnet_text)
        assert inst.net.places == ("p1", "p2")
        assert [t.name for t in inst.net.transitions] == ["t1", "t2", "t3"]
        assert inst.init == (0, 0)
        assert inst.init_upward == frozenset()
        assert inst.target.constraints == ((Relation.EQ, 0), (Relation.EQ, 1))

    def test_upward_init(self):
        inst = parse_instance("net n\nplaces: p1\ninit: p1>=1\n")
        assert inst.init == (1,)
        assert inst.init_upward == frozenset({0})

    def test_duplicate_transition(self):
        text = "net n\nplaces: a\ntransition t\ntransition t\n"
        with pytest.raises(DuplicateIdError):
            parse_instance(text)

    def test_unknown_place(self):
        with pytest.raises(UnknownPlaceError):
            parse_instance("net n\nplaces: a\ninit: b=1\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(FnetParseError) as exc:
            parse_instance("net n\nplaces: a\nwhatever\n")
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeightError):
            parse_instance("net n\nplaces: a\ntransition t weight 0\n")

    def test_rational_weight(self):
        inst = parse_instance("net n\nplaces: a\ntransition t weight 3/2\n  produce a:1\n")
        assert inst.net.transitions[0].weight == Fraction(3, 2)

    def test_weight_normalized_to_lowest_terms(self):
        inst = parse_instance("net n\nplaces: a\ntransition t weight 6/4\n  produce a:1\n")
        assert inst.net.transitions[0].weight == Fraction(3, 2)
        assert "weight 3/2" in serialize_instance(inst)

    def test_target_must_be_last(self):
        text = "net n\nplaces: a\ntarget: a=1\ntransition t\n"
        with pytest.raises(FnetParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 4

    def test_defaults(self):
        inst = parse_instance("net n\nplaces: a b\n")
        assert inst.init == (0, 0)
        assert inst.target.constraints == ((Relation.GEQ, 0), (Relation.GEQ, 0))

    def test_comments_and_crlf(self):
        text = "net n # the name\r\nplaces: a\r\n# full comment line\r\ninit: a=1\r\n"
        inst = parse_instance(text)
        assert inst.init == (1,)

    def test_upward_zero_rejected(self):
        with pytest.raises(FnetParseError):
            parse_instance("net n\nplaces: a\ninit: a>=0\n")

    def test_target_geq(self):
        inst = parse_instance("net n\nplaces: a b\ntarget: a>=2 b=0\n")
        assert inst.target.constraints == ((Relation.GEQ, 2), (Relation.EQ, 0))

    def test_place_listed_twice_in_init(self):
        with pytest.raises(DuplicateIdError):
            parse_instance("net n\nplaces: a\ninit: a=1 a=2\n")

    def test_transition_name_clashing_with_place(self):
        with pytest.raises(DuplicateIdError):
            parse_instance("net n\nplaces: a\ntransition a\n")


    def test_duplicate_transition_after_many(self):
        lines = ["net n", "places: a"] + [f"transition t{k}" for k in range(2000)] + ["transition t1999"]
        with pytest.raises(DuplicateIdError) as exc:
            parse_instance("\n".join(lines) + "\n")
        assert exc.value.line == 2003

    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("net n\nplaces: a\ntransition t\ntransition t\n", DuplicateIdError, 4),
            ("net n\nplaces: a\ninit: b=1\n", UnknownPlaceError, 3),
            ("net n\nplaces: a\nwhatever\n", FnetParseError, 3),
            ("net n\nplaces: a\ntransition t weight 0\n", NonPositiveWeightError, 3),
            ("net n\nplaces: a\ntarget: a=1\ntransition t\n", FnetParseError, 4),
            ("net n\nplaces: a\ninit: a>=0\n", FnetParseError, 3),
            ("net n\nplaces: a\ninit: a=1 a=2\n", DuplicateIdError, 3),
            ("net n\nplaces: a\ntransition a\n", DuplicateIdError, 3),
            ("net n\nplaces: a a\n", DuplicateIdError, 2),
            ("net n\nplaces: a\ntransition t\n  consume a:-1\n", FnetParseError, 4),
            ("net n\nplaces: a\ntransition t\n  produce :1\n", FnetParseError, 4),
            ("net n\nplaces: a\ntransition t weight 1/0\n", FnetParseError, 3),
            ("net n\nplaces: a\ntransition t\n  consume a:1\n  consume a:2\n", DuplicateIdError, 5),
        ],
    )
    def test_invalid_text_raises_on_its_line(self, text, error, line):
        with pytest.raises(FnetParseError) as exc:
            parse_instance(text)
        assert type(exc.value) is error
        assert exc.value.line == line

    def test_token_count_beyond_64_bits(self):
        with pytest.raises(NetDefinitionError):
            parse_instance(f"net n\nplaces: a\ninit: a={2**64}\n")


class TestTargetSpec:
    def test_satisfaction_mixed(self):
        spec = TargetSpec(((Relation.EQ, 1), (Relation.GEQ, 2)))
        assert spec.satisfied((1, 2))
        assert spec.satisfied((1, 5))
        assert not spec.satisfied((2, 5))
        assert not spec.satisfied((1, 1))

    def test_exact_and_cover_builders(self):
        assert TargetSpec.exact((1, 0)).is_exact()
        assert TargetSpec.cover((1, 0)).is_cover()
        assert not TargetSpec.exact((1, 0)).is_cover()

    @pytest.mark.parametrize("kind", ["exact", "cover", "mixed"])
    def test_compiled_test_matches_each_constraint(self, kind):
        def brute_force(spec, m):
            return all(
                value == bound if rel is Relation.EQ else value >= bound
                for value, (rel, bound) in zip(m, spec.constraints, strict=True)
            )

        rng = random.Random(f"target-{kind}")
        outcomes = set()
        for _ in range(300):
            n = rng.randint(0, 6)
            relations = {
                "exact": [Relation.EQ] * n,
                "cover": [Relation.GEQ] * n,
                "mixed": [rng.choice((Relation.EQ, Relation.GEQ)) for _ in range(n)],
            }[kind]
            spec = TargetSpec(tuple((rel, rng.randint(0, 3)) for rel in relations))
            assert spec.is_exact() == all(rel is Relation.EQ for rel in relations)
            for _ in range(10):
                # Values around each bound, so that every comparison can go either way.
                m = tuple(max(0, bound + rng.randint(-1, 1)) for _, bound in spec.constraints)
                expected = brute_force(spec, m)
                assert spec.satisfied(m) is expected
                assert spec.satisfied(list(m)) is expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TargetSpec.exact((0.9, 1)),
            lambda: TargetSpec.cover((1, 0.5)),
            lambda: TargetSpec(((Relation.EQ, 0.5), (Relation.GEQ, 0))),
            lambda: TargetSpec(((Relation.EQ, 1), (Relation.GEQ, Fraction(1)))),
            lambda: TargetSpec(((Relation.GEQ, -1),)),
        ],
        ids=["exact-float", "cover-float", "eq-float", "geq-fraction", "negative"],
    )
    def test_bounds_must_be_naturals(self, build):
        with pytest.raises(NetDefinitionError):
            build()

    def test_zero_places(self):
        for spec in (TargetSpec(()), TargetSpec.exact(()), TargetSpec.cover(())):
            assert spec.satisfied(())
            assert spec.satisfied([])


class TestDesugar:
    def test_adds_generator(self):
        inst = parse_instance("net n\nplaces: p1\ninit: p1>=1\n")
        out = desugar_init(inst)
        assert [t.name for t in out.net.transitions] == ["gen_p1"]
        gen = out.net.transitions[0]
        assert gen.guard == (0,)
        assert gen.produce == (1,)
        assert out.init_upward == frozenset()
        assert generator_names(inst, out) == {"gen_p1"}

    def test_identity_without_flags(self, n1_instance):
        assert desugar_init(n1_instance) is n1_instance

    def test_two_generators(self):
        inst = parse_instance("net n\nplaces: p1 p2\ninit: p1>=1 p2>=2\n")
        out = desugar_init(inst)
        assert [t.name for t in out.net.transitions] == ["gen_p1", "gen_p2"]

    def test_generator_weight_is_net_minimum(self):
        text = (
            "net n\nplaces: p1\ninit: p1>=1\n"
            "transition t weight 1/3\n  consume p1:1\n"
        )
        out = desugar_init(parse_instance(text))
        assert out.net.transitions[-1].weight == Fraction(1, 3)

    def test_generator_name_collision_resolved(self):
        text = "net n\nplaces: p1\ninit: p1>=1\ntransition gen_p1\n  produce p1:1\n"
        out = desugar_init(parse_instance(text))
        names = [t.name for t in out.net.transitions]
        assert len(names) == len(set(names)) == 2


class TestSerialize:
    def test_round_trip_running_example(self, fig_fnet_text):
        inst = parse_instance(fig_fnet_text)
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_rational_weight_round_trip(self):
        places = ["a"]
        net = PetriNet(places, [Transition.from_maps("t", places, produce={"a": 1}, weight=Fraction(3, 2))])
        inst = Instance(net, (0,), frozenset(), TargetSpec.unconstrained(1)).validate()
        text = serialize_instance(inst)
        assert "weight 3/2" in text
        assert parse_instance(text) == inst

    def test_upward_flag_round_trip(self):
        inst = parse_instance("net n\nplaces: a\ninit: a>=2\n")
        text = serialize_instance(inst)
        assert "a>=2" in text
        assert parse_instance(text) == inst


# Random instance generation for the round-trip law.
_IDCHARS = st.text(alphabet="abcdefgxyz_0123456789", min_size=1, max_size=6)


@st.composite
def random_instances(draw):
    num_places = draw(st.integers(1, 4))
    names = draw(
        st.lists(_IDCHARS, min_size=num_places, max_size=num_places, unique=True)
    )
    places = [f"P{i}_{n}" for i, n in enumerate(names)]
    transitions = []
    num_transitions = draw(st.integers(0, 4))
    for t in range(num_transitions):
        guard = tuple(draw(st.integers(0, 3)) for _ in range(num_places))
        produce = tuple(draw(st.integers(0, 3)) for _ in range(num_places))
        weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        transitions.append(Transition(f"T{t}", guard, produce, weight))
    net = PetriNet(places, transitions, name=draw(_IDCHARS))

    init = tuple(draw(st.integers(0, 3)) for _ in range(num_places))
    upward = frozenset(
        p for p in range(num_places) if init[p] >= 1 and draw(st.booleans())
    )
    constraints = tuple(
        (draw(st.sampled_from([Relation.EQ, Relation.GEQ])), draw(st.integers(0, 3)))
        for _ in range(num_places)
    )
    return Instance(net, init, upward, TargetSpec(constraints)).validate()


@given(random_instances())
@settings(max_examples=150, deadline=None)
def test_round_trip_is_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(random_instances())
@settings(max_examples=60, deadline=None)
def test_desugar_generators_are_unit_producers(inst):
    out = desugar_init(inst)
    assert out.init_upward == frozenset()
    gens = generator_names(inst, out)
    assert len(gens) == len(inst.init_upward)
    for name in gens:
        t = out.net.transitions[out.net.transition_index[name]]
        assert all(g == 0 for g in t.guard)
        assert sorted(t.produce, reverse=True)[:1] == [1]
        assert sum(t.produce) == 1
