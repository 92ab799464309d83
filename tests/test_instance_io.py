import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffreach import (
    FnetParseError,
    Instance,
    NetDefinitionError,
    PetriNet,
    Relation,
    TargetSpec,
    Transition,
    desugar_init,
    generator_names,
    parse_instance,
    prune_instance,
    serialize_instance,
)
from ffreach.instance_io import DuplicateIdError, NonPositiveWeightError, UnknownPlaceError
from oracles import random_bounded_instance


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

    @pytest.mark.parametrize(
        "line",
        ["init: a=NUM", "target: a>=NUM", "  consume a:NUM", "  produce a:NUM", "transition u weight NUM/2",
         "transition u weight 1/NUM"],
        ids=["init", "target", "consume", "produce", "weight-numerator", "weight-denominator"],
    )
    def test_numeral_too_long_to_convert(self, line):
        # One digit past the interpreter's int-string limit (4,300 by default).
        text = "net n\nplaces: a\ntransition t\n" + line.replace("NUM", "1" * 4301) + "\n"
        if line.startswith("init:"):
            text = text.replace("transition t\n", "")
        with pytest.raises(FnetParseError) as exc:
            parse_instance(text)
        assert type(exc.value) is FnetParseError
        assert exc.value.line == (3 if line.startswith("init:") else 4)
        assert str(exc.value) == f"line {exc.value.line}: number has too many digits"


class TestTargetSpec:
    def test_satisfaction_mixed(self):
        spec = TargetSpec(((Relation.EQ, 1), (Relation.GEQ, 2)))
        assert spec.satisfied((1, 2))
        assert spec.satisfied((1, 5))
        assert not spec.satisfied((2, 5))
        assert not spec.satisfied((1, 1))

    def test_exact_and_cover_builders(self):
        assert TargetSpec.exact((1, 0)).constraints == ((Relation.EQ, 1), (Relation.EQ, 0))
        assert TargetSpec.cover((1, 0)).constraints == ((Relation.GEQ, 1), (Relation.GEQ, 0))

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

    @pytest.mark.parametrize("build", [TargetSpec.exact, TargetSpec.cover])
    @pytest.mark.parametrize("m", [(), (0,), (0, 1, 5), [0, 1, 0]])
    def test_marking_of_the_wrong_length(self, build, m):
        # A marking that is longer or shorter than the target is no answer,
        # whether its first places match or not.
        with pytest.raises(NetDefinitionError, match="places"):
            build((0, 1)).satisfied(m)

    def test_zero_places(self):
        for spec in (TargetSpec(()), TargetSpec.exact(()), TargetSpec.cover(())):
            assert spec.satisfied(())
            assert spec.satisfied([])

    def test_record_contract(self):
        spec = TargetSpec(((Relation.EQ, 0), (Relation.GEQ, 1)))
        listed = TargetSpec([[Relation.EQ, 0], (Relation.GEQ, 1)])
        assert listed.constraints == spec.constraints and type(listed.constraints[0]) is tuple
        assert listed == spec and hash(listed) == hash(spec) == hash((spec.constraints,))
        assert spec != TargetSpec.cover((0, 1)) and spec != spec.constraints
        assert repr(spec) == "TargetSpec(constraints=((<Relation.EQ: '='>, 0), (<Relation.GEQ: '>='>, 1)))"
        for name in ("constraints", "_goal", "_equal", "_at_least", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, None)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and twin is not spec
            assert twin.satisfied((0, 3)) and not twin.satisfied((1, 3))

    def test_bool_bounds_round_trip(self):
        # A bool bound is kept as the int it stands for, so the serialized
        # instance writes a number and parses back to the same target.
        net = PetriNet(["a", "b"], [Transition("t", (1, 0), (0, 1))])
        for spec in (TargetSpec(((Relation.EQ, True), (Relation.GEQ, False))), TargetSpec.exact((True, 0))):
            assert all(type(bound) is int for _, bound in spec.constraints), spec
            text = serialize_instance(Instance(net, (1, 0), frozenset(), spec).validate())
            assert parse_instance(text).target.constraints == spec.constraints

    def test_a_one_shot_iterable_is_read_once(self):
        spec = TargetSpec(iter([(Relation.EQ, 1), (Relation.GEQ, 2)]))
        assert spec.constraints == ((Relation.EQ, 1), (Relation.GEQ, 2))

    def test_replace_keeps_the_checks(self):
        spec = TargetSpec.exact((1,))
        with pytest.raises(NetDefinitionError):
            spec._replace(constraints=[[Relation.EQ, 0.5]])
        replaced = spec._replace(constraints=[[Relation.GEQ, 2]])
        assert replaced == TargetSpec.cover((2,)) and hash(replaced) == hash(TargetSpec.cover((2,)))


class TestTrustedTargetSpec:
    """The parser and the pruner build their specs without the checks of
    ``__new__``; each must be the spec the checks would have built."""

    @staticmethod
    def specs():
        rng = random.Random(2020)
        shrunk = 0
        for k in range(150):
            inst = random_bounded_instance(rng, rational_weights=k % 2 == 0, upward=k % 3 == 0)
            parsed = parse_instance(serialize_instance(inst))
            pruned = prune_instance(desugar_init(parsed)).pruned_instance
            shrunk += len(pruned.target.constraints) < len(parsed.target.constraints)
            yield rng, parsed.target
            yield rng, pruned.target
        assert shrunk >= 20, f"only {shrunk} pruned specs dropped a place; the sweep tests little"

    def test_equal_to_the_checked_spec(self):
        outcomes = set()
        for rng, spec in self.specs():
            checked = TargetSpec(spec.constraints)
            assert type(spec) is TargetSpec and type(spec.constraints) is tuple
            assert all(type(entry) is tuple and type(entry[1]) is int for entry in spec.constraints)
            assert spec == checked and hash(spec) == hash(checked) and repr(spec) == repr(checked)
            test, reference = spec.goal_test(), checked.goal_test()
            for _ in range(10):
                m = tuple(max(0, bound + rng.randint(-1, 1)) for _, bound in spec.constraints)
                assert test(m) is reference(m)
                outcomes.add(test(m))
        assert outcomes == {True, False}

    def test_replace_and_make_keep_the_checks(self):
        for _, spec in self.specs():
            n = len(spec.constraints)
            with pytest.raises(NetDefinitionError):
                spec._replace(constraints=[(Relation.EQ, -1)] * (n or 1))
            with pytest.raises(NetDefinitionError):
                spec._make([[("=", 1)] * (n or 1)])
            assert spec._replace(constraints=list(spec.constraints)) == spec


class TestMalformedParts:
    """Parts of the wrong shape or type are a NetDefinitionError, like a bad
    value, not whatever error Python raises on reading them."""

    @pytest.mark.parametrize(
        "constraints",
        [[5], [(Relation.EQ, 1, 2)], [(Relation.EQ,)], [(Relation.GEQ, 0), None], 5, [("=", 1)]],
        ids=["not-a-pair", "triple", "single", "none-entry", "not-a-sequence", "string-relation"],
    )
    def test_target_constraints_must_be_pairs(self, constraints):
        with pytest.raises(NetDefinitionError):
            TargetSpec(constraints)

    @pytest.mark.parametrize("flags", [{0.0}, {"0"}, {1.5}, None], ids=["float", "str", "fraction", "none"])
    def test_upward_flags_must_be_indices(self, flags):
        net = PetriNet(["a"], [])
        with pytest.raises(NetDefinitionError):
            Instance(net, (1,), flags, TargetSpec.cover((0,))).validate()

    def test_upward_flags_are_kept_as_ints(self):
        net = PetriNet(["a", "b"], [])
        inst = Instance(net, (1, 1), [True, 1], TargetSpec.cover((0, 0))).validate()
        assert inst.init_upward == frozenset({1}) and type(next(iter(inst.init_upward))) is int


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

    def test_generator_weight_equals_min_weight(self):
        # Rational weights with ties: 1/2 and 2/4 are the same least weight.
        rng = random.Random(20)
        ties = 0
        for _ in range(100):
            names = ["a", "b", "c"]
            weights = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
            transitions = [Transition(f"t{k}", (1, 0, 0), (0, 1, 0), w) for k, w in enumerate(weights)]
            net = PetriNet(names, transitions)
            least = min(t.weight for t in net.transitions)  # compares Fractions
            ties += [t.weight for t in net.transitions].count(least) > 1
            assert net.min_weight() is least
            inst = Instance(net, (1, 2, 0), {0, 1}, TargetSpec.cover((0, 0, 1))).validate()
            out = desugar_init(inst)
            for gen in out.net.transitions[len(weights):]:
                assert gen.weight == least and type(gen.weight) is Fraction
            produce = [t.produce for t in out.net.transitions[len(weights):]]
            assert produce == [(1, 0, 0), (0, 1, 0)]
            assert [t.guard for t in out.net.transitions[len(weights):]] == [(0, 0, 0)] * 2
        assert ties >= 10, ties

    def test_generator_weight_without_transitions_is_one(self):
        inst = Instance(PetriNet(["p", "q"], []), (0, 3), {1}, TargetSpec.cover((0, 4))).validate()
        (gen,) = desugar_init(inst).net.transitions
        assert (gen.weight, type(gen.weight)) == (Fraction(1), Fraction)
        assert (inst.net.min_weight(), type(inst.net.min_weight())) == (Fraction(1), Fraction)
        assert (gen.guard, gen.produce) == ((0, 0), (0, 1))

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
        inst = Instance(net, (0,), frozenset(), TargetSpec.cover((0,))).validate()
        text = serialize_instance(inst)
        assert "weight 3/2" in text
        assert parse_instance(text) == inst

    def test_upward_flag_round_trip(self):
        inst = parse_instance("net n\nplaces: a\ninit: a>=2\n")
        text = serialize_instance(inst)
        assert "a>=2" in text
        assert parse_instance(text) == inst

    @pytest.mark.parametrize(
        "name, serializable",
        [("x\ny", False), ("", False), ("a#b", False), ("  two  words ", False), ("two words", True)],
    )
    def test_net_name_must_parse_back_unchanged(self, name, serializable):
        inst = Instance(PetriNet(["a"], name=name), (0,), frozenset(), TargetSpec.cover((0,))).validate()
        if serializable:
            assert parse_instance(serialize_instance(inst)) == inst
        else:
            with pytest.raises(NetDefinitionError, match="net name"):
                serialize_instance(inst)

    @pytest.mark.parametrize(
        "places, transition, what",
        [
            # "transition t\n" would parse back as a transition named t.
            (("a",), "t\n", "transition id"),
            # "places: a\n b" would make a line of its own of " b".
            (("a\n", "b"), "t", "place id"),
            # A net may name a transition after a place; the text may not.
            (("a", "b"), "a", "transition id"),
        ],
    )
    def test_ids_that_would_not_parse_back_are_refused(self, places, transition, what):
        zeros = (0,) * len(places)
        net = PetriNet(places, [Transition(transition, zeros, zeros)])
        inst = Instance(net, zeros, frozenset(), TargetSpec.cover(zeros)).validate()
        with pytest.raises(NetDefinitionError, match=what):
            serialize_instance(inst)


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


# Letters, then half the time one character the .fnet text gives a meaning
# to; transition ids may repeat place ids.
_ANY_IDS = st.tuples(
    st.text(alphabet="ab", min_size=1, max_size=2), st.just("") | st.sampled_from(" \t\n=:>#")
).map("".join)


@st.composite
def instances_with_any_ids(draw):
    places = draw(st.lists(_ANY_IDS, min_size=1, max_size=3, unique=True))
    names = draw(st.lists(_ANY_IDS | st.sampled_from(places), max_size=3, unique=True))
    counts = st.tuples(*[st.integers(0, 2)] * len(places))
    transitions = [Transition(name, draw(counts), draw(counts)) for name in names]
    target = TargetSpec.exact(draw(counts))
    return Instance(PetriNet(places, transitions), draw(counts), frozenset(), target).validate()


@given(instances_with_any_ids())
@settings(max_examples=300, deadline=None)
def test_serialized_text_parses_back_or_is_refused(inst):
    try:
        text = serialize_instance(inst)
    except NetDefinitionError:
        return
    assert parse_instance(text) == inst


@given(random_instances())
@settings(max_examples=60, deadline=None)
def test_desugar_generators_are_unit_producers(inst):
    out = desugar_init(inst)
    assert out.init_upward == frozenset()
    gens = generator_names(inst, out)
    assert len(gens) == len(inst.init_upward)
    for name in gens:
        (t,) = [t for t in out.net.transitions if t.name == name]
        assert all(g == 0 for g in t.guard)
        assert sorted(t.produce, reverse=True)[:1] == [1]
        assert sum(t.produce) == 1
