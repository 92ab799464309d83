import enum
import gc
import json
import logging
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffreach import (
    Instance,
    NetDefinitionError,
    PetriNet,
    SearchLimits,
    Strategy,
    TargetSpec,
    Transition,
    Verdict,
    desugar_init,
    directed_search,
    generator_names,
    make_heuristic,
    parse_instance,
    prune_instance,
    random_walk,
)
from ffreach.heuristics import HEURISTIC_NAMES
from ffreach.cli import SplitMix64
from ffreach import cli
from ffreach.cli import main
from conftest import FIG_FNET

UPWARD_FNET = """\
net spawn
places: ready done
init: ready>=1
transition work
  consume ready:2
  produce done:1
target: done>=1
"""

RUNAWAY_FNET = """\
net random
places: p0 p1 p2 p3
init: p0=1 p1=1 p2=1 p3=3
transition t0
  consume p1:1 p3:1
  produce p0:1 p2:1
transition t1
  consume p0:2
  produce p2:1 p3:1
transition t2
  consume p2:2
  produce p0:1 p1:1
transition t3
  consume p0:1 p3:1
  produce p1:1 p2:1
transition t4
  consume p3:1
target: p1=2 p2>=1 p3>=2
"""

#: ``RUNAWAY_FNET`` from the marking ``(1, 1, 1, 2)``, whose own ``z``
#: branch-and-bound dives (``tests/test_warm_start.py::RUNAWAY``): every
#: search evaluates the initial marking first, so each meets the dive.
RUNAWAY_ROOT_FNET = RUNAWAY_FNET.replace("p3=3", "p3=2")

#: ``t`` adds a token to ``a`` on every firing, so every marking is new and
#: no search over it ends by itself, though no marking holds 2**64 tokens.
BIG_FNET = """\
net big
places: a b
init: a=1
transition t
  consume a:1
  produce a:2
target: a{relation}18446744073709551616
"""

#: The state equation's optimum at the root fires ``t`` three million
#: times, which takes seconds.
COUNTER_FNET = """\
net counter
places: p
init: p=0
transition t
  produce p:1
target: p>=3000000
"""


@pytest.fixture
def fig1_path(tmp_path, fig_fnet_text):
    path = tmp_path / "fig1.fnet"
    path.write_text(fig_fnet_text)
    return str(path)


@pytest.fixture
def upward_path(tmp_path):
    path = tmp_path / "spawn.fnet"
    path.write_text(UPWARD_FNET)
    return str(path)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_reachable_text_report(self, fig1_path, capsys):
        code, out, _ = run_main(["solve", fig1_path, "--strategy", "astar", "--heuristic", "q"], capsys)
        assert code == 0
        assert "verdict: reachable" in out
        assert "distance: 3" in out
        assert "witness: t1 t2 t3" in out

    def test_json_report_shape(self, fig1_path, capsys):
        code, out, _ = run_main(["solve", fig1_path, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "reachable"
        assert payload["distance"] == {"fraction": "3", "decimal": 3.0}
        assert payload["witness"] == ["t1", "t2", "t3"]
        assert payload["generator_firings"] == 0
        assert payload["stats"]["expanded"] == 2  # the lookahead fires t2 t3 from the second
        assert payload["config"]["strategy"] == "astar"
        assert "wall" not in json.dumps(payload)

    def test_unreachable_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dead.fnet"
        path.write_text("net dead\nplaces: a b\ninit: a=1\ntransition t\n  consume a:1\n  produce a:1\ntarget: b>=1\n")
        code, out, _ = run_main(["solve", str(path)], capsys)
        assert code == 1
        assert "verdict: unreachable" in out

    @pytest.mark.parametrize(
        "target, logged",
        [("b>=1", "prune: verdict immediately-unreachable"), ("a=1", "prune: 1/2 places, 1/1 transitions kept")],
        ids=["settled", "pruned"],
    )
    def test_prune_debug_line(self, tmp_path, capsys, caplog, target, logged):
        path = tmp_path / "dead.fnet"
        path.write_text("net dead\nplaces: a b\ninit: a=1\ntransition t\n  consume a:1\n  produce a:1\ntarget: " + target)
        with caplog.at_level(logging.DEBUG, logger="ffreach"):
            run_main(["solve", str(path)], capsys)
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("prune:")] == [logged]

    @pytest.mark.parametrize("flagged", [True, False], ids=["upward", "exact"])
    def test_generator_names_read_only_after_desugaring(self, monkeypatch, flagged):
        calls = []
        monkeypatch.setattr(cli, "generator_names", lambda *args: calls.append(args) or generator_names(*args))
        inst = parse_instance(UPWARD_FNET if flagged else UPWARD_FNET.replace("ready>=1", "ready=2"))
        result, witness, firings = cli.solve_instance(inst)
        assert len(calls) == flagged
        assert (witness, firings) == ((["gen_ready", "work"], 1) if flagged else (["work"], 0))

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("target", [TargetSpec.exact((0, 1, 0, 5)), TargetSpec.exact((0, 1))])
    def test_target_of_the_wrong_length_is_refused(self, prune, target):
        net = PetriNet(["a", "b", "c"], [Transition("t", (1, 0, 0), (0, 1, 0))])
        # Not validated: Instance.validate would refuse it first.
        inst = Instance(net, (1, 0, 0), frozenset(), target)
        with pytest.raises(NetDefinitionError, match="target spec length differs from place count"):
            cli.solve_instance(inst, prune=prune)

    def test_unreachable_without_prune(self, tmp_path, capsys):
        path = tmp_path / "dead.fnet"
        path.write_text("net dead\nplaces: a b\ninit: a=1\ntransition t\n  consume a:1\n  produce a:1\ntarget: b>=1\n")
        code, out, _ = run_main(["solve", str(path), "--no-prune", "--heuristic", "zero"], capsys)
        assert code == 1

    def test_exhausted_exit_code(self, fig1_path, capsys):
        code, out, _ = run_main(["solve", fig1_path, "--max-expansions", "1"], capsys)
        assert code == 2
        payload_line = [l for l in out.splitlines() if l.startswith("reason:")]
        assert payload_line and "expansion" in payload_line[0]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_time_limit_holds_inside_the_heuristic(self, tmp_path, capsys, strategy):
        # z's branch-and-bound at the initial marking dives without end
        # under the default node budget, so only a deadline inside ilp_min
        # lets the time limit end the solve.
        path = tmp_path / "runaway.fnet"
        path.write_text(RUNAWAY_ROOT_FNET)
        code, out, _ = run_main(
            ["solve", str(path), "--strategy", strategy.value, "--heuristic", "z", "--max-time-ms", "200"], capsys
        )
        assert code == 2
        assert "reason: time limit reached" in out

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_the_goal_is_popped_before_the_runaway(self, tmp_path, capsys, strategy):
        # small-batch seed 11, sb0884: every search evaluates z when it
        # pops a marking, so the distance-1 goal comes off the frontier
        # before the successor whose solve runs away.
        path = tmp_path / "sb0884.fnet"
        path.write_text(RUNAWAY_FNET)
        code, out, _ = run_main(
            ["solve", str(path), "--strategy", strategy.value, "--heuristic", "z", "--max-time-ms", "200"], capsys
        )
        assert code == 0
        assert "distance: 1 (1.0)" in out

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_the_library_time_limit_needs_the_heuristics_deadline(self, strategy):
        # directed_search checks max_time_ms only between expansions, so the
        # runaway z solve at the initial marking stops only at the deadline
        # that make_heuristic was given.
        inst = prune_instance(desugar_init(parse_instance(RUNAWAY_ROOT_FNET))).pruned_instance
        start = time.monotonic()
        heuristic = make_heuristic("z", inst, deadline=start + 0.2)
        result = directed_search(inst, strategy, heuristic, SearchLimits(max_time_ms=200))
        assert time.monotonic() - start < 5
        assert result.verdict is Verdict.EXHAUSTED and result.reason == "time limit reached"

    @pytest.mark.parametrize("strategy", [Strategy.ASTAR, Strategy.GBFS])
    @pytest.mark.parametrize("name", ["q", "z"])
    def test_time_limit_holds_inside_the_lookahead(self, tmp_path, capsys, strategy, name):
        # The lookahead at the root fires x* for seconds: only the search's
        # deadline, checked while it fires, ends the solve in time, from
        # the CLI and from directed_search with a heuristic built without one.
        path = tmp_path / "counter.fnet"
        path.write_text(COUNTER_FNET)
        start = time.monotonic()
        code, out, _ = run_main(
            ["solve", str(path), "--strategy", strategy.value, "--heuristic", name, "--max-time-ms", "200"], capsys
        )
        assert time.monotonic() - start < 1
        assert code == 2 and "reason: time limit reached" in out
        inst = parse_instance(COUNTER_FNET)
        start = time.monotonic()
        result = directed_search(inst, strategy, make_heuristic(name, inst), SearchLimits(max_time_ms=200))
        assert time.monotonic() - start < 1
        assert result.verdict is Verdict.EXHAUSTED and result.reason == "time limit reached"

    @pytest.mark.parametrize("relation", ["=", ">="])
    def test_a_target_above_max_tokens_is_unreachable_before_any_expansion(self, tmp_path, capsys, relation):
        # The expansion limit ends a search that misses the bound.
        path = tmp_path / "big.fnet"
        path.write_text(BIG_FNET.format(relation=relation))
        for strategy in Strategy:
            for name in HEURISTIC_NAMES:
                for prune in ([], ["--no-prune"]):
                    args = ["--strategy", strategy.value, "--heuristic", name, *prune, "--max-expansions", "1000"]
                    code, out, _ = run_main(["solve", str(path), *args, "--format", "json"], capsys)
                    payload = json.loads(out)
                    assert (code, payload["verdict"], payload["stats"]["expanded"]) == (1, "unreachable", 0), args
        inst = parse_instance(BIG_FNET.format(relation=relation))
        for strategy in Strategy:
            for name in HEURISTIC_NAMES:
                result = directed_search(inst, strategy, make_heuristic(name, inst), SearchLimits(max_expansions=1000))
                assert (result.verdict, result.stats.expanded) == (Verdict.UNREACHABLE, 0), (strategy, name)

    def test_missing_file(self, capsys):
        code, _, err = run_main(["solve", "does-not-exist.fnet"], capsys)
        assert code == 65
        assert "does-not-exist.fnet" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.fnet"
        path.write_text("net x\nplaces: a\nbogus line\n")
        code, _, err = run_main(["solve", str(path)], capsys)
        assert code == 65
        assert "line 3" in err

    def test_byte_order_mark_is_not_part_of_the_text(self, fig_fnet_text, tmp_path, capsys, monkeypatch):
        # Some editors start a UTF-8 file with U+FEFF, which is no whitespace:
        # kept, it would make the first keyword read "\ufeffnet".  Each copy
        # is read from its own directory under one name, as the report echoes
        # the path; the JSON report is the one without a wall time.
        outputs = []
        for side, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            Path("fig1.fnet").write_bytes(mark + fig_fnet_text.encode())
            outputs.append([run_main(["solve", "fig1.fnet", "--format", "json"], capsys)])
            assert run_main(["gen-walk", "fig1.fnet", "--length", "4", "--seed", "5", "--out", "w.fnet"], capsys)[0] == 0
            outputs[-1].append(Path("w.fnet").read_bytes())
        assert outputs[0][0][0] == 0
        assert outputs[1] == outputs[0]

    def test_numeral_too_long_to_convert(self, tmp_path, capsys):
        path = tmp_path / "long.fnet"
        path.write_text("net x\nplaces: a\ninit: a=" + "9" * 5000 + "\n")
        code, _, err = run_main(["solve", str(path)], capsys)
        assert code == 65
        assert "line 3" in err and "internal error" not in err

    def test_distance_absent_unless_reachable(self, tmp_path, capsys):
        path = tmp_path / "dead.fnet"
        path.write_text("net dead\nplaces: a\ntarget: a=1\n")
        code, out, _ = run_main(["solve", str(path), "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert "distance" not in payload and "witness" not in payload

    def test_generator_firings_reported(self, upward_path, capsys):
        code, out, _ = run_main(["solve", upward_path, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        # One extra spawned token plus the declared one, then one work step.
        assert payload["generator_firings"] == 1
        assert payload["witness"].count("work") == 1
        assert payload["distance"]["fraction"] == "2"

    def test_rational_distance_rendering(self, tmp_path, capsys):
        path = tmp_path / "frac.fnet"
        path.write_text(
            "net frac\nplaces: a\ntransition t weight 3/2\n  produce a:1\ntarget: a=1\n"
        )
        code, out, _ = run_main(["solve", str(path), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == {"fraction": "3/2", "decimal": 1.5}

    def test_distance_beyond_float_range(self, tmp_path, capsys):
        weight = 10**400
        path = tmp_path / "huge.fnet"
        path.write_text(f"net huge\nplaces: a\ntransition t weight {weight}\n  produce a:1\ntarget: a=1\n")
        code, out, _ = run_main(["solve", str(path), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["distance"] == {"fraction": str(weight), "decimal": None}
        code, out, _ = run_main(["solve", str(path)], capsys)
        assert code == 0
        assert f"distance: {weight}\n" in out


GOLDEN_JSON = """\
{
  "verdict": "reachable",
  "distance": {
    "fraction": "3",
    "decimal": 3.0
  },
  "witness": [
    "t1",
    "t2",
    "t3"
  ],
  "generator_firings": 0,
  "stats": {
    "expanded": 2,
    "discovered": 3,
    "heuristic_calls": 2
  },
  "config": {
    "file": "FILE",
    "strategy": "astar",
    "heuristic": "q",
    "prune": true,
    "ilp_node_budget": 10000,
    "max_expansions": null,
    "max_time_ms": null
  }
}
"""


class TestInternalError:
    def test_unexpected_exception_exits_70(self, fig1_path, capsys, caplog, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "solve_instance", crash)
        with caplog.at_level(logging.DEBUG, logger="ffreach"):
            code, out, err = run_main(["solve", fig1_path], capsys)
        assert code == 70
        assert out == ""
        assert err == "ffreach: internal error: RuntimeError('boom')\n"
        assert "Traceback" in caplog.text  # the debug channel carries the details

    def test_start_up_crash_exits_70(self, fig1_path, capsys, monkeypatch):
        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_configure_logging", crash)
        code, out, err = run_main(["solve", fig1_path], capsys)
        assert (code, out, err) == (70, "", "ffreach: internal error: RuntimeError('boom')\n")


class TestGoldenReport:
    def test_json_matches_frozen_schema(self, fig1_path, capsys):
        code, out, _ = run_main(["solve", fig1_path, "--format", "json"], capsys)
        assert code == 0
        assert out == GOLDEN_JSON.replace("FILE", fig1_path)


def make_report(**fields) -> cli.SolveReport:
    base = dict(
        verdict="reachable", distance=Fraction(3, 2), witness_ids=["t1", "t2"], generator_firings=0,
        reason=None, expanded=4, discovered=6, heuristic_calls=7, wall_time_ms=1.25,
        config={
            "file": "net.fnet", "strategy": "astar", "heuristic": "q", "prune": True,
            "ilp_node_budget": 10000, "max_expansions": None, "max_time_ms": 2.5,
        },
    )
    base.update(fields)
    return cli.SolveReport(**base)


class _Heuristic(str, enum.Enum):
    Q = "q"


class _Budget(enum.IntEnum):
    SMALL = 3


class _Millis(float):
    pass


REPORTS = {
    "reachable": make_report(),
    "empty-witness": make_report(distance=Fraction(0), witness_ids=[]),
    "decimal-null": make_report(distance=Fraction(10**400), witness_ids=["t"] * 3, generator_firings=2),
    "unreachable-reason": make_report(
        verdict="unreachable", distance=None, witness_ids=None, generator_firings=None,
        reason="target demands tokens in a place that can never be marked",
    ),
    "odd-file-names": make_report(
        verdict="unknown", distance=None, witness_ids=None,
        config={"file": 'd\\ir/"quoted" \u00e9t\u00e9 \u2603 \U0001f600\t.fnet', "prune": False, "max_time_ms": 0.1},
    ),
    # Leaves of a subclass of str, int or float are encoded as their base's.
    "subclassed-leaves": make_report(
        witness_ids=[_Heuristic.Q],
        config={"heuristic": _Heuristic.Q, "ilp_node_budget": _Budget.SMALL, "max_time_ms": _Millis(0.5)},
    ),
}


def test_report_record():
    report = make_report()
    names = (
        "verdict", "distance", "witness_ids", "generator_firings", "reason",
        "expanded", "discovered", "heuristic_calls", "wall_time_ms", "config",
    )
    assert report == tuple(getattr(report, name) for name in names) == make_report()
    assert report != make_report(expanded=5)
    with pytest.raises(TypeError):  # its config is a dict
        hash(report)
    with pytest.raises(AttributeError):
        report.verdict = "unreachable"


class TestJsonRendering:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_matches_standard_encoder(self, name):
        report = REPORTS[name]
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError):
            make_report(config={"max_time_ms": value}).to_json()

    @pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["list", "dict"])
    def test_rejects_nested_config_values(self, value):
        with pytest.raises(TypeError):
            make_report(config={"file": "net.fnet", "max_time_ms": value}).to_json()

    def test_rendering_leaves_no_garbage(self):
        reports = list(REPORTS.values())
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                for report in reports:
                    report.to_json()
            assert gc.collect() == 0
        finally:
            gc.enable()


_TEXT = st.text(max_size=12) | st.sampled_from(['"', "\\", 'd\\ir/"q" \u00e9t\u00e9 \u2603 \U0001f600\t', ""])
_CONFIG_VALUE = st.one_of(
    _TEXT, st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False)
)
_CONFIG_KEYS = ["file", "strategy", "heuristic", "prune", "ilp_node_budget", "max_expansions", "max_time_ms"]
_COUNT = st.integers(0, 10**12)


@st.composite
def solve_reports(draw) -> cli.SolveReport:
    """Every report shape: reachable with or without generator firings and
    with any witness, empty included; unreachable or exhausted with or
    without a reason; distances beyond the float range; any config."""
    verdict = draw(st.sampled_from(["reachable", "unreachable", "exhausted"]))
    distance = witness = firings = reason = None
    if verdict == "reachable":
        distance = draw(
            st.fractions(min_value=0, max_denominator=10**6)
            | st.integers(10**308, 10**400).map(Fraction)
        )
        witness = draw(st.lists(_TEXT, max_size=5))
        firings = draw(st.none() | st.integers(0, 5))
    else:
        reason = draw(st.none() | _TEXT)
    return cli.SolveReport(
        verdict=verdict, distance=distance, witness_ids=witness, generator_firings=firings,
        reason=reason, expanded=draw(_COUNT), discovered=draw(_COUNT), heuristic_calls=draw(_COUNT),
        wall_time_ms=draw(st.floats(0, 1e6)),
        config=draw(st.dictionaries(st.sampled_from(_CONFIG_KEYS) | _TEXT, _CONFIG_VALUE, max_size=9)),
    )


class TestReportWriter:
    @given(solve_reports())
    @settings(max_examples=300, deadline=None)
    def test_matches_standard_encoder(self, report):
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)


class TestWitnessEcho:
    def test_reported_witness_replays_through_desugaring(self, upward_path, capsys):
        code, out, _ = run_main(["solve", upward_path, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        inst = desugar_init(parse_instance(Path(upward_path).read_text()))
        index = {t.name: i for i, t in enumerate(inst.net.transitions)}
        seq = [index[name] for name in payload["witness"]]
        final, witness = inst.net.replay(inst.init, seq)
        assert inst.target.satisfied(final)
        assert str(witness.total_weight) == payload["distance"]["fraction"]


class TestRandomWalk:
    def test_zero_length(self, n1):
        assert random_walk(n1, (0, 0), 0, seed=1) == ((0, 0), [])

    def test_single_enabled_transition(self, n1):
        for seed in (0, 1, 7, 123456789):
            assert random_walk(n1, (0, 0), 1, seed) == ((1, 0), [0])

    def test_determinism(self, n1):
        a = random_walk(n1, (2, 1), 50, seed=99)
        b = random_walk(n1, (2, 1), 50, seed=99)
        assert a == b

    def test_dead_marking_stops_walk(self):
        net = PetriNet(["a"], [Transition("t", (1,), (0,))])
        final, walk = random_walk(net, (1,), 10, seed=5)
        assert final == (0,)
        assert walk == [0]

    def test_splitmix_reference_values(self):
        # Frozen first outputs of the seed-0 stream; guards the PRNG contract.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]


class TestGenWalk:
    def test_instance_is_reachable_by_construction(self, fig1_path, tmp_path, capsys):
        out_path = str(tmp_path / "walked.fnet")
        code, _, _ = run_main(
            ["gen-walk", fig1_path, "--length", "5", "--seed", "11", "--out", out_path], capsys
        )
        assert code == 0
        for strategy in ("dijkstra", "astar", "gbfs"):
            for heuristic in ("q", "z", "struct", "zero"):
                code, out, _ = run_main(
                    ["solve", out_path, "--strategy", strategy, "--heuristic", heuristic], capsys
                )
                assert code == 0, (strategy, heuristic, out)

    def test_walk_length_upper_bounds_distance(self, fig1_path, tmp_path, capsys):
        out_path = str(tmp_path / "walked.fnet")
        run_main(["gen-walk", fig1_path, "--length", "6", "--seed", "3", "--out", out_path], capsys)
        code, out, _ = run_main(["solve", out_path, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        from fractions import Fraction

        assert Fraction(payload["distance"]["fraction"]) <= 6

    def test_zero_length_gives_distance_zero(self, fig1_path, tmp_path, capsys):
        out_path = str(tmp_path / "walked.fnet")
        run_main(["gen-walk", fig1_path, "--length", "0", "--seed", "1", "--out", out_path], capsys)
        inst = parse_instance(Path(out_path).read_text())
        assert inst.target.satisfied(inst.init)
        code, out, _ = run_main(["solve", out_path, "--format", "json"], capsys)
        assert json.loads(out)["distance"]["fraction"] == "0"

    def test_byte_identical_output_files(self, fig1_path, tmp_path, capsys):
        paths = [str(tmp_path / f"w{i}.fnet") for i in range(2)]
        for p in paths:
            run_main(["gen-walk", fig1_path, "--length", "7", "--seed", "42", "--out", p], capsys)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_header_records_parameters(self, fig1_path, tmp_path, capsys):
        out_path = str(tmp_path / "walked.fnet")
        run_main(["gen-walk", fig1_path, "--length", "4", "--seed", "9", "--out", out_path], capsys)
        head = Path(out_path).read_text().splitlines()[0]
        assert "length=4" in head and "seed=9" in head

    def test_init_tokens_knob(self, upward_path, tmp_path, capsys):
        out_path = str(tmp_path / "walked.fnet")
        code, _, _ = run_main(
            ["gen-walk", upward_path, "--length", "3", "--seed", "2", "--out", out_path, "--init-tokens", "4"],
            capsys,
        )
        assert code == 0
        walked = parse_instance(Path(out_path).read_text())
        assert walked.init_upward == frozenset({0})  # original init is preserved
        code, _, _ = run_main(["solve", out_path], capsys)
        assert code == 0  # boosted start is inside the upward closure

    def test_missing_input_exits_65(self, tmp_path, capsys):
        out_path = tmp_path / "walked.fnet"
        code, _, err = run_main(
            ["gen-walk", "does-not-exist.fnet", "--length", "3", "--seed", "1", "--out", str(out_path)], capsys
        )
        assert code == 65
        assert "does-not-exist.fnet" in err
        assert not out_path.exists()

    def test_malformed_input_exits_65(self, tmp_path, capsys):
        path = tmp_path / "bad.fnet"
        path.write_text("net x\nplaces: a\nbogus line\n")
        out_path = tmp_path / "walked.fnet"
        code, _, err = run_main(["gen-walk", str(path), "--length", "3", "--seed", "1", "--out", str(out_path)], capsys)
        assert code == 65
        assert str(path) in err and "line 3" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("tokens", ["-5", str(2**64)], ids=["negative", "beyond-64-bit"])
    def test_init_tokens_out_of_range_exits_64(self, upward_path, tmp_path, capsys, tokens):
        out_path = tmp_path / "walked.fnet"
        args = ["gen-walk", upward_path, "--length", "3", "--seed", "1", "--out", str(out_path)]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--init-tokens", tokens])
        assert exc.value.code == 64
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--init-tokens" in errors[0] and tokens in errors[0]
        assert not out_path.exists()

    def test_token_overflow_exits_65(self, tmp_path, capsys):
        path = tmp_path / "grow.fnet"
        path.write_text(f"net grow\nplaces: a\ninit: a={2**64 - 1}\ntransition t\n  consume a:1\n  produce a:2\n")
        out_path = tmp_path / "walked.fnet"
        code, _, err = run_main(["gen-walk", str(path), "--length", "3", "--seed", "1", "--out", str(out_path)], capsys)
        assert code == 65
        assert err.count("\n") == 1 and str(path) in err and "'t'" in err
        assert not out_path.exists()


class TestStartUp:
    def test_import_builds_no_dataclasses(self):
        # Records are NamedTuples and slotted classes, so importing ffreach
        # loads neither ``dataclasses`` nor the ``inspect`` it imports.
        code = "import sys, ffreach; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_loads_neither_argparse_nor_logging(self):
        # Only build_parser imports argparse, and only FFREACH_LOG makes the
        # command line import logging; a solve through the library imports neither.
        code = (
            "import sys, ffreach\n"
            "ffreach.solve_instance(ffreach.parse_instance(sys.stdin.read()))\n"
            "print(sorted({'argparse', 'logging'} & set(sys.modules)))\n"
            "ffreach.cli.build_parser()\n"
            "print(sorted({'argparse', 'logging'} & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("FFREACH_LOG", None)
        proc = subprocess.run([sys.executable, "-c", code], input=FIG_FNET, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n['argparse']\n"


class TestSubprocessReproducibility:
    def test_identical_json_across_processes(self, fig1_path):
        cmd = [sys.executable, "-m", "ffreach", "solve", fig1_path, "--format", "json"]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert all(b"RuntimeWarning" not in run.stderr for run in runs)

    @pytest.mark.parametrize(
        "args",
        [
            ["solve"],
            ["solve", "{file}", "--heuristic", "z", "--ilp-node-budget", "0"],
            ["solve", "{file}", "--max-expansions", "-1"],
            ["solve", "{file}", "--max-time-ms", "-5"],
            ["solve", "{file}", "--max-time-ms", "nan"],
            ["solve", "{file}", "--max-time-ms", "inf"],
            ["solve", "{file}", "--max-time-ms", "1e400"],
            ["gen-walk", "{file}", "--seed", "1", "--out", "{out}", "--length", "-1"],
        ],
        ids=[
            "missing-file", "ilp-node-budget", "max-expansions", "max-time-ms",
            "max-time-ms-nan", "max-time-ms-inf", "max-time-ms-overflow", "length",
        ],
    )
    def test_usage_error_exit_code(self, fig1_path, tmp_path, args):
        args = [a.format(file=fig1_path, out=tmp_path / "w.fnet") for a in args]
        proc = subprocess.run(
            [sys.executable, "-m", "ffreach", *args], capture_output=True, text=True
        )
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_python_m_ffreach_runs_the_cli(self, fig1_path, capsys):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ffreach", "solve", fig1_path, "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == run_main(["solve", fig1_path, "--format", "json"], capsys)[1]

    def test_log_env_var_emits_diagnostics(self, fig1_path):
        import os

        env = dict(os.environ, FFREACH_LOG="debug")
        proc = subprocess.run(
            [sys.executable, "-m", "ffreach", "solve", fig1_path],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert b"ffreach DEBUG" in proc.stderr
        assert b"RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("value", ["basic_format", "_styles"])
    def test_log_env_var_that_names_no_level_falls_back(self, fig1_path, value):
        # ``logging.BASIC_FORMAT`` is a str and ``logging._STYLES`` a dict:
        # neither is a level, so both log at INFO like an unknown name.
        cmd = [sys.executable, "-m", "ffreach", "solve", fig1_path, "--format", "json"]
        env = {key: v for key, v in os.environ.items() if key != "FFREACH_LOG"}
        plain = subprocess.run(cmd, capture_output=True, env=env)
        proc = subprocess.run(cmd, capture_output=True, env={**env, "FFREACH_LOG": value})
        assert plain.returncode == proc.returncode == 0, proc.stderr
        assert proc.stdout == plain.stdout
        assert b"Traceback" not in proc.stderr
