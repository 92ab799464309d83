"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus as C  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def corpus_text(name: str, seed: int) -> str:
    return "".join(C.to_fnet(inst) for inst, _ in WORKLOADS[name].build(seed))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_corpus_other_seed_other_corpus(name):
    first = corpus_text(name, 7)
    assert corpus_text(name, 7) == first
    assert corpus_text(name, 8) != first


def test_workloads_have_enough_solves_for_a_p90():
    for name, workload in WORKLOADS.items():
        items = workload.build(1)
        assert len(items) * len(workload.configs) >= 200, name


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.percentile([5, 1, 3], 50) == 3
    assert run.percentile([4, 1, 3, 2], 50) == 2
    assert run.percentile([7.5], 90) == 7.5


# One solve: root [0, 10] with a search [1, 8] that makes a heuristic call
# [2, 5] (an ILP [2.5, 4.5] with two node LPs) and a successors call [6, 7],
# then a report [8.5, 9.5].
HAND_SPANS = [
    ["solve", 0.0, 10.0, -1, 0],
    ["search.search", 1.0, 8.0, 0, 0],
    ["heuristics.call", 2.0, 5.0, 1, 0],
    ["ratlp.ilp", 2.5, 4.5, 2, 0],
    ["ratlp.lp", 2.5, 3.0, 3, 0],
    ["ratlp.lp", 3.5, 4.25, 3, 0],
    ["net.successors", 6.0, 7.0, 1, 0],
    ["cli.report", 8.5, 9.5, 0, 0],
]


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times(HAND_SPANS)
    assert own == pytest.approx([10 - 7 - 1, 7 - 3 - 1, 3 - 2, 2 - 0.5 - 0.75, 0.5, 0.75, 1.0, 1.0])


def test_layer_self_times_add_up_to_the_solve():
    totals = spans.layer_totals(HAND_SPANS, {"heuristic_inf": 1})
    layer_sum = sum(v for k, v in totals.items() if k.startswith("self."))
    assert layer_sum == pytest.approx(10.0)
    assert totals["self.search"] == pytest.approx(3.0)
    assert totals["self.heuristics"] == pytest.approx(1.0)
    assert totals["self.ratlp"] == pytest.approx(2.0)
    assert totals["self.harness"] == pytest.approx(2.0)
    assert totals["n.ilp_node"] == 2
    assert totals["heuristic_inf"] == 1

    metrics = run.layer_metrics(totals, traced_solve_s=10.0, plain_solve_s=8.0)
    assert metrics["heuristics.self_ms"] == pytest.approx(1000.0)
    assert metrics["heuristics.call_ms"] == pytest.approx(3000.0)
    assert metrics["search.self_ms"] == pytest.approx(3000.0)
    assert metrics["ratlp.lp_calls"] == 2
    assert metrics["ratlp.ilp_nodes"] == 2
    assert metrics["ratlp.lps_per_heuristic_call"] == pytest.approx(2.0)
    assert metrics["heuristics.inf_share"] == pytest.approx(1.0)
    assert metrics["trace.overhead_share"] == pytest.approx(0.25)
    assert metrics["ratlp.lp_infeasible_share"] == 0.0


def test_report_counters_the_trace_missed_are_named():
    report = {"stats": {"expanded": 2, "discovered": 3, "heuristic_calls": 3}}
    assert spans.untimed_work(report, {"n.heuristics.call": 3, "expanded": 2}) is None
    # Heuristic calls made through a method no wrapper times.
    problem = spans.untimed_work(report, {"n.heuristics.call": 1, "expanded": 2})
    assert "heuristic_calls=3" in problem
    assert spans.untimed_work(report, {"n.heuristics.call": 3}) is not None
    assert spans.untimed_work({"stats": {}}, {}) is not None


def _ring_instance():
    net = C.ring_net(3)
    # a -> b -> c -> a with one token on a, which may be raised (a>=1).
    return C.Inst("ring", net, (1, 0, 0), frozenset({0}), (("=", 1), ("=", 1), ("=", 0)), False, Fraction(3))


def _report(distance, witness, generators):
    return {"verdict": "reachable", "distance": {"fraction": str(distance)},
            "witness": witness, "generator_firings": generators}


def test_checker_accepts_a_right_report():
    inst = _ring_instance()
    assert oracle.reference(inst) == 2
    assert oracle.check_report(inst, Fraction(2), _report(2, ["gen_a", "tab"], 1), exact=True) is None


def test_checker_rejects_a_wrong_distance():
    inst = _ring_instance()
    assert "distance 3" in oracle.check_report(inst, Fraction(2), _report(3, ["gen_a", "tab", "tab"], 1), exact=True)
    # A greedy config may be longer than optimal, never shorter.
    assert oracle.check_report(inst, Fraction(2), _report(1, ["tab"], 0), exact=False) is not None


def test_checker_rejects_a_witness_that_does_not_replay():
    inst = _ring_instance()
    problem = oracle.check_report(inst, Fraction(2), _report(2, ["tab", "tab"], 0), exact=True)
    assert "not enabled" in problem
    problem = oracle.check_report(inst, Fraction(2), _report(2, ["gen_a", "gen_a"], 2), exact=True)
    assert "outside the target" in problem


def test_checker_rejects_wrong_verdicts():
    inst = _ring_instance()
    assert oracle.check_report(inst, None, _report(2, ["gen_a", "tab"], 1), exact=True) is not None
    assert oracle.check_report(inst, Fraction(2), {"verdict": "exhausted"}, exact=True) is not None


def test_oracle_refutes_mutual_exclusion_and_decides_coverability():
    net = C.mutex_net(2)
    init = C.marking(net, {"lock": 1, "idle0": 1, "idle1": 1})
    assert oracle.reference(C.cover_instance("mx", net, init, {"crit0": 1, "crit1": 1})) is None
    assert oracle.reference(C.cover_instance("ok", net, init, {"crit1": 1})) == 3
    sink = C.Net("sink", ("p", "q"), (C.Trans("t", (2, 0), (0, 1)),))
    upward = C.Inst("u", sink, (1, 0), frozenset({0}), ((">=", 0), (">=", 2)), False)
    assert oracle.coverable(upward)
    assert oracle.reference(upward) == 5  # three generator firings, two t
    stuck = C.Inst("s", sink, (1, 1), frozenset({1}), ((">=", 2), (">=", 0)), False)
    assert not oracle.coverable(stuck)


def test_traced_solve_adds_up_and_unwraps():
    ffreach = pytest.importorskip("ffreach")
    import ffreach.cli
    import worker

    before = (ffreach.cli.prune_instance, ffreach.heuristics.simplex_min, ffreach.net.PetriNet.successors)
    tracer = spans.Tracer()
    solve = worker.make_solver(ffreach, tracer)
    text = C.to_fnet(_ring_instance())
    uninstall = spans.install(tracer)
    try:
        for heuristic in ("q", "z", "struct"):
            tracer.begin(heuristic)
            root = tracer.open("solve")
            report = json.loads(solve(text, "astar", heuristic, 10_000, "ring.fnet"))
            tracer.close(root)
            assert report["distance"]["fraction"] == "2"
            totals = spans.layer_totals(tracer.spans, tracer.counts)
            layer_sum = sum(v for k, v in totals.items() if k.startswith("self."))
            assert layer_sum == pytest.approx(tracer.spans[root][2] - tracer.spans[root][1])
            assert totals["n.heuristics.call"] > 0 and totals["n.net.successors"] > 0
            assert (totals["n.ratlp.lp"] > 0) == (heuristic != "struct")
            assert (totals["n.ratlp.ilp"] > 0) == (heuristic == "z")
            assert spans.untimed_work(report, totals) is None
    finally:
        uninstall()
    after = (ffreach.cli.prune_instance, ffreach.heuristics.simplex_min, ffreach.net.PetriNet.successors)
    assert after == before


def test_coins_family_makes_the_integer_heuristic_branch():
    ffreach = pytest.importorskip("ffreach")
    import worker

    net = C.coins_net()
    # Five coins: the rational optimum mints 2.5 pairs; the integer one
    # mints a pair and a triple.
    inst = C.Inst("coins", net, (0, 0, 0), frozenset(), (("=", 5), ("=", 0), ("=", 0)), False, Fraction(3))
    assert oracle.reference(inst) == 3
    tracer = spans.Tracer()
    solve = worker.make_solver(ffreach, tracer)
    uninstall = spans.install(tracer)
    try:
        tracer.begin(0)
        report = json.loads(solve(C.to_fnet(inst), "astar", "z", 10_000, "coins.fnet"))
    finally:
        uninstall()
    assert oracle.check_report(inst, Fraction(3), report, exact=True) is None
    totals = spans.layer_totals(tracer.spans, tracer.counts)
    assert totals["n.ilp_node"] > totals["n.ratlp.ilp"] > 0


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert spec["paths"] == [HERE.name]
