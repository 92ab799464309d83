"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either checked exactly against an independent
brute-force oracle computed here, or is a frozen reference value of the
worked examples.  No tolerances anywhere: all arithmetic is exact.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ffreach import (
    Instance,
    PetriNet,
    PruneVerdict,
    SearchLimits,
    StateEquationHeuristic,
    Strategy,
    StructHeuristic,
    TargetSpec,
    Transition,
    Verdict,
    desugar_init,
    directed_search,
    ilp_min,
    make_heuristic,
    parse_instance,
    prune_instance,
    sign_analysis,
    simplex_min,
)
from ffreach.ratlp import OutcomeKind, RationalLP, Relation, Row
from conftest import FIG_FNET, chain_net, search_expanding, three_transition_net
from oracles import (
    backward_coverable,
    bfs_step_counts,
    cover_distance_by_enumeration,
    enumerate_reachable,
    integer_box_min,
    random_bounded_instance,
    remaining_distances,
    vertex_enumeration_min,
)
from test_ratlp import random_lp

INF = float("inf")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}", flush=True)
        raise
    print(f"criterion {number:2d} PASS: {description}", flush=True)


# ---------------------------------------------------------------------------
# shared corpus (criteria 3, 4, 6, 8)

CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(1234977)
    instances = [
        random_bounded_instance(rng, rational_weights=i % 2 == 1)
        for i in range(CORPUS_SIZE)
    ]
    solved = []
    for inst in instances:
        markings = enumerate_reachable(inst.net, inst.init)
        remaining = remaining_distances(inst.net, markings, inst.target)
        solved.append((inst, markings, remaining))
    return solved


def fig1_instance() -> Instance:
    return parse_instance(FIG_FNET)


def test_criterion_1_worked_example_search(capsys):
    with capsys.disabled(), criterion(
        1, "A* with the rational relaxation finds distance 3 via t1 t2 t3, expanding 2 markings"
    ):
        inst = fig1_instance()
        h = make_heuristic("q", inst)
        start = time.monotonic()
        result, expanded = search_expanding(inst, Strategy.ASTAR, h)
        elapsed = time.monotonic() - start
        assert result.verdict is Verdict.REACHABLE
        assert result.distance == Fraction(3)
        names = [inst.net.transitions[t].name for t in result.witness.sequence]
        assert names == ["t1", "t2", "t3"]
        # The lookahead fires q's optimum at (1, 0), t2 then t3, to the goal.
        assert expanded == [(0, 0), (1, 0)]
        assert result.stats.expanded == 2
        assert elapsed < 0.1, f"search took {elapsed:.3f}s"


def test_criterion_2_worked_example_heuristic_table(capsys):
    with capsys.disabled(), criterion(
        2, "the eight reference heuristic values (1,2,3,1,4,2,0,inf) are exact"
    ):
        net = three_transition_net()
        ctx = StateEquationHeuristic(net, TargetSpec.exact((0, 1)))
        table = {
            (0, 0): Fraction(1),
            (1, 0): Fraction(2),
            (2, 0): Fraction(3),
            (1, 1): Fraction(1),
            (3, 0): Fraction(4),
            (2, 1): Fraction(2),
            (0, 1): Fraction(0),
            (1, 2): INF,
        }
        for marking, expected in table.items():
            value = ctx(marking)
            assert value == expected, (marking, value, expected)
            assert (value == INF) == (expected == INF)


def test_criterion_3_oracle_equivalence(corpus, capsys):
    with capsys.disabled(), criterion(
        3,
        f"{CORPUS_SIZE} random instances: Dijkstra, A*+dQ, A*+dZ, A*+dstruct all match the oracle",
    ):
        start = time.monotonic()
        mismatches = 0
        for inst, markings, remaining in corpus:
            truth = remaining[tuple(inst.init)]
            reachable = truth != INF
            if all(t.weight == 1 for t in inst.net.transitions):
                # Unit weights: the Dijkstra oracle must agree with plain BFS.
                depths = bfs_step_counts(inst.net, inst.init)
                hits = [depths[m] for m in markings if inst.target.satisfied(m)]
                assert truth == (min(hits) if hits else INF)
            for strategy, name in [
                (Strategy.DIJKSTRA, "zero"),
                (Strategy.ASTAR, "q"),
                (Strategy.ASTAR, "z"),
                (Strategy.ASTAR, "struct"),
            ]:
                result = directed_search(inst, strategy, make_heuristic(name, inst))
                ok = (
                    result.verdict is not Verdict.EXHAUSTED
                    and result.reachable == reachable
                    and (not reachable or result.distance == truth)
                )
                mismatches += not ok
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 30, f"corpus sweep took {elapsed:.1f}s"


def test_criterion_4_admissibility_and_consistency(corpus, capsys):
    with capsys.disabled(), criterion(
        4, "lower-bound, zero-at-target and edgewise consistency hold on every explored marking"
    ):
        violations = 0
        budget_exhausted = 0
        for inst, markings, remaining in corpus:
            dq = StateEquationHeuristic(inst.net, inst.target)
            dz = StateEquationHeuristic(inst.net, inst.target, integral=True)
            ds = StructHeuristic(inst.net, inst.target)
            hq = {m: dq(m) for m in markings}
            hz = {m: dz(m) for m in markings}
            hs = {m: ds(m) for m in markings}
            # The corpus must be solved exactly: no branch-and-bound fallback.
            for m in markings:
                outcome = ilp_min(dz.lp(m))
                budget_exhausted += outcome.kind is OutcomeKind.BUDGET_EXHAUSTED
            for m in markings:
                truth = remaining[m]
                if truth != INF:
                    violations += not (hq[m] <= truth)
                    violations += not (hz[m] <= truth)
                    violations += not (hs[m] <= truth)
                if inst.target.satisfied(m):
                    violations += not (hq[m] == 0 and hz[m] == 0 and hs[m] == 0)
                violations += not (hq[m] <= hz[m])
                for t, succ in inst.net.successors(m):
                    w = inst.net.transitions[t].weight
                    violations += not (hq[m] <= w + hq[succ])
                    violations += not (hz[m] <= w + hz[succ])
        assert budget_exhausted == 0, "corpus relies on exact integer distances"
        assert violations == 0


def test_criterion_5_lp_ilp_engine(capsys):
    with capsys.disabled(), criterion(
        5, "500 LPs match vertex enumeration, 200 boxed ILPs match box enumeration, parity case exact"
    ):
        rng = random.Random(5151987)
        for _ in range(500):
            problem = random_lp(rng)
            expected = vertex_enumeration_min(problem)
            out = simplex_min(problem)
            if expected is None:
                assert out.kind is OutcomeKind.INFEASIBLE
            else:
                assert out.kind is OutcomeKind.OPTIMAL and out.value == expected
                for row in problem.rows:
                    lhs = sum((c * x for c, x in zip(row.coeffs, out.point)), Fraction(0))
                    assert lhs == row.rhs if row.relation is Relation.EQ else lhs >= row.rhs

        for _ in range(200):
            base = random_lp(rng)
            bound = Row(tuple(Fraction(-1) for _ in range(base.num_vars)), Relation.GEQ, Fraction(-8))
            problem = RationalLP(base.num_vars, base.objective, base.rows + (bound,))
            expected = integer_box_min(problem, box=8)
            out = ilp_min(problem, node_budget=5_000)
            if expected is None:
                assert out.kind is OutcomeKind.INFEASIBLE
            else:
                assert out.kind is OutcomeKind.OPTIMAL and out.value == expected

        parity = RationalLP.build([1], [([2], Relation.EQ, 3)])
        assert simplex_min(parity).value == Fraction(3, 2)
        assert ilp_min(parity).kind is OutcomeKind.INFEASIBLE


def test_criterion_6_pruning_soundness(corpus, capsys):
    with capsys.disabled(), criterion(
        6, "pruned and unpruned solves agree and no pruned place is ever marked"
    ):
        violations = 0
        for inst, markings, remaining in corpus:
            truth = remaining[tuple(inst.init)]
            pruned = prune_instance(inst)
            # A settled instance comes back unprojected; its unmarkable places are checked too.
            marked = {p for p in range(inst.net.num_places) if inst.init[p] > 0} | inst.init_upward
            markable = sign_analysis(inst.net, marked)
            removed = [p for p in range(inst.net.num_places) if p not in markable]
            if pruned.verdict is PruneVerdict.PRUNED:
                violations += pruned.pruned_instance.net.places != tuple(inst.net.places[p] for p in sorted(markable))
            for m in markings:
                violations += any(m[p] != 0 for p in removed)
            if pruned.verdict is PruneVerdict.IMMEDIATELY_UNREACHABLE:
                violations += truth != INF
                continue
            result = directed_search(
                pruned.pruned_instance, Strategy.ASTAR, make_heuristic("q", pruned.pruned_instance)
            )
            violations += result.reachable != (truth != INF)
            if result.reachable:
                violations += result.distance != truth
        assert violations == 0


def test_criterion_7_structural_distance(capsys):
    with capsys.disabled(), criterion(
        7, "pipeline example gives 2 (kappa 2 and 1); triangle inequality and the size cap hold"
    ):
        net = chain_net()
        h = StructHeuristic(net, TargetSpec.exact((1, 0, 0)))
        assert h((0, 1, 0)) == 2  # kappa(p2)
        assert h((0, 0, 1)) == 1  # kappa(p3)
        assert h((0, 1, 1)) == 2

        rng = random.Random(77)
        for _ in range(40):
            inst = random_bounded_instance(rng, rational_weights=True)
            cap = inst.net.num_places * max(t.weight for t in inst.net.transitions)
            markings = sorted(enumerate_reachable(inst.net, inst.init))[:5]
            toward = {m: StructHeuristic(inst.net, TargetSpec.exact(m)) for m in markings}
            for a, b, c in itertools.permutations(markings, 3):
                ab = toward[b](a)
                bc = toward[c](b)
                ac = toward[c](a)
                if ab != INF and bc != INF:
                    assert ac <= ab + bc
                for v in (ab, bc, ac):
                    assert v == INF or v <= cap


def test_criterion_8_gbfs_contract(corpus, capsys):
    with capsys.disabled(), criterion(
        8, "greedy search terminates on every reachable instance with a valid witness; >=1 strictly longer"
    ):
        strict = 0
        reachable_count = 0
        for inst, _, remaining in corpus:
            truth = remaining[tuple(inst.init)]
            if truth == INF:
                continue
            reachable_count += 1
            result = directed_search(inst, Strategy.GBFS, make_heuristic("q", inst))
            assert result.verdict is Verdict.REACHABLE
            final, witness = inst.net.replay(inst.init, result.witness.sequence)
            assert inst.target.satisfied(final)
            assert witness.total_weight == result.distance
            assert result.distance >= truth
            strict += result.distance > truth

        # The shortcut trap: a heavy one-step route hides the cheap pipeline.
        places = ["p1", "p2"]
        trap_net = PetriNet(
            places,
            [
                Transition.from_maps("t1", places, produce={"p1": 1}),
                Transition.from_maps("t2", places, consume={"p1": 1}, produce={"p1": 1, "p2": 1}),
                Transition.from_maps("t3", places, consume={"p1": 1}),
                Transition.from_maps("t4", places, produce={"p2": 1}, weight=5),
            ],
        )
        trap = Instance(trap_net, (0, 0), frozenset(), TargetSpec.exact((0, 1))).validate()
        greedy = directed_search(trap, Strategy.GBFS, make_heuristic("q", trap))
        best = directed_search(trap, Strategy.ASTAR, make_heuristic("q", trap))
        assert best.distance == 3 and greedy.distance == 5
        strict += 1

        assert reachable_count >= 50
        assert strict >= 1


def test_criterion_9_end_to_end_coverability(capsys):
    with capsys.disabled(), criterion(
        9, "desugared upward-closed instances agree with enumeration and backward oracles"
    ):
        rng = random.Random(909090)
        positives = negatives = 0
        for _ in range(60):
            base = random_bounded_instance(rng, upward=True)
            assert all(rel is Relation.GEQ for rel, _ in base.target.constraints) and base.init_upward
            bounds = tuple(b for _, b in base.target.constraints)
            truth = backward_coverable(base.net, base.init, base.init_upward, bounds)

            # Enumerating three extra tokens per flagged place must already
            # agree with the exact backward verdict on this corpus.
            enum3 = cover_distance_by_enumeration(
                base.net, base.init, base.init_upward, base.target,
                gen_weight=base.net.min_weight(), budget=3,
            )
            assert (enum3 != INF) == truth

            desugared = desugar_init(base)
            result = directed_search(
                desugared,
                Strategy.ASTAR,
                make_heuristic("q", desugared),
                SearchLimits(max_expansions=20_000),
            )
            if truth:
                positives += 1
                assert result.verdict is Verdict.REACHABLE
                final, witness = desugared.net.replay(desugared.init, result.witness.sequence)
                assert desugared.target.satisfied(final)
                assert witness.total_weight == result.distance
                # Optimal distance: enumerate every extra-token budget an
                # optimal run could afford.
                gen_weight = base.net.min_weight()
                budget = int(result.distance / gen_weight)
                exact = cover_distance_by_enumeration(
                    base.net, base.init, base.init_upward, base.target,
                    gen_weight=gen_weight, budget=budget,
                )
                assert result.distance == exact
            else:
                negatives += 1
                # A definite verdict must match the oracle; running out of
                # the expansion limit is "unknown", not a disagreement.
                assert result.verdict in (Verdict.UNREACHABLE, Verdict.EXHAUSTED)
        assert positives >= 20 and negatives >= 5


def test_criterion_10_reproducible_reports(tmp_path, capsys):
    with capsys.disabled(), criterion(
        10, "identical invocations yield byte-identical walk files and JSON reports"
    ):
        src = tmp_path / "base.fnet"
        src.write_text(FIG_FNET)
        walks = []
        for i in range(2):
            out = tmp_path / f"walk{i}.fnet"
            proc = subprocess.run(
                [sys.executable, "-m", "ffreach", "gen-walk", str(src),
                 "--length", "8", "--seed", "31337", "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0
            assert b"RuntimeWarning" not in proc.stderr
            walks.append(out.read_bytes())
        assert walks[0] == walks[1]

        reports = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "ffreach", "solve", str(tmp_path / "walk0.fnet"),
                 "--strategy", "gbfs", "--heuristic", "z", "--format", "json"],
                capture_output=True,
            )
            assert proc.returncode == 0
            assert b"RuntimeWarning" not in proc.stderr
            reports.append(proc.stdout)
        assert reports[0] == reports[1]
        json.loads(reports[0])  # the payload is well-formed JSON
