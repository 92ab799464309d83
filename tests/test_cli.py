import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from ffreach import (
    PetriNet,
    SplitMix64,
    Transition,
    desugar_init,
    parse_instance,
    random_walk,
)
from ffreach import cli
from ffreach.cli import main

UPWARD_FNET = """\
net spawn
places: ready done
init: ready>=1
transition work
  consume ready:2
  produce done:1
target: done>=1
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
        assert payload["stats"]["expanded"] == 4
        assert payload["config"]["strategy"] == "astar"
        assert "wall" not in json.dumps(payload)

    def test_unreachable_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dead.fnet"
        path.write_text("net dead\nplaces: a b\ninit: a=1\ntransition t\n  consume a:1\n  produce a:1\ntarget: b>=1\n")
        code, out, _ = run_main(["solve", str(path)], capsys)
        assert code == 1
        assert "verdict: unreachable" in out

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
    "expanded": 4,
    "discovered": 6,
    "heuristic_calls": 7
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


class TestGoldenReport:
    def test_json_matches_frozen_schema(self, fig1_path, capsys):
        code, out, _ = run_main(["solve", fig1_path, "--format", "json"], capsys)
        assert code == 0
        assert out == GOLDEN_JSON.replace("FILE", fig1_path)


class TestWitnessEcho:
    def test_reported_witness_replays_through_desugaring(self, upward_path, capsys):
        code, out, _ = run_main(["solve", upward_path, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        inst = desugar_init(parse_instance(Path(upward_path).read_text()))
        seq = [inst.net.transition_index[name] for name in payload["witness"]]
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


class TestSubprocessReproducibility:
    def test_identical_json_across_processes(self, fig1_path):
        cmd = [sys.executable, "-m", "ffreach.cli", "solve", fig1_path, "--format", "json"]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize(
        "args",
        [
            ["solve"],
            ["solve", "{file}", "--heuristic", "z", "--ilp-node-budget", "0"],
            ["solve", "{file}", "--max-expansions", "-1"],
            ["solve", "{file}", "--max-time-ms", "-5"],
            ["gen-walk", "{file}", "--seed", "1", "--out", "{out}", "--length", "-1"],
        ],
        ids=["missing-file", "ilp-node-budget", "max-expansions", "max-time-ms", "length"],
    )
    def test_usage_error_exit_code(self, fig1_path, tmp_path, args):
        args = [a.format(file=fig1_path, out=tmp_path / "w.fnet") for a in args]
        proc = subprocess.run(
            [sys.executable, "-m", "ffreach.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr

    def test_log_env_var_emits_diagnostics(self, fig1_path):
        import os

        env = dict(os.environ, FFREACH_LOG="debug")
        proc = subprocess.run(
            [sys.executable, "-m", "ffreach.cli", "solve", fig1_path],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert b"ffreach DEBUG" in proc.stderr
