"""The solve benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lp-astar --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The corpus is generated from the seed by
the benchmark's own code, the reference answers come from its own
explicit-state oracle, and ffreach (imported from ``src``) sees only the
``.fnet`` text.  The solves run in a fresh interpreter with default flags
(assertions on, as under the ``ffreach`` console script), one thread, closed
loop.  Every solve is repeated once per pass, and a solve's time is its
median over the passes.  Times are in reference-speed seconds: wall time
scaled by a calibration loop timed around every ~0.05 s of solving, which
takes the host's own speed swings out of the numbers (see hostspeed.py and
BASELINE.md).  ``setup_s`` is the median of nine fresh interpreters,
started before and after the solves, each scaled by a reference start-up
without ffreach.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object; the exit
code is 0 only when every report matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from corpus import to_fnet  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 5
#: The worker may take this many times --seconds (traced runs one more),
#: plus the margin: a run ends after at least two passes, and the last
#: pass may end past the deadline when the host slows down.
WORKER_TIMEOUT_PER_S = 2
WORKER_TIMEOUT_MARGIN_S = 60
PROBE_TIMEOUT_S = 20
REFERENCE_START_UP_S = 0.1

END_TO_END = [
    ("solve_s", "s"),
    ("solve_ms.p50", "ms"),
    ("solve_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("instance_io.parse_ms", "ms"),
    ("instance_io.desugar_ms", "ms"),
    ("prune.prune_ms", "ms"),
    ("prune.settled", "count"),
    ("heuristics.build_ms", "ms"),
    ("heuristics.calls", "count"),
    ("heuristics.call_ms", "ms"),
    ("heuristics.self_ms", "ms"),
    ("heuristics.inf_share", "ratio"),
    ("ratlp.lp_calls", "count"),
    ("ratlp.lp_ms", "ms"),
    ("ratlp.lp_infeasible_share", "ratio"),
    ("ratlp.lps_per_heuristic_call", "ratio"),
    ("ratlp.ilp_calls", "count"),
    ("ratlp.ilp_ms", "ms"),
    ("ratlp.ilp_nodes", "count"),
    ("ratlp.ilp_budget_exhausted", "count"),
    ("ratlp.self_ms", "ms"),
    ("net.successors_calls", "count"),
    ("net.successors_ms", "ms"),
    ("net.successors_per_call", "ratio"),
    ("search.expanded", "count"),
    ("search.discovered", "count"),
    ("search.self_ms", "ms"),
    ("cli.report_ms", "ms"),
    ("cli.solve_self_ms", "ms"),
    ("trace.harness_ms", "ms"),
    ("trace.solve_s", "s"),
    ("trace.overhead_share", "ratio"),
]

LAYERS = ("instance_io", "prune", "heuristics", "ratlp", "net", "search", "cli", "harness")


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict, traced_solve_s: float, plain_solve_s: float) -> dict:
    """Per-layer metrics from summed ``spans.layer_totals``."""
    g = lambda key: layers.get(key, 0)  # noqa: E731
    ms = 1000.0
    metrics = {
        "instance_io.parse_ms": g("incl.instance_io.parse") * ms,
        "instance_io.desugar_ms": g("incl.instance_io.desugar") * ms,
        "prune.prune_ms": g("incl.prune.prune") * ms,
        "prune.settled": g("prune_settled"),
        "heuristics.build_ms": g("incl.heuristics.build") * ms,
        "heuristics.calls": g("n.heuristics.call"),
        "heuristics.call_ms": g("incl.heuristics.call") * ms,
        "heuristics.self_ms": (g("self.heuristics") - g("incl.heuristics.build")) * ms,
        "heuristics.inf_share": ratio(g("heuristic_inf"), g("n.heuristics.call")),
        "ratlp.lp_calls": g("n.ratlp.lp"),
        "ratlp.lp_ms": g("incl.ratlp.lp") * ms,
        "ratlp.lp_infeasible_share": ratio(g("lp_infeasible"), g("n.ratlp.lp")),
        "ratlp.lps_per_heuristic_call": ratio(g("n.ratlp.lp"), g("n.heuristics.call")),
        "ratlp.ilp_calls": g("n.ratlp.ilp"),
        "ratlp.ilp_ms": g("incl.ratlp.ilp") * ms,
        "ratlp.ilp_nodes": g("n.ilp_node"),
        "ratlp.ilp_budget_exhausted": g("ilp_budget_exhausted"),
        "ratlp.self_ms": g("self.ratlp") * ms,
        "net.successors_calls": g("n.net.successors"),
        "net.successors_ms": g("incl.net.successors") * ms,
        "net.successors_per_call": ratio(g("successors"), g("n.net.successors")),
        "search.expanded": g("expanded"),
        "search.discovered": g("discovered"),
        "search.self_ms": g("self.search") * ms,
        "cli.report_ms": g("incl.cli.report") * ms,
        "cli.solve_self_ms": (g("self.cli") - g("incl.cli.report")) * ms,
        "trace.harness_ms": g("self.harness") * ms,
        "trace.solve_s": traced_solve_s,
        "trace.overhead_share": ratio(traced_solve_s, plain_solve_s) - 1,
    }
    units = dict(PER_LAYER)
    return {k: int(v) if units[k] == "count" else v for k, v in metrics.items()}


def child_env() -> dict:
    """Default interpreter flags, ffreach from this checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_up(mode: str, corpus_path: Path) -> float:
    """Wall seconds from starting a fresh worker in ``mode`` (``setup`` or
    ``reference``) until it has done its imports and loaded the corpus."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, str(corpus_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
    ) as proc:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or line != b"ready\n":
        raise BenchError(f"{mode} start-up failed with exit code {code}")
    return elapsed


def setup_probe(corpus_path: Path) -> float:
    """Set-up time of one fresh interpreter in reference-speed seconds.

    Start-up time does not follow the calibration loop (BASELINE.md), so
    it is scaled by a reference start-up run right after it instead: the
    same interpreter, the same standard-library imports and corpus, but no
    ffreach.  The result is the set-up time at the host speed where the
    reference start-up takes REFERENCE_START_UP_S."""
    setup = start_up("setup", corpus_path)
    return setup * REFERENCE_START_UP_S / start_up("reference", corpus_path)


def run_worker(corpus_path: Path, seconds: int, trace: bool, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "measure", str(corpus_path), str(seconds), str(int(trace))],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


def check(items, configs, reports, deviations, passes) -> tuple[int, list[str]]:
    """Failed solves (a wrong first report fails every pass of its pair)
    and a description of each failing pair."""
    failed, problems = 0, []
    k = 0
    for inst, expected in items:
        for config in configs:
            report = json.loads(reports[k])
            problem = report.get("error") or oracle.check_report(inst, expected, report, config.exact)
            if problem:
                failed += passes
                problems.append(f"{inst.id} {config.label}: {problem}")
            elif deviations[k]:
                failed += deviations[k]
                problems.append(f"{inst.id} {config.label}: report changed between passes")
            k += 1
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ffreach" / "__init__.py").is_file():
        print(f"run.py: no ffreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    items = workload.build(args.seed)
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_path = workdir / "corpus.json"
    corpus = {
        "configs": [c.as_list() for c in workload.configs],
        "instances": [[inst.id, to_fnet(inst)] for inst, _ in items],
    }
    corpus_path.write_text(json.dumps(corpus), encoding="utf-8")

    try:
        setup_probe(corpus_path)  # warm-up: byte-compiles ffreach once
        setups = [setup_probe(corpus_path) for _ in range(SETUP_PROBES_BEFORE)]
        timeout = (WORKER_TIMEOUT_PER_S + args.trace) * args.seconds + WORKER_TIMEOUT_MARGIN_S
        out = run_worker(corpus_path, args.seconds, bool(args.trace), timeout)
        setups += [setup_probe(corpus_path) for _ in range(SETUP_PROBES_AFTER)]
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    passes = len(out["times"][0])
    attempted = passes * len(out["times"])
    failed, problems = check(items, workload.configs, out["reports"], out["deviations"], passes)
    per_solve = [statistics.median(ts) for ts in out["times"]]
    solve_s = sum(per_solve)
    if args.trace:
        traced = out["traced"]
        traced_passes = len(traced["times"][0])
        attempted += traced_passes * len(traced["times"])
        failed += sum(traced["deviations"])
        if not traced["reports_match"]:
            failed += 1
            problems.append("traced reports differ from untraced ones")
        labels = [f"{inst.id} {config.label}" for inst, _ in items for config in workload.configs]
        failed += len(traced["untimed"])
        problems += [f"{labels[k]}: {problem}" for k, problem in traced["untimed"]]
        metrics = layer_metrics(
            traced["layers"],
            sum(statistics.fmean(ts) for ts in traced["times"]),
            sum(statistics.fmean(ts) for ts in out["times"]),
        )
        units = dict(PER_LAYER)
    else:
        per_solve_ms = [t * 1000 for t in per_solve]
        metrics = {
            "solve_s": solve_s,
            "solve_ms.p50": percentile(per_solve_ms, 50),
            "solve_ms.p90": percentile(per_solve_ms, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_kib"] / 1024,
        }
        units = dict(END_TO_END)

    n = len(per_solve)
    print(
        f"{workload.name} seed {args.seed}: {len(items)} instances x {len(workload.configs)} configs"
        f" = {n} solves per pass, {passes} passes; {attempted} solves attempted, {failed} failed"
        f" (failed_share {ratio(failed, attempted):.4f})"
    )
    print(f"  wall seconds per untraced pass: {' '.join(f'{w:.3f}' for w in out['wall'])}")
    if not args.trace:
        print(f"  per-solve time: median of {passes} passes; p90 of {n} solves, {n - math.ceil(0.9 * n)} above it")
        print(f"  setup_s: median of {len(setups)} fresh interpreters, each scaled by a reference start-up")
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        print(f"  {name:32s} {shown} {units[name]}")
    if args.trace:
        total = metrics["trace.solve_s"] * 1000
        print(f"  self time by layer, mean of {traced_passes} traced passes:")
        for layer in LAYERS:
            own = traced["layers"].get("self." + layer, 0) * 1000
            print(f"    {layer:12s} {own:12.1f} ms {ratio(own, total):7.1%}")
        print(f"  spans of the first traced pass: {workdir / 'spans.jsonl'}")
    for problem in problems[:20]:
        print("  FAILED " + problem)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
