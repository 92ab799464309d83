"""One workload in a fresh interpreter: closed-loop solves, timed.

Started by ``run.py`` with ``src`` on PYTHONPATH:

    worker.py setup CORPUS                  import ffreach, load the corpus, print "ready"
    worker.py reference CORPUS              the same with ffreach's standard-library imports only
    worker.py measure CORPUS SECONDS TRACE  solve every pair once per pass for SECONDS

A solve does in-process what ``ffreach solve --format json`` does: parse
the ``.fnet`` text, call ``solve_instance`` and render the JSON report.
One thread, closed loop: the next solve starts when the previous returns.
Passes repeat the whole corpus; ``measure`` prints one JSON object with
every solve's time per pass, the first report of each (instance, config)
pair, and how many later reports differed from it.  With TRACE=1 untraced
and traced passes alternate, the spans of the first traced pass are
written next to the corpus, and every traced solve whose report counts
heuristic calls or expansions its spans missed is listed.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import spans

SEGMENT_S = 0.05

#: The standard-library modules ffreach imports.  The reference start-up
#: imports these instead of ffreach, so it does the same work minus
#: ffreach's own modules.
FFREACH_STDLIB = (
    "argparse", "collections", "dataclasses", "enum", "fractions", "heapq",
    "json", "logging", "math", "os", "re", "time", "typing",
)


def make_solver(ff, tracer=None):
    """``solve(fnet_text, strategy, heuristic, ilp_node_budget, file_name)
    -> JSON report``."""
    parse = ff.parse_instance
    solve_instance = ff.solve_instance

    def render(result, witness_ids, generator_firings, strategy, heuristic, ilp_node_budget, file_name):
        # Mirrors cmd_solve: the same SolveReport fields, the same config dict.
        report = ff.SolveReport(
            verdict=result.verdict.value,
            distance=result.distance,
            witness_ids=witness_ids if result.reachable else None,
            generator_firings=generator_firings if result.reachable else None,
            reason=result.reason,
            expanded=result.stats.expanded,
            discovered=result.stats.discovered,
            heuristic_calls=result.stats.heuristic_calls,
            wall_time_ms=result.stats.wall_time_ms,
            config={
                "file": file_name,
                "strategy": strategy,
                "heuristic": heuristic,
                "prune": True,
                "ilp_node_budget": ilp_node_budget,
                "max_expansions": None,
                "max_time_ms": None,
            },
        )
        return report.to_json()

    if tracer is not None:
        parse = tracer.wrap("instance_io.parse", parse)
        solve_instance = tracer.wrap("cli.solve_instance", solve_instance)
        render = tracer.wrap("cli.report", render)

    def solve(text, strategy, heuristic, ilp_node_budget, file_name):
        inst = parse(text)
        result, witness_ids, generator_firings = solve_instance(
            inst,
            strategy=ff.Strategy(strategy),
            heuristic_name=heuristic,
            prune=True,
            ilp_node_budget=ilp_node_budget,
            limits=ff.SearchLimits(),
        )
        return render(result, witness_ids, generator_firings, strategy, heuristic, ilp_node_budget, file_name)

    return solve


class Run:
    """Times and reports of every pass, indexed by (instance, config) pair.

    ``times[k]`` holds pair k's solve time in each pass, in reference-speed
    seconds (see hostspeed.py); ``wall`` the plain wall seconds per pass.
    """

    def __init__(self, corpus: dict):
        self.pairs = [
            (text, strategy, heuristic, budget, iid + ".fnet")
            for iid, text in corpus["instances"]
            for strategy, heuristic, budget in corpus["configs"]
        ]
        self.times: list[list[float]] = [[] for _ in self.pairs]
        self.wall: list[float] = []
        self.reports: list[str | None] = [None] * len(self.pairs)
        self.deviations = [0] * len(self.pairs)
        self.untimed: dict[int, str] = {}  # pair -> work its spans missed

    def record(self, k: int, seconds: float, report: str) -> None:
        self.times[k].append(seconds)
        if self.reports[k] is None:
            self.reports[k] = report
        elif report != self.reports[k]:
            self.deviations[k] += 1


def attempt(solve, pair) -> str:
    try:
        return solve(*pair)
    except Exception as exc:  # a crash is a failed solve, not the end of the run
        return json.dumps({"error": f"{type(exc).__name__}: {exc}"})


def run_pass(solve, run: Run, speed, tracer=None, layer_sums=None, keep=None) -> None:
    """Solve every pair once.  Solves are grouped into segments of about
    SEGMENT_S; the calibration loop runs between segments, and each solve is
    scaled by the host speed measured around its segment.  With a tracer,
    each solve runs under a root span and its scaled layer totals are added
    to ``layer_sums``; spans are appended to ``keep`` when it is a list."""
    segment: list = []
    segment_wall = 0.0
    pass_wall = 0.0
    speed.scale()
    for k, pair in enumerate(run.pairs):
        layers = None
        if tracer is None:
            t0 = perf_counter()
            report = attempt(solve, pair)
            elapsed = perf_counter() - t0
        else:
            tracer.begin(k)
            root = tracer.open("solve")
            report = attempt(solve, pair)
            tracer.close(root)
            elapsed = tracer.spans[root][2] - tracer.spans[root][1]
            layers = spans.layer_totals(tracer.spans, tracer.counts)
            decoded = json.loads(report)
            problem = None if "error" in decoded else spans.untimed_work(decoded, layers)
            if problem and k not in run.untimed:
                run.untimed[k] = problem
            if keep is not None:
                offset = len(keep)
                keep.extend(
                    [name, start, end, parent + offset if parent >= 0 else -1, solve_id]
                    for name, start, end, parent, solve_id in tracer.spans
                )
        segment.append((k, elapsed, report, layers))
        segment_wall += elapsed
        if segment_wall >= SEGMENT_S or k == len(run.pairs) - 1:
            factor = speed.scale()
            for k_, elapsed_, report_, layers_ in segment:
                run.record(k_, elapsed_ * factor, report_)
                for key, value in (layers_ or {}).items():
                    timed = key.startswith(("self.", "incl."))
                    layer_sums[key] = layer_sums.get(key, 0) + (value * factor if timed else value)
            pass_wall += segment_wall
            segment, segment_wall = [], 0.0
    run.wall.append(pass_wall)


def measure(ff, corpus: dict, seconds: float, trace: bool, spans_path: Path) -> dict:
    speed = hostspeed.SpeedTracker()
    solve = make_solver(ff)
    plain = Run(corpus)
    out: dict = {}
    started = perf_counter()

    def another_round(rounds: int) -> bool:
        # At least two rounds; no round that would end past the deadline.
        elapsed = perf_counter() - started
        return rounds < 2 or elapsed + elapsed / rounds <= seconds

    if not trace:
        while another_round(len(plain.wall)):
            run_pass(solve, plain, speed)
    else:
        tracer = spans.Tracer()
        traced_solve = make_solver(ff, tracer)
        traced = Run(corpus)
        layer_sums: dict = {}
        kept: list = []
        while another_round(len(traced.wall)):
            run_pass(solve, plain, speed)
            uninstall = spans.install(tracer)
            try:
                run_pass(traced_solve, traced, speed, tracer, layer_sums, kept if not traced.wall else None)
            finally:
                uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in kept:
                fh.write(json.dumps(span) + "\n")
        out["traced"] = {
            "times": traced.times,
            "layers": {key: value / len(traced.wall) for key, value in layer_sums.items()},
            "deviations": traced.deviations,
            "reports_match": traced.reports == plain.reports,
            "untimed": sorted(traced.untimed.items()),
        }
    out.update(
        times=plain.times,
        wall=plain.wall,
        reports=plain.reports,
        deviations=plain.deviations,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def main(argv: list[str]) -> int:
    if sys.flags.optimize:
        print("worker: assertions are off (-O); the benchmark runs with them on", file=sys.stderr)
        return 2
    mode, corpus_path = argv[0], Path(argv[1])
    if mode == "reference":
        for name in FFREACH_STDLIB:
            importlib.import_module(name)
    else:
        import ffreach
    with open(corpus_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    if mode in ("setup", "reference"):
        print("ready", flush=True)
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    result = measure(ffreach, corpus, seconds, trace, corpus_path.with_name("spans.jsonl"))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
