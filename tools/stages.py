"""Untraced stage times of the benchmark's solve, one process per checkout.

    python3 tools/stages.py WORKLOAD SEED
    python3 tools/stages.py WORKLOAD SEED OTHER_CHECKOUT

Run from the root of a checkout.  The workload's corpus is built from the
seed by this checkout's ``perfbench/corpus.py`` and
``perfbench/workloads.py``, as ``perfbench/run.py`` builds it, and every
(instance, config) pair is solved by ``perfbench/worker.make_solver``, the
benchmark's own solve: parse the ``.fnet`` text, call ``solve_instance``,
render the JSON report.  Only the stages are timed, by
``time.perf_counter`` around ``parse_instance``, ``solve_instance`` and the
four calls ``solve_instance`` makes: ``desugar_init``, ``prune_instance``,
``make_heuristic`` (the heuristic build) and ``directed_search`` (the
search, the heuristic's calls included).  ``other`` is the rest of
``solve_instance``, and ``report`` the rest of the solve.  Nothing inside a
stage is traced, so small stages are not inflated by span overhead, as the
benchmark's traced layers are.

Each checkout's passes run in a process of its own, which imports only
that checkout's ``ffreach`` (under its ``src``), with ``PYTHONHASHSEED=0``
as in the benchmark's worker, so one checkout's imports cannot change how
the other runs.  A pass solves every pair once, and the least pass total
of each stage over PASSES rounds is printed, in milliseconds.  With
OTHER_CHECKOUT (say, a clone of the parent commit), a second process of
this checkout runs beside it, and each round runs one pass of each of the
three processes, in each of their six orders twice over PASSES rounds.
Since the host's speed drifts between rounds, the quartiles over the rounds
of two ratios follow each stage: this checkout's time over the other's
(A/B), and over its own second process's (A/A).  A change reads as real
only when the A/B quartiles keep clear of 1.000 and of the A/A ones, which
show how far the host moves two copies of the same code.  A stage's line
ends in ``unresolved`` when its A/B and A/A medians differ by no more than
the A/A interquartile range (q3 - q1): the run cannot tell the change from
the host's spread there.  Last come the median ratios of totals, both
marked ``unresolved`` by the same rule applied to the totals.

Each process first makes one untimed pass, whose every report must pass the
benchmark's own check against its reference answer (``perfbench/run.py``'s
``check``, which calls ``perfbench/oracle.check_report``); every later
report must match that pass's exactly.  The processes are started one at a
time, each once the one before has printed the line that ends its first
pass, so no two of these untimed passes compete for the host.  The two
checkouts' reports need not match each other, so a change that moves
counters or picks other optimal witnesses can still be timed; one line says
when they differ.  Nothing is written, bytecode caches included.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PASSES = 12
#: The ``cli`` globals that ``solve_instance`` calls, and the stage of each.
INNER = {"desugar_init": "desugar", "prune_instance": "prune", "make_heuristic": "build", "directed_search": "search"}
STAGES = ("parse", "desugar", "prune", "build", "search", "other", "report", "total")


def timed(function, stage: str, totals: dict[str, float]):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[stage] += perf_counter() - t0

    return wrapper


def staged_solver(ff, worker, totals: dict[str, float]):
    """``worker.make_solver(ff)`` with its stages timed into ``totals``."""
    for name, stage in INNER.items():
        setattr(ff.cli, name, timed(getattr(ff.cli, name), stage, totals))
    ff.parse_instance = timed(ff.parse_instance, "parse", totals)
    ff.solve_instance = timed(ff.solve_instance, "solve", totals)
    return timed(worker.make_solver(ff), "total", totals)


def run_pass(solve, pairs, totals: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Solve every pair once; the pass's stage totals and its reports."""
    for key in totals:
        totals[key] = 0.0
    reports = [solve(*pair) for pair in pairs]
    stages = {key: totals[key] for key in ("parse", *INNER.values(), "total")}
    stages["other"] = totals["solve"] - sum(totals[stage] for stage in INNER.values())
    stages["report"] = totals["total"] - totals["solve"] - totals["parse"]
    return stages, reports


def side(root: Path, name: str, seed: int) -> int:
    """One checkout's process: solve the corpus once untimed and check the
    reports, print the pair count and the reports' digest as a JSON line,
    then print one pass's stage totals as a JSON line for each line read."""
    sys.path[:0] = [str(root / "src"), str(Path.cwd() / "perfbench")]
    import ffreach
    import run
    import worker
    from corpus import to_fnet
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    items = workload.build(seed)
    corpus = {
        "configs": [config.as_list() for config in workload.configs],
        "instances": [[inst.id, to_fnet(inst)] for inst, _ in items],
    }
    pairs = worker.Run(corpus).pairs
    totals = dict.fromkeys(("parse", "solve", "total", *INNER.values()), 0.0)
    solve = staged_solver(ffreach, worker, totals)
    first = run_pass(solve, pairs, totals)[1]
    problems = run.check(items, workload.configs, first, [0] * len(first), 1)[1]
    if problems:
        print(f"stages.py: {root}: {problems[0]}", file=sys.stderr)
        return 1
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    print(json.dumps({"solves": len(pairs), "digest": digest}), flush=True)
    for _ in sys.stdin:
        stages, reports = run_pass(solve, pairs, totals)
        if reports != first:
            print(f"stages.py: {root}: a report differs from the first pass's", file=sys.stderr)
            return 1
        print(json.dumps(stages), flush=True)
    return 0


def ratios(mine: list[dict[str, float]], other: list[dict[str, float]], stage: str) -> list[float] | None:
    """``stage``'s per-round ratios, mine over other's; None if other's is ever 0."""
    if not all(o[stage] > 0 for o in other):
        return None
    return [m[stage] / o[stage] for m, o in zip(mine, other)]


def quartiles(per_round: list[float] | None) -> str:
    """The quartile columns of per-round ratios, blank without them."""
    if per_round is None:
        return " " * 24
    return "".join(f"{q:>8.3f}" for q in statistics.quantiles(per_round, n=4))


def unresolved(ab: list[float] | None, aa: list[float] | None) -> str:
    """A mark when the A/B and A/A medians differ by no more than the A/A
    interquartile range (q3 - q1), else nothing."""
    if ab is None or aa is None:
        return ""
    q1, median, q3 = statistics.quantiles(aa, n=4)
    return "  unresolved" if abs(statistics.median(ab) - median) <= q3 - q1 else ""


def main(argv: list[str]) -> int:
    if argv[:1] == ["--side"]:
        return side(Path(argv[1]), argv[2], int(argv[3]))
    if len(argv) not in (2, 3) or not argv[1].isdigit():
        print("usage: python3 tools/stages.py WORKLOAD SEED [OTHER_CHECKOUT]", file=sys.stderr)
        return 64
    root = Path.cwd()
    if not (root / "perfbench" / "worker.py").is_file():
        print(f"stages.py: {root} is not the root of a checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "perfbench"))
    from workloads import WORKLOADS

    name, seed = argv[0], argv[1]
    if name not in WORKLOADS:
        print(f"stages.py: unknown workload {name!r}, one of {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 64
    other = [Path(arg).resolve() for arg in argv[2:]]
    for checkout in other:
        if not (checkout / "src" / "ffreach").is_dir():
            print(f"stages.py: {checkout} is not the root of a checkout", file=sys.stderr)
            return 2
    # This checkout, then the other and this checkout's second process.
    roots = [root, *other, *[root for _ in other]]
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    procs, ready = [], []
    try:
        for r in roots:  # one at a time, so that no two untimed first passes overlap
            procs.append(subprocess.Popen([sys.executable, __file__, "--side", str(r), name, seed],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env))
            ready.append(json.loads(procs[-1].stdout.readline() or "null"))
            if ready[-1] is None:
                return 1
        if other and ready[0]["digest"] != ready[1]["digest"]:
            print("stages.py: the two checkouts' reports differ; each side's agree with the reference")
        passes: list[list[dict[str, float]]] = [[] for _ in procs]
        orders = list(itertools.permutations(range(len(procs))))
        for k in range(PASSES):
            for i in orders[k % len(orders)]:
                procs[i].stdin.write("pass\n")
                procs[i].stdin.flush()
                line = procs[i].stdout.readline()
                if not line:
                    return 1
                passes[i].append(json.loads(line))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()

    best = [{stage: min(p[stage] for p in passes[i]) for stage in STAGES} for i in range(1 + len(other))]
    print(f"{name} seed {seed}, {ready[0]['solves']} solves per pass, least of {PASSES} passes, ms per pass")
    header = f"{'stage':<8}" + "".join(f"{str(r)[-28:]:>30}" for r in roots[:len(best)])
    print(header + ("  A/B q1  median      q3  A/A q1  median      q3" if other else ""))
    for stage in STAGES:
        line = f"{stage:<8}" + "".join(f"{b[stage] * 1000:>30.1f}" for b in best)
        if other:
            ab, aa = ratios(passes[0], passes[1], stage), ratios(passes[0], passes[2], stage)
            line += quartiles(ab) + quartiles(aa) + unresolved(ab, aa)
        print(line)
    if other:
        ab, aa = ratios(passes[0], passes[1], "total"), ratios(passes[0], passes[2], "total")
        for label, per_round in [("the other", ab), ("its second process", aa)]:
            print(f"total, this checkout over {label} per round: median {statistics.median(per_round):.3f}, "
                  f"faster in {sum(ratio < 1 for ratio in per_round)} of {PASSES} rounds{unresolved(ab, aa)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
