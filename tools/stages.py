"""Untraced stage times of the benchmark's solve, in process.

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

Each pass solves every pair once, and the least pass total of each stage
over PASSES passes is printed, in milliseconds.  With OTHER_CHECKOUT (say,
a clone of the parent commit), the ffreach under each checkout's ``src`` is
imported side by side and the passes alternate between the two, swapping
which goes first each round, as ``tools/startup.py`` does; one untimed pass
of each comes first.  PASSES is even, so each checkout goes first in half
of the rounds.  Both columns are printed, and then, since the host's speed
drifts between rounds, the quartiles over the rounds of the two passes'
ratio, this checkout's time over the other's, per stage: a change reads as
real only when its ratio's quartiles keep clear of 1.000, which those of a
checkout against a copy of itself straddle.  The ratio of the two least
passes is not printed: against a copy of itself it read about 0.8 on every
stage, while the quartiles of ``total`` straddled 1.000.  Last comes the
median ratio of totals.  Every report of the untimed pass must pass the
benchmark's own check against its reference answer (``perfbench/run.py``'s
``check``, which calls ``perfbench/oracle.check_report``), and every later
report must match the untimed pass's exactly.  The two checkouts' reports
need not match each other, so a change that moves counters or picks other
optimal witnesses can still be timed; one line says when they differ.

Like the benchmark's worker, the solves run with ``PYTHONHASHSEED=0``.
Nothing is written, bytecode caches included.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

PASSES = 8
#: The ``cli`` globals that ``solve_instance`` calls, and the stage of each.
INNER = {"desugar_init": "desugar", "prune_instance": "prune", "make_heuristic": "build", "directed_search": "search"}
STAGES = ("parse", "desugar", "prune", "build", "search", "other", "report", "total")


def load_ffreach(root: Path):
    """The ``ffreach`` package under ``root / "src"``, imported apart from
    any other: its modules leave ``sys.modules`` again and keep working,
    since each one reads the others through its own globals."""
    if not (root / "src" / "ffreach").is_dir():
        raise SystemExit(f"stages.py: {root} is not the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    try:
        import ffreach
    finally:
        sys.path.pop(0)
    for name in [name for name in sys.modules if name == "ffreach" or name.startswith("ffreach.")]:
        del sys.modules[name]
    return ffreach


def timed(function, stage: str, totals: dict[str, float]):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[stage] += perf_counter() - t0

    return wrapper


def staged_solver(ff, worker, totals: dict[str, float]):
    """``worker.make_solver(ff)`` with its stages timed into ``totals``;
    ``ff`` is a package of its own, so its functions are wrapped in place."""
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


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or not argv[1].isdigit():
        print("usage: python3 tools/stages.py WORKLOAD SEED [OTHER_CHECKOUT]", file=sys.stderr)
        return 64
    root = Path.cwd()
    if not (root / "perfbench" / "worker.py").is_file():
        print(f"stages.py: {root} is not the root of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "perfbench"))
    import run
    import worker
    from corpus import to_fnet
    from workloads import WORKLOADS

    name, seed = argv[0], int(argv[1])
    if name not in WORKLOADS:
        print(f"stages.py: unknown workload {name!r}, one of {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 64
    workload = WORKLOADS[name]
    items = workload.build(seed)
    corpus = {
        "configs": [config.as_list() for config in workload.configs],
        "instances": [[inst.id, to_fnet(inst)] for inst, _ in items],
    }
    pairs = worker.Run(corpus).pairs

    roots = [root, *(Path(arg).resolve() for arg in argv[2:])]
    sides = []
    for root_ in roots:
        totals = dict.fromkeys(("parse", "solve", "total", *INNER.values()), 0.0)
        solve = staged_solver(load_ffreach(root_), worker, totals)
        reports = run_pass(solve, pairs, totals)[1]
        problems = run.check(items, workload.configs, reports, [0] * len(reports), 1)[1]
        if problems:
            print(f"stages.py: {root_}: {problems[0]}", file=sys.stderr)
            return 1
        sides.append((solve, totals, reports))
    if any(reports != sides[0][2] for _, _, reports in sides[1:]):
        print("stages.py: the two checkouts' reports differ; each side's agree with the reference")

    passes: list[list[dict[str, float]]] = [[] for _ in roots]
    for k in range(PASSES):
        order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
        for side in order:
            solve, totals, first = sides[side]
            stages, reports = run_pass(solve, pairs, totals)
            if reports != first:
                print(f"stages.py: {roots[side]}: a report differs from the first pass's", file=sys.stderr)
                return 1
            passes[side].append(stages)

    best = [{stage: min(p[stage] for p in side) for stage in STAGES} for side in passes]
    print(f"{name} seed {seed}, {len(pairs)} solves per pass, least of {PASSES} passes, ms per pass")
    header = f"{'stage':<8}" + "".join(f"{str(r)[-28:]:>30}" for r in roots)
    print(header + ("  round q1  median      q3" if len(roots) == 2 else ""))
    for stage in STAGES:
        line = f"{stage:<8}" + "".join(f"{b[stage] * 1000:>30.1f}" for b in best)
        # The host's speed drifts between rounds; the passes of one round ran back to back.
        if len(roots) == 2 and all(other[stage] > 0 for other in passes[1]):
            quartiles = statistics.quantiles([m[stage] / o[stage] for m, o in zip(*passes)], n=4)
            line += "".join(f"{q:>{w}.3f}" for q, w in zip(quartiles, (11, 8, 8)))
        print(line)
    if len(roots) == 2:
        ratios = [mine["total"] / other["total"] for mine, other in zip(*passes)]
        wins = sum(ratio < 1 for ratio in ratios)
        print(f"total, this checkout over the other per round: median {statistics.median(ratios):.3f}, "
              f"faster in {wins} of {PASSES} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
