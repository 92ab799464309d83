"""Solves of four large benchmark nets, one fresh process per solve.

    python3 tools/scale.py
    python3 tools/scale.py OTHER_CHECKOUT

Run from the root of a checkout.  This checkout's ``perfbench/corpus.py``
builds ``mutex_net(80)``, ``mutex_net(160)``, ``pipeline_net(60)`` and
``pipeline_net(240)``, each from the initial marking that its family has in
``perfbench/workloads.py``, with an exact target: the end of a 40-step
``walk_instance`` drawn from ``SplitMix64(1)``.  Each is solved under A*+q,
GBFS+q and Dijkstra+q by ``solve_instance``, with
``SearchLimits(max_time_ms=60000)``, in a fresh interpreter that imports
only the solving checkout's ``ffreach`` (under its ``src``), runs with
``PYTHONHASHSEED=0`` and reads the instance as ``.fnet`` text.  One line
per solve prints the verdict, the distance, the search's ``expanded``,
``discovered`` and ``heuristic_calls``, the seconds ``solve_instance`` took
and the process's peak ``ru_maxrss`` in MiB.  With OTHER_CHECKOUT (say, a
clone of the parent commit), each line shows the other checkout's solve,
then this checkout's; the two run one after the other.  Nothing is
written, bytecode caches included.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: The search's time limit, in milliseconds.
LIMIT_MS = 60_000
CONFIGS = (("astar", "q"), ("gbfs", "q"), ("dijkstra", "q"))
COLUMNS = ("verdict", "distance", "expanded", "discovered", "calls", "seconds", "rss_mib")


def solve(root: Path, strategy: str, heuristic: str) -> int:
    """Solve the ``.fnet`` text on stdin with ``root``'s ffreach and print
    its columns as one JSON list."""
    import resource
    from time import perf_counter

    sys.path.insert(0, str(root / "src"))
    from ffreach import SearchLimits, Strategy, parse_instance, solve_instance

    inst = parse_instance(sys.stdin.read())
    start = perf_counter()
    result, _, _ = solve_instance(inst, Strategy(strategy), heuristic, limits=SearchLimits(max_time_ms=LIMIT_MS))
    seconds = perf_counter() - start
    stats = result.stats
    row = [result.verdict.value, "-" if result.distance is None else str(result.distance), stats.expanded,
           stats.discovered, stats.heuristic_calls, f"{seconds:.3f}",
           f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}"]
    print(json.dumps(row))
    return 0


def instances(root: Path) -> list[tuple[str, str]]:
    """``(name, .fnet text)`` of the four instances, built by ``root``'s corpus."""
    sys.path.insert(0, str(root / "perfbench"))
    import corpus as C

    built = []
    for net, tokens, bounded in [
        *[(C.mutex_net(n), {"lock": 1, **{f"idle{i}": 2 for i in range(n)}}, True) for n in (80, 160)],
        *[(C.pipeline_net(n), {"s0": 1}, False) for n in (60, 240)],
    ]:
        inst = C.walk_instance(net.name, net, C.marking(net, tokens), (), 40, C.SplitMix64(1), bounded)
        built.append((net.name, C.to_fnet(inst)))
    return built


def run(root: Path, text: str, strategy: str, heuristic: str) -> list[str]:
    """The columns of one solve in a fresh process, or ``failed`` ones."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, __file__, "--solve", str(root), strategy, heuristic], input=text,
                          capture_output=True, text=True, env=env)
    if done.returncode:
        print(f"scale.py: {root}: {(done.stderr.strip().splitlines() or ['no output'])[-1]}", file=sys.stderr)
        return ["failed"] + ["-"] * (len(COLUMNS) - 1)
    return [str(value) for value in json.loads(done.stdout)]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--solve"]:
        return solve(Path(argv[1]), argv[2], argv[3])
    if len(argv) > 1:
        print("usage: python3 tools/scale.py [OTHER_CHECKOUT]", file=sys.stderr)
        return 64
    root = Path.cwd()
    roots = [Path(arg).resolve() for arg in argv] + [root]
    for checkout in roots:
        if not (checkout / "src" / "ffreach").is_dir() or not (checkout / "perfbench" / "corpus.py").is_file():
            print(f"scale.py: {checkout} is not the root of a checkout", file=sys.stderr)
            return 2
    sys.dont_write_bytecode = True
    widths = (11, 10, 10, 12, 7, 9, 9)
    header = "".join(f"{name:>{width}}" for name, width in zip(COLUMNS, widths))
    print(f"{'instance':<12}{'config':<11}" + " |".join([header] * len(roots)), flush=True)
    for name, text in instances(root):
        for strategy, heuristic in CONFIGS:
            sides = ["".join(f"{value:>{width}}" for value, width in zip(run(r, text, strategy, heuristic), widths))
                     for r in roots]
            print(f"{name:<12}{strategy + '+' + heuristic:<11}" + " |".join(sides), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
