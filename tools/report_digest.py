"""Two SHA-256 digests over the JSON reports of a benchmark workload, per seed.

    python3 tools/report_digest.py WORKLOAD SEED
    python3 tools/report_digest.py WORKLOAD [WORKLOAD ...] SEED [SEED ...]

Run from the root of a checkout.  The first form prints one digest line for
one workload at one seed; the second prints one line for every (workload,
seed) pair, workloads in the order given and, within each, seeds in the
order given, so one call covers a whole byte-identity check.  Each corpus
is built from its seed by that checkout's ``perfbench/corpus.py`` and
``perfbench/workloads.py``, as ``perfbench/run.py`` builds it, and every
(instance, config) pair is solved once, in pair order, through
``perfbench/worker.make_solver`` with the ffreach under the checkout's
``src``.  The first digest covers each report followed by a newline, so
two checkouts print the same first digest exactly when all its reports are
byte-identical.  The second covers the same reports with their ``stats``
block removed, so it stays put when a change moves only the search's
counters and keeps every verdict, distance, witness and reason.  Under each
digest line, one line per config of the workload sums the ``expanded``,
``discovered`` and ``heuristic_calls`` counters over its reports, so a
change that moves the counters shows by how much:

    (cd old && python3 /path/to/report_digest.py lp-astar small-batch 1 2)
    (cd new && python3 /path/to/report_digest.py lp-astar small-batch 1 2)

A solve that raises is digested as the error report the benchmark records
for it, in both digests.  Like the benchmark's worker, the solves run with
``PYTHONHASHSEED=0``.  Nothing is written, bytecode caches included.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

#: The search counters of a report's ``stats``, summed per config.
COUNTERS = ("expanded", "discovered", "heuristic_calls")


def main(argv: list[str]) -> int:
    split = next((i for i, arg in enumerate(argv) if arg.isdigit()), len(argv))
    names, seeds = argv[:split], argv[split:]
    if not names or not seeds or not all(arg.isdigit() for arg in seeds):
        print("usage: python3 tools/report_digest.py WORKLOAD [WORKLOAD ...] SEED [SEED ...]", file=sys.stderr)
        return 64
    root = Path.cwd()
    if not (root / "perfbench" / "worker.py").is_file() or not (root / "src" / "ffreach").is_dir():
        print(f"report_digest.py: {root} is not the root of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import ffreach
    import worker
    from corpus import to_fnet
    from workloads import WORKLOADS

    for name in names:
        if name not in WORKLOADS:
            known = ", ".join(sorted(WORKLOADS))
            print(f"report_digest.py: unknown workload {name!r}, one of {known}", file=sys.stderr)
            return 64
    solve = worker.make_solver(ffreach)
    for name in names:
        workload = WORKLOADS[name]
        for seed in map(int, seeds):
            corpus = {
                "configs": [config.as_list() for config in workload.configs],
                "instances": [[inst.id, to_fnet(inst)] for inst, _ in workload.build(seed)],
            }
            digest, answers = hashlib.sha256(), hashlib.sha256()
            totals = [dict.fromkeys(COUNTERS, 0) for _ in workload.configs]
            pairs = worker.Run(corpus).pairs
            for k, pair in enumerate(pairs):
                report = worker.attempt(solve, pair)
                digest.update(report.encode() + b"\n")
                fields = json.loads(report)
                stats = fields.pop("stats", {})  # an error report has none
                answers.update(json.dumps(fields).encode() + b"\n")
                total = totals[k % len(totals)]
                for key in COUNTERS:
                    total[key] += stats.get(key, 0)
            print(f"{digest.hexdigest()}  {answers.hexdigest()}  {name} seed {seed}, {len(pairs)} reports")
            for config, total in zip(workload.configs, totals):
                print(f"    {config.label}: " + ", ".join(f"{key} {value}" for key, value in total.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
