"""One SHA-256 over every JSON report of a benchmark workload.

    python3 tools/report_digest.py WORKLOAD SEED

Run from the root of a checkout.  The corpus is built from the seed by that
checkout's ``perfbench/corpus.py`` and ``perfbench/workloads.py``, as
``perfbench/run.py`` builds it, and every (instance, config) pair is solved
once, in pair order, through ``perfbench/worker.make_solver`` with the
ffreach under the checkout's ``src``.  The digest covers each report
followed by a newline, so two checkouts print the same digest exactly when
all their reports are byte-identical:

    (cd old && python3 /path/to/report_digest.py small-batch 1)
    (cd new && python3 /path/to/report_digest.py small-batch 1)

A solve that raises is digested as the error report the benchmark records
for it.  Like the benchmark's worker, the solves run with
``PYTHONHASHSEED=0``.  Nothing is written, bytecode caches included.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit():
        print("usage: python3 tools/report_digest.py WORKLOAD SEED", file=sys.stderr)
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

    name, seed = argv[0], int(argv[1])
    if name not in WORKLOADS:
        print(f"report_digest.py: unknown workload {name!r}, one of {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 64
    workload = WORKLOADS[name]
    corpus = {
        "configs": [config.as_list() for config in workload.configs],
        "instances": [[inst.id, to_fnet(inst)] for inst, _ in workload.build(seed)],
    }
    solve = worker.make_solver(ffreach)
    digest = hashlib.sha256()
    pairs = worker.Run(corpus).pairs
    for pair in pairs:
        digest.update(worker.attempt(solve, pair).encode() + b"\n")
    print(f"{digest.hexdigest()}  {name} seed {seed}, {len(pairs)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
