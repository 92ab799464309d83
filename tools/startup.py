"""Start-up time of ffreach, measured as the benchmark measures ``setup_s``.

    python3 tools/startup.py N
    python3 tools/startup.py N OTHER_CHECKOUT

Run from the root of a checkout.  The seed-1 ``lp-astar`` corpus is built
once, in a temporary directory, and every probe is one call of
``perfbench/run.py``'s own ``setup_probe`` on it: a fresh interpreter that
imports ffreach from the checkout's ``src`` and loads the corpus, scaled by
a reference start-up without ffreach, in reference-speed seconds.  The
probes inherit this process's environment through ``run.child_env``, so
with ``PYTHONDONTWRITEBYTECODE=1`` each one compiles ffreach from source.

The first form makes N probes of this checkout.  The second makes N pairs:
each pair probes this checkout and OTHER_CHECKOUT (say, a clone of the
parent commit) with that checkout's own ``setup_probe``, alternating which
goes first, and counts the pairs this checkout's probe was faster.  One
untimed probe of each checkout comes first, as in ``run.py``.  The median
and quartiles of ``setup_s`` are printed for each checkout.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path


def load_run(root: Path, name: str):
    """The ``perfbench/run.py`` module of the checkout at ``root``."""
    path = root / "perfbench" / "run.py"
    if not path.is_file() or not (root / "src" / "ffreach").is_dir():
        raise SystemExit(f"startup.py: {root} is not the root of a checkout")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"setup_s median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, {len(values)} probes"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: python3 tools/startup.py N [OTHER_CHECKOUT]", file=sys.stderr)
        return 64
    sys.dont_write_bytecode = True
    rounds = int(argv[0])
    roots = [Path.cwd(), *(Path(arg).resolve() for arg in argv[1:])]
    runs = [load_run(root, f"run_{k}") for k, root in enumerate(roots)]
    from corpus import to_fnet  # importable once run.py has put perfbench on sys.path
    from workloads import WORKLOADS

    workload = WORKLOADS["lp-astar"]
    corpus = {
        "configs": [config.as_list() for config in workload.configs],
        "instances": [[inst.id, to_fnet(inst)] for inst, _ in workload.build(1)],
    }
    times: list[list[float]] = [[] for _ in roots]
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.json"
        corpus_path.write_text(json.dumps(corpus), encoding="utf-8")
        for run in runs:
            run.setup_probe(corpus_path)
        for k in range(rounds):
            order = range(len(runs)) if k % 2 == 0 else reversed(range(len(runs)))
            for side in order:
                times[side].append(runs[side].setup_probe(corpus_path))
    for root, values in zip(roots, times):
        print(f"{root}: {summary(values)}")
    if len(roots) == 2:
        wins = sum(mine < other for mine, other in zip(*times))
        print(f"this checkout faster in {wins} of {rounds} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
