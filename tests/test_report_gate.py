"""A byte-identity gate on the JSON reports of ``ffreach solve``.

Fifty small random instances are solved through ``cli.main``, so each report
is built exactly as ``cmd_solve`` builds it, under two sets of configs; one
SHA-256 over all the reports of a set is compared with a recorded constant.
A change meant to keep every report (a speedup, a refactor) must leave both
digests alone.  A change that alters reports on purpose updates the digest
and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from oracles import random_bounded_instance

from ffreach import serialize_instance
from ffreach.cli import main

#: The digest of the reports under ``CONFIGS``; recorded when A* and GBFS
#: with ``q`` or ``z`` came to fire the state equation's optimum at each
#: marking they expand.  Only A*+q and A*+z reports moved: the ``stats`` of
#: 20 and the witnesses of 5 of them, each another shortest path.  Every
#: verdict and distance, and every Dijkstra+zero and GBFS+struct report, is
#: unchanged.
REPORTS_SHA256 = "22233d9eebd38894375b31a40dcde0d255a5e54c7aa0cfa326dcd57cfbdb0f5f"

CONFIGS = [
    ["--strategy", "astar", "--heuristic", "q"],
    ["--strategy", "astar", "--heuristic", "z", "--ilp-node-budget", "10"],
    ["--strategy", "dijkstra", "--heuristic", "zero"],
    ["--strategy", "gbfs", "--heuristic", "struct"],
]

#: The digest of the reports under ``MORE_CONFIGS``, the pairs ``CONFIGS``
#: lacks; recorded when A* and GBFS with ``q`` or ``z`` came to fire the
#: state equation's optimum at each marking they expand.  Only GBFS+q
#: reports moved: the ``stats`` of 20 and the witnesses of 5, each of the
#: same weight.  Every verdict, distance and reason, and every A*+struct
#: and capped Dijkstra report, is unchanged.
MORE_REPORTS_SHA256 = "1593976a1801adbebf6af258b12b9bf954c4b8d7c3e8d2af50daef933c9e53f8"

#: Without pruning, an unreachable target on a net with generators has an
#: infinite state space, so Dijkstra is capped.  Under the stubborn sets
#: each of those searches ends UNREACHABLE after 1 expansion; a cap of 7
#: stops the longest solve (seed 43, reachable after 8), which puts an
#: EXHAUSTED report in the digest too.
MORE_CONFIGS = [
    ["--strategy", "astar", "--heuristic", "struct"],
    ["--strategy", "dijkstra", "--heuristic", "zero", "--no-prune", "--max-expansions", "7"],
    ["--strategy", "gbfs", "--heuristic", "q"],
]


def reports_digest(configs, tmp_path, monkeypatch, capsys) -> tuple[str, set[int]]:
    """The SHA-256 over the reports of the fifty instances under ``configs``,
    and the set of exit codes they gave."""
    monkeypatch.chdir(tmp_path)  # the report names the file; keep the name relative
    digest = hashlib.sha256()
    codes = set()
    for seed in range(50):
        rng = random.Random(seed)
        inst = random_bounded_instance(rng, rational_weights=seed % 2 == 0, upward=seed % 3 == 0)
        name = f"i{seed:02d}.fnet"
        (tmp_path / name).write_text(serialize_instance(inst))
        for config in configs:
            code = main(["solve", name, *config, "--format", "json"])
            out, err = capsys.readouterr()
            assert not err, (name, config, err)
            codes.add(code)
            digest.update(out.encode())
    return digest.hexdigest(), codes


def test_reports_match_the_recorded_digest(tmp_path, monkeypatch, capsys):
    digest, codes = reports_digest(CONFIGS, tmp_path, monkeypatch, capsys)
    assert codes == {0, 1}  # both verdicts are covered
    assert digest == REPORTS_SHA256


def test_more_reports_match_their_recorded_digest(tmp_path, monkeypatch, capsys):
    digest, codes = reports_digest(MORE_CONFIGS, tmp_path, monkeypatch, capsys)
    assert codes == {0, 1, 2}  # both verdicts and the expansion cap are covered
    assert digest == MORE_REPORTS_SHA256
