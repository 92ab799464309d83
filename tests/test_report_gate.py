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

#: The digest of the reports under ``CONFIGS``; recorded when A* began to
#: evaluate the root of ``q`` and ``z`` only when it pops it, which moved only
#: the ``stats`` of the A* reports: with ``stats`` removed, they equal the
#: older code's byte for byte, as they did when A* began to evaluate ``q``
#: and ``z`` at pop time.
REPORTS_SHA256 = "f147f8a3c9910c5e6138bb4f00f8a0a6612cca7c0b6c3fe24492458a21f334ea"

CONFIGS = [
    ["--strategy", "astar", "--heuristic", "q"],
    ["--strategy", "astar", "--heuristic", "z", "--ilp-node-budget", "10"],
    ["--strategy", "dijkstra", "--heuristic", "zero"],
    ["--strategy", "gbfs", "--heuristic", "struct"],
]

#: The digest of the reports under ``MORE_CONFIGS``, the pairs ``CONFIGS``
#: lacks; recorded before the net's firing records were built eagerly and
#: ``TargetSpec`` became a NamedTuple.
MORE_REPORTS_SHA256 = "6a5b175660a095d11dd4932ff8e80ab469c4ddd38e86fb50b1d6f423b763840a"

#: Without pruning, an unreachable target on a net with generators has an
#: infinite state space, so Dijkstra is capped: three instances end
#: EXHAUSTED, which puts that report in the digest too.
MORE_CONFIGS = [
    ["--strategy", "astar", "--heuristic", "struct"],
    ["--strategy", "dijkstra", "--heuristic", "zero", "--no-prune", "--max-expansions", "2000"],
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
