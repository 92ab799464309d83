"""A byte-identity gate on the JSON reports of ``ffreach solve``.

Fifty small random instances are solved under four configs through
``cli.main``, so each report is built exactly as ``cmd_solve`` builds it,
and one SHA-256 over all 200 reports is compared with a recorded constant.
A change meant to keep every report (a speedup, a refactor) must leave the
digest alone.  A change that alters reports on purpose updates
``REPORTS_SHA256`` and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from oracles import random_bounded_instance

from ffreach import serialize_instance
from ffreach.cli import main

#: The digest of the reports below; recorded before the leaner token game
#: and node table, whose reports must equal the older code's byte for byte.
REPORTS_SHA256 = "69a671a7903a28306a8ba51034ac87bc497be9a11daf86c5d30dea987f8ec379"

CONFIGS = [
    ["--strategy", "astar", "--heuristic", "q"],
    ["--strategy", "astar", "--heuristic", "z", "--ilp-node-budget", "10"],
    ["--strategy", "dijkstra", "--heuristic", "zero"],
    ["--strategy", "gbfs", "--heuristic", "struct"],
]


def test_reports_match_the_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report names the file; keep the name relative
    digest = hashlib.sha256()
    verdicts = set()
    for seed in range(50):
        rng = random.Random(seed)
        inst = random_bounded_instance(rng, rational_weights=seed % 2 == 0, upward=seed % 3 == 0)
        name = f"i{seed:02d}.fnet"
        (tmp_path / name).write_text(serialize_instance(inst))
        for config in CONFIGS:
            code = main(["solve", name, *config, "--format", "json"])
            out, err = capsys.readouterr()
            assert code in (0, 1) and not err, (name, config, err)
            verdicts.add(code)
            digest.update(out.encode())
    assert verdicts == {0, 1}  # both verdicts are covered
    assert digest.hexdigest() == REPORTS_SHA256
