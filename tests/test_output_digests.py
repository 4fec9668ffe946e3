"""tools/output_digests.py, which compares the outputs of two source trees."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BATCH_OUTPUTS = ("spi.W", "tli.W", "padd.W", "padd.diagnostics")
SLOT_OUTPUTS = {
    "padd-k10": BATCH_OUTPUTS,
    "tli-k50": BATCH_OUTPUTS,
    "cli-pipeline": ("corpus.tsv", "Wstar.tsv", "Astar.tsv", "W.tsv", "report.tsv",
                     "report.per_doc.tsv"),
}
# each workload's left inverse first (slot "-"), then slot 0's outputs
EXPECTED = [
    row
    for workload, outputs in SLOT_OUTPUTS.items()
    for row in [(workload, "-", "tli.Bdagger")] + [(workload, "0", o) for o in outputs]
]


def test_one_slot_digests_every_output_of_this_checkout():
    p = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"),
         "--slots", "0", "--threads", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    rows = [line.split("\t") for line in p.stdout.splitlines()]
    assert [tuple(row[:3]) for row in rows] == EXPECTED
    for row in rows:
        assert len(row) == 4
        assert re.fullmatch("[0-9a-f]{16}", row[3]), row
    assert f"program: {SRC / 'topic_compose'}" in p.stderr.splitlines()
