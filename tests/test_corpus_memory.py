"""tools/corpus_memory.py, and the peak memory of the corpus calls it
measures on a cli-pipeline corpus."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# bytes per nonzero entry; the Corpus each of these calls returns holds 16
PEAK_LIMITS = {"synthesize": 42, "read_corpus_tsv": 52, "Corpus": 21, "Corpus shuffled": 56}
# the writer returns nothing and holds one block of about WRITE_BLOCK values
WRITE_LIMIT = 6


def test_corpus_calls_peak_within_limits():
    p = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "corpus_memory.py")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    rows = dict(line.split("\t") for line in p.stdout.splitlines())
    assert list(rows) == ["nonzeros", "synthesize", "write_corpus_tsv", "read_corpus_tsv",
                          "Corpus", "Corpus shuffled"]
    assert int(rows["nonzeros"]) > 100_000
    for name, limit in PEAK_LIMITS.items():
        assert 16 <= float(rows[name]) <= limit, (name, rows[name])
    assert float(rows["write_corpus_tsv"]) <= WRITE_LIMIT, rows["write_corpus_tsv"]
