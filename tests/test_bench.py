"""The benchmark's self-test, run as part of the test suite.

bench/tracing.py rebinds names in topic_compose modules (for example
`topic_compose.synth.map_chunks` or `cli.write_corpus_tsv`) to time them;
a source change that renames or stops using one of them should fail here
rather than when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    p = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, f"bench/selftest.py exited {p.returncode}:\n{p.stdout}\n{p.stderr}"
