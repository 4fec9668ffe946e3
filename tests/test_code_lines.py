"""tools/code_lines.py, which counts the physical and code lines of src/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

MODULE = '''"""Module docstring
over two lines."""

# a comment
import os


def join(x):
    """Function docstring."""
    # an indented comment
    y = os.path.join(
        x,
        "a",
    )

    return y


TEXT = """a string assigned
to a name"""
'''


def run(*args):
    p = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    return [line.split("\t") for line in p.stdout.splitlines()]


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    # code: the import, the def, the four lines of the call, the return and
    # both lines of the assigned string
    assert run(path) == [["mod.py", "20", "9"], ["total", "20", "9"]]


def test_default_counts_every_package_module():
    rows = run()
    package = sorted(p.name for p in (ROOT / "src" / "topic_compose").glob("*.py"))
    assert [row[0] for row in rows] == package + ["total"]
    for column in (1, 2):
        assert int(rows[-1][column]) == sum(int(row[column]) for row in rows[:-1])
    assert all(0 < int(row[2]) <= int(row[1]) for row in rows)
