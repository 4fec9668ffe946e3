"""Print the physical and code lines of each module of the package.

    python3 tools/code_lines.py [FILE ...]

With no arguments it reads src/topic_compose/*.py. It prints one line per
file, its name, physical lines and code lines separated by tabs, and a
`total` line. A code line holds at least one token other than a comment, a
newline, indentation, or a string that forms a statement on its own (a
docstring); a token that spans several lines, such as a triple-quoted string
assigned to a name, makes each of them a code line.
"""

import argparse
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topic_compose"
LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
          tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count_lines(path):
    """(physical lines, code lines) of the Python source file at `path`."""
    with open(path, "rb") as fh:
        physical = fh.read().count(b"\n")
        fh.seek(0)
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING and tokens[i - 1].type in STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        code.update(range(tok.start[0], tok.end[0] + 1))
    return physical, len(code)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", type=Path)
    args = ap.parse_args(argv)
    files = args.files or sorted(PACKAGE.glob("*.py"))
    totals = [0, 0]
    for path in files:
        counts = count_lines(path)
        totals = [a + b for a, b in zip(totals, counts)]
        print(path.name, *counts, sep="\t")
    print("total", *totals, sep="\t")


if __name__ == "__main__":
    sys.exit(main())
