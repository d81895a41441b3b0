#!/usr/bin/env python3
"""Print the physical and the code-only line count of each Python file.

Code-only lines hold part of a token of code: the count is read from
the token stream and leaves out comments, blank lines and string
statements, such as docstrings (a logical line that is nothing but
string literals). A line inside a string literal that is part of code
counts, as does a line that ends in a comment after code.

    python3 scripts/src_lines.py              # src/cat0
    python3 scripts/src_lines.py src/cat0/dual.py tests
"""

import argparse
import io
import os
import sys
import tokenize
from typing import Iterator, List, Sequence, Tuple

# tokens that are layout, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold part of a token of code."""
    rows = set()
    statement: List[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows)


def counts(path: str) -> Tuple[int, int]:
    """(physical, code-only) lines of the file at path."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return len(source.splitlines()), code_lines(source)


def python_files(paths: Sequence[str]) -> Iterator[str]:
    """Each path that is a file, and the .py files under each directory, sorted."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/cat0"],
                        help="files and directories (default: src/cat0)")
    args = parser.parse_args(argv)
    total = [0, 0]
    print(f"{'physical':>8} {'code':>8}  file")
    for path in python_files(args.paths):
        physical, code = counts(path)
        total[0] += physical
        total[1] += code
        print(f"{physical:>8} {code:>8}  {path}")
    print(f"{total[0]:>8} {total[1]:>8}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
