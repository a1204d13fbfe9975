#!/usr/bin/env python3
"""Count the lines of a source tree, the way ISSUE 13 measured them.

    python3 scripts/count_lines.py [DIR]        # default: src/repro

Prints ``files``, ``physical`` (every line) and ``code`` (lines that
hold at least one token which is neither a comment nor part of a
module/class/function docstring).  Run the same command on two commits
to compare them.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source):
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) \
                and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    sources = [path.read_text() for path in sorted(root.rglob("*.py"))]
    print("files=%d physical=%d code=%d" % (
        len(sources),
        sum(len(source.splitlines()) for source in sources),
        sum(code_lines(source) for source in sources),
    ))


if __name__ == "__main__":
    main(sys.argv)
