"""Code lines per Python file: lines that hold code, not counting blank
lines, comment-only lines or docstrings.

Usage, from the root of a checkout:

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` files; the default
is ``src`` and ``tests``.  A line counts when a token other than a comment
starts or continues on it (a multi-line string literal counts every line it
spans), unless that token belongs to a docstring: the string expression
that opens a module, class or function body.  It prints one line per file,
then one total per PATH.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    for root in [Path(p) for p in (argv or ["src", "tests"])]:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        total = 0
        for path in files:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  total {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
