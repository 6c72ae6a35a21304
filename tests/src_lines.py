"""Print the physical, code and executable lines of each `src/neutrocalc` module.

    python tests/src_lines.py

Run it from anywhere; it reads the package's files and imports nothing
of it.  The three counts per module, and their totals, are:

- physical: every line of the file;
- code: a line that holds a token other than a comment, and that lies in
  no module, class or function docstring;
- executable: a line of the module's code objects, as
  `line_recorder.executable_lines` counts it.

Only the stdlib is used.  pytest does not collect this file, whose name
does not start with `test_`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

from line_recorder import ROOT, SRC, executable_lines

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        scoped = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scoped) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> set[int]:
    """The lines of text that hold a non-comment token outside a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(ast.parse(text))


def counts(path: Path) -> tuple[int, int, int]:
    text = path.read_text(encoding="utf-8")
    return len(text.splitlines()), len(code_lines(text)), len(executable_lines(path))


def main() -> int:
    rows = [(str(p.relative_to(ROOT)), *counts(p)) for p in sorted(SRC.rglob("*.py"))]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical      code  executable")
    for name, physical, code, executable in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>8}  {executable:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
