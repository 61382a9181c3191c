"""Ratchet on the library's code size.

Counted are the code lines of every module under `src/circleqm`: lines
that hold a token other than a comment, leaving out blank lines and the
docstrings of modules, classes and functions.  The total must equal the
pinned count, so a change that deletes code lowers the pin in the same diff
and one that adds code raises it there: growth is seen where it is made,
and a deletion cannot leave room for later growth unseen.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circleqm"
CODE_LINES = 2177

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of `source` that carry code, a multi-line token counting on
    each of its lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def test_counts_code_only():
    source = ('"""Module docstring."""\n\n'
              "# a comment\n"
              "def f(x):\n"
              '    """Doc\n    string."""\n'
              "    y = (x +  # trailing comment\n"
              "         1)\n"
              '    return """a\n    b"""\n')
    assert code_lines(source) == 5


def test_code_lines_match_the_pin():
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total == CODE_LINES, (f"{total} code lines, pinned {CODE_LINES}: "
                                 f"{counts}")
