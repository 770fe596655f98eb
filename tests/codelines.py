"""Count the code lines of each module of the package.

A code line is a line that holds a token other than a comment, a
newline, an indent or a dedent; a token that spans lines, such as a
long string, holds each of them.  The lines of docstrings, the string
that opens a module, class or function, are left out.  Usage, from the
root of the repository:

    python tests/codelines.py

It prints the code lines of each module of ``src/grigcube`` and their
total, and uses the standard library alone.  It is not a test module,
so pytest does not collect it.
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = (Path(__file__).parent.parent / "src" / "grigcube").resolve()

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one source file."""
    with tokenize.open(path) as source:
        tokens = list(tokenize.generate_tokens(source.readline))
        source.seek(0)
        docstrings = _docstring_lines(ast.parse(source.read()))
    lines = set()
    for token in tokens:
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
