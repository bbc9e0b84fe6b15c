"""Count the code lines of the ``matchinv`` package.

A code line holds at least one token that is not a comment and not part
of a docstring (the first statement of a module, class or function, when
it is a string).  Blank lines, comment lines and docstring lines do not
count; a line of a multi-line token, such as a bracketed expression or a
string that is not a docstring, does.

    python3 tools/count_code_lines.py [PACKAGE_DIR]

prints one line per module and the total; PACKAGE_DIR defaults to
``src/matchinv`` next to this script.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> None:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "matchinv"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main(sys.argv)
