"""Tests for tools/count_code_lines.py, the code-line count quoted for the package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
def f():
    """Function docstring."""
    print(1,
          2,
          3)
    "a string statement that is not a docstring"
'''


def test_docstrings_comments_and_blanks_do_not_count():
    # the def line, the three lines of the call and the string
    assert count_code_lines.code_lines(SOURCE) == 5
