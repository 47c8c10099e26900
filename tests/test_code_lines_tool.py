"""The counting rule of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines_tool", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_tool)

SOURCE = '''"""A module docstring
over two lines."""

# a comment line

import math  # a trailing comment


class Shape:
    """A class docstring."""

    def area(self):
        """A function
        docstring."""
        text = """a multi-line
string that is no docstring"""
        return (math.pi
                * len(text))
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines_tool.code_lines(SOURCE) == 7


def test_counts_every_module_of_the_checkout():
    counts = {name: code_lines_tool.code_lines(source)
              for name, source in code_lines_tool.sources(None).items()}
    assert "__init__.py" in counts and "cli.py" in counts
    assert all(count > 0 for count in counts.values())
