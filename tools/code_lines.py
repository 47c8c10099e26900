"""Count the code lines of each ``src/negspin`` module and their total.

    python tools/code_lines.py [REV]

A code line holds part of a token other than a comment: blank lines,
comment-only lines and the lines of a docstring (the string that opens a
module, class or function body) do not count; every line of any other
multi-line string does.  Without REV the files of this checkout are read,
uncommitted edits included; with a git revision, such as the parent of a
change, its committed files are, through ``git show``.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/negspin"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def sources(rev: str | None) -> dict[str, str]:
    """Module file name -> source, from this checkout or from ``rev``."""
    if rev is None:
        return {path.name: path.read_text(encoding="utf-8")
                for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    git = ["git", "-C", str(ROOT)]
    names = subprocess.run([*git, "ls-tree", "--name-only", rev, f"{PACKAGE}/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {Path(name).name: subprocess.run([*git, "show", f"{rev}:{name}"], capture_output=True,
                                            text=True, check=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    counts = {name: code_lines(source) for name, source in sources(argv[0] if argv else None).items()}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:5d}")
    print(f"{'total':<{width}} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
