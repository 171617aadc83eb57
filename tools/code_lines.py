"""Count the code lines of Python files: lines holding a token that is not
a comment, a blank line or part of a module, class or function docstring.

Usage: ``python tools/code_lines.py PATH...``, where each PATH is a ``.py``
file or a directory searched for them, or ``REV:PATH``, that file or tree
at git revision REV of the repository around the current directory, PATH
taken from its top as ``git show`` takes it.  Prints each file's count and
the total of each PATH, so ``python tools/code_lines.py HEAD~1:src/bridgelen
src/bridgelen`` gives the counts before and after the last commit.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """Number of code lines in the Python source ``source``."""
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    lines = {
        row
        for tok in tokens
        if tok.type not in _LAYOUT
        for row in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - _docstring_lines(ast.parse(source)))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _sources(arg: str) -> list[tuple[str, bytes]]:
    """(name, source) of each ``.py`` file that ``arg`` names: a file or a
    directory on disk, or ``REV:PATH`` in git."""
    rev, colon, rel = arg.partition(":")
    if colon and not Path(arg).exists():
        listed = _git("ls-tree", "-r", "--full-tree", "--name-only", rev, "--", rel)
        names = [name for name in listed.decode().splitlines() if name.endswith(".py")]
        if not names:
            raise SystemExit(f"code_lines: no Python file at {arg}")
        return [(f"{rev}:{name}", _git("show", f"{rev}:{name}")) for name in sorted(names)]
    path = Path(arg)
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return [(str(file), file.read_bytes()) for file in files]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for arg in argv:
        total = 0
        for name, source in _sources(arg):
            count = code_lines(source)
            total += count
            print(f"{count:6d}  {name}")
        print(f"{total:6d}  total {arg}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
