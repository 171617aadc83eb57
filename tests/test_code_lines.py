"""``tools/code_lines.py``: the code-line count the change notes quote."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''\
"""Module docstring,
two lines."""

# a comment
X = """not a docstring,
three lines
"""


class A:
    """Class docstring."""

    def f(self, y):  # trailing comment
        """Function
        docstring."""
        return (y +
                1)
'''


def test_counts_code_lines_only():
    # X's three lines, class A, def f and the two lines of the return
    assert code_lines.code_lines(SAMPLE.encode()) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["7", "2", "9"]


def test_reads_files_and_trees_at_a_git_revision(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not counted\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    git("commit", "-q", "-am", "second")
    monkeypatch.chdir(tmp_path)
    assert code_lines.main(["HEAD~1:pkg", "HEAD~1:pkg/b.py", "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["7", "HEAD~1:pkg/a.py"],
        ["2", "HEAD~1:pkg/b.py"],
        ["9", "total", "HEAD~1:pkg"],
        ["2", "HEAD~1:pkg/b.py"],
        ["2", "total", "HEAD~1:pkg/b.py"],
        ["7", "pkg/a.py"],
        ["1", "pkg/b.py"],
        ["8", "total", "pkg"],
    ]
