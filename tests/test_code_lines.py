"""``tools/code_lines.py``: the code-line count the change notes quote."""

import importlib.util
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


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # X's three lines, class A, def f and the two lines of the return
    assert code_lines.code_lines(path) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["7", "2", "9"]
