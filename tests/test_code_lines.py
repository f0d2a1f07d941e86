"""``tools/code_lines.py`` counts what its docstring says it counts."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts


class A:
    """Class docstring."""

    # a comment line
    x = """a string that is not a docstring,
    on two lines"""

    def f(self):
        """Function docstring."""
        return (1,

                2)
'''


def test_counts_code_lines_only():
    # import, class, x (two lines), def and the return's two lines with code
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     7  a.py", "     1  b.py", "     8  total", ""]


def test_prints_counts_against_a_git_revision(tmp_path, capsys):
    package = tmp_path / "src" / "alarm_pipeline"
    package.mkdir(parents=True)

    def commit(message):
        subprocess.run(["git", "-C", str(tmp_path), "add", "-A"], check=True)
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        "commit", "-q", "-m", message], check=True)

    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n")
    commit("first")
    (package / "a.py").write_text(SOURCE + "y = 2\n")
    (package / "b.py").unlink()
    (package / "c.py").write_text("z = 3\n\n# done\n")
    commit("second")
    (package / "c.py").write_text("z = 3\nz += 1\n")  # not committed: counted as it is now
    assert code_lines.main([str(package), "--against", "HEAD^"]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "before   after   delta",
        "     7       8      +1  a.py",
        "     1       0      -1  b.py",
        "     0       2      +2  c.py",
        "     8      10      +2  total",
        "",
    ]
    assert code_lines.main([str(package), "--against", "no-such-rev"]) != 0
