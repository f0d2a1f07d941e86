"""The README's Python examples and Quick start run against the package as it is."""

import re
import shlex
from pathlib import Path

from alarm_pipeline.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def test_readme_quick_start_prints_its_table(tmp_path, monkeypatch, capsys):
    commands, table = re.search(r"^## Quick start\n.*?^```\n(.*?)^```\n.*?^```\n(.*?)^```",
                                README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL).groups()
    argvs = [shlex.split(line)[1:] for line in commands.replace("\\\n", " ").splitlines()
             if line.startswith("alarm-pipeline ")]
    assert [argv[0] for argv in argvs] == ["synth", "evaluate", "sweep", "tune"]
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[0] == "evaluate":
            assert capsys.readouterr().out == table
