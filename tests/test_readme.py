"""The README's library example and CLI commands run against the current code."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np

from densityball.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {})


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, flags=re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("densityball ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    points = np.random.default_rng(7).beta(2.0, 5.0, 200)
    (tmp_path / "sample.txt").write_text("".join(f"{float(p)!r}\n" for p in points))
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0, argv
