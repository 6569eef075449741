"""The library session and the command lines in the README run against
the package as it is."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import permsym
from permsym import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_session_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python session"
    src = str(pathlib.Path(permsym.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for code in blocks:
        run = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_readme_command_lines_print_strict_json(capsys):
    """Each ``permsym`` line of the "Command line" block exits 0 and prints
    JSON that RFC 8259 accepts (no NaN or Infinity)."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("permsym ")]
    assert lines, "README has no command lines"
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
