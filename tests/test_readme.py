"""The library session, the command lines and the names that the README
cites hold for the package as it is."""

import functools
import importlib
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


def test_readme_names_what_the_package_has():
    """The module table lists each package module once, every backticked
    ``module.name`` resolves on that module, and the "Command line" section
    names every option of every subcommand."""
    text = README.read_text()
    package = pathlib.Path(permsym.__file__).resolve().parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    table = re.findall(r"^\| `permsym\.(\w+)`", text, re.MULTILINE)
    assert sorted(table) == modules
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        cited = re.match(r"(\w+)((?:\.\w+)+)", span)
        if cited and cited[1] in modules:
            module = importlib.import_module(f"permsym.{cited[1]}")
            functools.reduce(getattr, cited[2][1:].split("."), module)
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = next(a for a in cli.build_parser()._actions if isinstance(a.choices, dict))
    for name, sub in commands.choices.items():
        for option in (o for a in sub._actions if a.dest != "help" for o in a.option_strings):
            assert re.search(rf"(?<![\w-]){option}(?![\w-])", section), (name, option)
