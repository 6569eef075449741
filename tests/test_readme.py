"""The library session in the README runs against the package as it is."""

import os
import pathlib
import re
import subprocess
import sys

import permsym

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
