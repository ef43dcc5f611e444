"""Source-line mutants: run the CLI on a copy of ``nclab`` with one line replaced.

A mutant is a module file, one exact source line of it (indentation
included) and its replacement.  The package is copied, the line must occur
exactly once in the copy, and ``python -m nclab`` then runs against the copy
in a fresh process, so the mutant reaches code that monkeypatching cannot,
such as a line inside a loop.
"""

import os
import shutil
import subprocess
import sys

import pytest

import nclab

PACKAGE = os.path.dirname(os.path.abspath(nclab.__file__))


def run_mutant(tmp_path, module, line, replacement, argv, optimize=False):
    """The completed ``python [-O] -m nclab argv`` run on the mutated copy."""
    copy = tmp_path / "nclab"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / module
    lines = path.read_text(encoding="utf-8").split("\n")
    hits = [i for i, text in enumerate(lines) if text == line]
    if len(hits) != 1:
        pytest.fail(f"{module}: {len(hits)} lines read {line!r}, the mutant needs exactly 1")
    lines[hits[0]] = replacement
    path.write_text("\n".join(lines), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "nclab", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
