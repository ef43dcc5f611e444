"""What ``import nclab.cli`` loads: no code generation, every traced module.

Every ``nclab`` command is a fresh process, so what the import loads is paid
on every run.  The benchmark's tracer (``perfbench/tracing.py``) wraps
functions in the ``nclab`` modules right after ``import nclab.cli``, so each
of them must already be loaded by then.
"""

import importlib.util
import json
import os
import subprocess
import sys

import nclab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(nclab.__file__))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules_after_import():
    # -S: no site hooks, so only what nclab itself imports is loaded
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import nclab.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_generates_no_code_and_loads_every_traced_module():
    loaded = _modules_after_import()
    # dataclasses generates methods with exec and imports inspect (with ast, dis, tokenize)
    for heavy in ("dataclasses", "inspect", "ast", "dis", "tokenize"):
        assert heavy not in loaded
    tracing = _tracing()
    traced = {module for module, _, _ in tracing.SPANS + tracing.COUNTS}
    assert len(traced) == 10
    assert {f"nclab.{module}" for module in traced} <= loaded
