"""What ``import nclab.cli`` loads: no code generation, every traced module.

Every ``nclab`` command is a fresh process, so what the import loads is paid
on every run.  The benchmark's tracer (``perfbench/tracing.py``) wraps
functions in the ``nclab`` modules right after ``import nclab.cli``, so each
of them must already be loaded by then, and each traced name must exist.
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


def _after_import(targets):
    """Modules loaded by ``import nclab.cli`` and the (module, path) targets that do not resolve."""
    # -S: no site hooks, so only what nclab itself imports is loaded
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import nclab.cli\n"
        "def resolve(module, path):\n"
        "    owner = sys.modules.get('nclab.' + module)\n"
        "    for part in path.split('.'):\n"
        "        owner = getattr(owner, part, None)\n"
        "    return owner\n"
        "missing = [t for t in json.loads(sys.argv[2]) if resolve(*t) is None]\n"
        "print(json.dumps([sorted(sys.modules), missing]))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC, json.dumps(targets)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, missing = json.loads(proc.stdout)
    return set(loaded), missing


def test_cli_import_generates_no_code_and_loads_every_traced_module():
    tracing = _tracing()
    targets = [[module, path] for module, path, _ in tracing.SPANS + tracing.COUNTS]
    loaded, missing = _after_import(targets)
    # dataclasses generates methods with exec and imports inspect (with ast, dis, tokenize)
    for heavy in ("dataclasses", "inspect", "ast", "dis", "tokenize"):
        assert heavy not in loaded
    traced = {module for module, _ in targets}
    assert len(traced) == 10
    assert {f"nclab.{module}" for module in traced} <= loaded
    # a traced name that is renamed or deleted would silently drop out of --trace 1
    assert missing == []
