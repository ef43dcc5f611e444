"""What ``import nclab.cli`` loads: no code generation, every traced module.

Every ``nclab`` command is a fresh process, so what the import loads is paid
on every run.  The benchmark's tracer (``perfbench/tracing.py``) wraps
functions in the ``nclab`` modules right after ``import nclab.cli``, so each
of them must already be loaded by then, and each traced name must exist.
A traced job, run by the benchmark's own ``perfbench/job.py``, writes the
same report bytes as an untraced one.
The submodules are registered lazily: each is in ``sys.modules`` at once but
executes only on first use, so a command compiles only the modules it runs.
Every command line, help and usage errors included, is read from the flag
table, ``cli.COMMANDS``.  No command imports the ``json`` package (reports
are rendered without it), and only ``diag`` imports ``random``.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import nclab
from nclab import cli, serialize

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


@pytest.mark.parametrize(
    "argv",
    [
        ["bergman-pipeline", "--f", "x1^2+x2", "--g", "(x1^2+x2)^2+3", "--nmax", "2",
         "--dmax", "2", "--order", "1"],
        ["probe", "--n", "3", "--dmax", "3", "--order", "2"],
    ],
    ids=["bergman-pipeline", "probe"],
)
def test_a_traced_job_writes_the_untraced_report(argv, tmp_path):
    # the tracer wraps matrix products in place and hashes find_annihilator's arguments
    job = os.path.join(ROOT, "perfbench", "job.py")
    reports = []
    for trace in ("0", "1"):
        meta = tmp_path / f"meta{trace}"
        proc = subprocess.run([sys.executable, job, str(meta), "0", trace, "--", *argv],
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(meta.read_text())["raised"] is None
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    names = {span[1] for span in _tracing().load(f"{tmp_path / 'meta1'}.spans")["spans"]}
    assert {"genmat.GenericMatrix.mul", "genmat.find_annihilator", "quantize.matrix_star"} <= names


# what every command executes: the CLI, its errors, the field tag and the report codec
_BASE = {"cli", "errors", "fields", "records", "serialize"}
_PROBE = {"centralizer", "genmat", "linalg", "quantize", "rings"}


_STAR = {"freealg", "genmat", "quantize", "rings"}


@pytest.mark.parametrize(
    "argv, executed, status",
    [
        (
            ["centralizer", "--f", "x2*x1*x2", "--d", "5"],
            _BASE | {"centralizer", "freealg", "linalg"},
            0,
        ),
        (["eval", "--f", "x1*x2 - x2*x1"], _BASE | {"freealg"}, 0),
        # no free algebra, star product, elimination or centralizer
        (["diag", "--n", "2", "--order", "2"], _BASE | {"diagonalize", "genmat", "rings"}, 0),
        # the diagonal pair is built without parsing a free expression
        (["probe", "--n", "2", "--dmax", "2", "--order", "1"], _BASE | _PROBE, 0),
        (["al", "--n", "2"], _BASE | {"genmat", "rings"}, 0),
        (
            ["bergman-pipeline", "--f", "x1", "--g", "x1*x1", "--nmax", "1", "--dmax", "2",
             "--order", "1"],
            _BASE | _PROBE | {"freealg"},
            0,
        ),
        (["pi", "--f", "x1*x2", "--n", "2"], _BASE | {"freealg", "genmat", "rings"}, 0),
        (["commute", "--f", "x1", "--g", "x1^2"], _BASE | {"freealg"}, 0),
        (
            ["annihilator", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "2"],
            _BASE | {"freealg", "genmat", "linalg", "rings"},
            0,
        ),
        (["star", "--a", "x1", "--b", "x2"], _BASE | _STAR, 0),
        (["poisson", "--a", "x1", "--b", "x2"], _BASE | _STAR, 0),
        # help and usage errors come from the flag table alone
        (["--help"], _BASE, 0),
        (["centralizer", "--help"], _BASE, 0),
        (["eval", "--f", "x1", "--bogus"], _BASE, 1),
    ],
    ids=["centralizer", "eval", "diag", "probe", "al", "bergman-pipeline", "pi", "commute",
         "annihilator", "star", "poisson", "help", "centralizer-help", "usage-error"],
)
def test_a_command_executes_only_the_modules_it_uses(argv, executed, status):
    # a lazy module is a ModuleType subclass until its first attribute access
    code = (
        "import contextlib, io, sys, types; sys.path.insert(0, sys.argv[1])\n"
        "import nclab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = nclab.cli.main(sys.argv[2:])\n"
        "ran = [k for k, m in sys.modules.items() if k.startswith('nclab.')"
        " and type(m) is types.ModuleType]\n"
        "parsers = [k for k in ('argparse', 'gettext', 'locale') if k in sys.modules]\n"
        "stdlib = [k for k in ('json', 'json.decoder', 'random') if k in sys.modules]\n"
        "import json\n"
        "print(json.dumps([status, sorted(ran), parsers, stdlib]))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC, *argv, "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ran_status, ran, parsers, stdlib = json.loads(proc.stdout)
    assert ran_status == status
    assert ran == sorted(f"nclab.{module}" for module in executed)
    # every command line is read from the flag table, without argparse
    assert parsers == []
    # rendering needs no JSON parser, and only diag draws random numbers
    assert stdlib == (["random"] if argv[0] == "diag" else [])


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("")
@example('"\\\x00\u00e9\U0001f600\ud800')
def test_the_renderer_quotes_strings_as_json_does(text):
    # serialize takes the C quoting function from _json, so that a run never imports json
    assert serialize._quote(text) == json.encoder.encode_basestring_ascii(text)


# tokens that are not a flag and its value: help, stray words, '--' and unknown flags
_TRAPS = ["--", "-h", "--help", "", "-5", "--bogus", "x1"]

# a flag's values: (well formed, odd), where an odd value parses only after '=' or never
_VALUES = {
    str: (st.sampled_from(["x1", "x2*x1*x2", "x1^2+3", "x3", "1/0", ""]),
          st.sampled_from(["-x1", "--", "-h"])),
    int: (st.one_of(st.integers(-1, 2).map(str), st.sampled_from([" 1 ", "0_2"])),
          st.sampled_from(["-7", "", "--", "x", "2.0"])),
    "field": (st.sampled_from(["q", "fp:7", "fp:0", "fp:1", "fp:-7", "fp:", "zz"]),
              st.sampled_from(["--", "-q"])),
    "out": (st.just(os.devnull),) * 2,  # never a file that the run could create
    "poisson": (st.sampled_from(["pairing", "no-such-tensor.json", ""]), st.just("--")),
}


@st.composite
def _command_lines(draw):
    """A command line of declared flags in any order, with odd values or also with traps."""
    mode = draw(st.sampled_from(["clean", "values", "traps"]))
    command = draw(st.sampled_from([*cli.COMMANDS, *(["bogus", "-h"] if mode == "traps" else [])]))
    flags = (cli.COMMANDS[command][1] if command in cli.COMMANDS else ()) + cli._COMMON
    argv = [command]
    for name, kind, *_ in draw(st.permutations(flags)):
        if mode == "traps" and draw(st.integers(0, 3)) == 0:
            argv.append(draw(st.sampled_from(_TRAPS)))
        if draw(st.integers(0, 3)) == 0:
            continue  # a flag left out: its default, or a missing required flag
        full = mode != "traps" or draw(st.booleans())
        spelling = "--" + (name if full else name[: draw(st.integers(1, len(name)))])
        if kind is bool:
            odd = mode != "clean" and draw(st.integers(0, 3)) == 0
            argv.append(spelling + "=1" if odd else spelling)
            continue
        good, odd = _VALUES.get(name, _VALUES[kind])
        value = draw(odd if mode != "clean" and draw(st.integers(0, 3)) == 0 else good)
        argv += draw(st.sampled_from([[spelling, value], [f"{spelling}={value}"]]))
    return argv


@settings(max_examples=250, deadline=None)
@given(_command_lines())
# '--flag=--' is the value '--', which used to reach the commands as an empty list
@example(["eval", "--f=--"])
@example(["pi", "--f", "x1", "--n=--"])
@example(["diag", "--seed=--", "--n", "-1"])
def test_every_command_line_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""


def _module_level_imports(tree):
    """The modules that the import statements outside every function body name."""
    names, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs only when called
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_only_fields_imports_fractions_at_module_level():
    # raw values are built, reduced and inverted by fields alone; the expression
    # parser reads a fraction literal through Field.scalar
    package = os.path.dirname(nclab.__file__)
    importers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                if "fractions" in _module_level_imports(ast.parse(fh.read())):
                    importers.add(name)
    assert importers == {"fields.py"}


# the names the package re-exports, by defining module
PUBLIC = {
    "fields": "GF QQ Field Scalar",
    "freealg": "FreePoly commutator parse_free",
    "genmat": "BivariatePoly FormalSeries GenericMatrix annihilator_stability find_annihilator"
    " make_generic pi_reduce standard_identity",
    "quantize": "PoissonTensor StarContext StarSeries matrix_star poisson_bracket quantize_lift"
    " star_generic star_mul verify_correspondence",
    "rings": "CommPoly RationalFunction Variable",
}


def test_every_public_name_resolves_to_its_definition():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"nclab.{module}")
        for name in names.split():
            assert getattr(nclab, name) is getattr(defining, name), name
    from nclab import GenericMatrix

    assert GenericMatrix is sys.modules["nclab.genmat"].GenericMatrix


def test_an_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        nclab.NoSuchName
    with pytest.raises(ImportError):
        from nclab import NoSuchName  # noqa: F401
