"""Every definition in ``src/nclab`` is named somewhere else in ``src/``.

A top-level function or class, or a method of any top-level class, that
nothing else in the package names (as a name, an attribute or an import) is
code that no command runs.  It is deleted, or it moves into ``tests/`` if
the tests use it.  Private ``_name`` definitions count too, so a helper
orphaned by a deletion is caught; dunders, which Python itself calls, are
left out.  The scan is by name, so a method counts as
named when any attribute of that name appears, which keeps it cheap and
errs towards keeping code.  So it misses a method that shares its name with
one in use: ``field.to_dict()`` in ``serialize`` counts as a use of every
method named ``to_dict``.
"""

import ast
import importlib
import os

import nclab

SRC = os.path.dirname(nclab.__file__)

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "linalg.rref": "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "linalg.kernel_basis": "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "linalg.solve_membership":
        "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "quantize.StarContext.bilinear_map":
        "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "rings.CommPoly.evaluate": "annihilator ranks by evaluation need it (ROADMAP direction 2)",
    "diagonalize.eq1_diagonal_check": "the probe's Eq. (1) verdict will call it (ROADMAP direction 13)",
    "fields.GF": "the public GF(p) spelling of Field(p)",
    "serialize.loads": "the documented decoder of emitted reports",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _overrides_outside_nclab(module, cls_name, method):
    """Whether the method overrides one of a base class that nclab does not define."""
    cls = getattr(importlib.import_module(f"nclab.{module}"), cls_name)
    return any(
        method in vars(base) for base in cls.__mro__[1:] if not base.__module__.startswith("nclab")
    )


def _unnamed_definitions():
    trees = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
                trees[filename[:-3]] = ast.parse(fh.read())
    definitions = []  # (qualified name, short name, defining node)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _dunder(node.name):
                definitions.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not _dunder(item.name)
                        and not _overrides_outside_nclab(module, node.name, item.name)
                    ):
                        definitions.append((f"{module}.{node.name}.{item.name}", item.name, item))
    references = {}  # name -> ids of the nodes that name it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            references.setdefault(name, set()).add(id(node))
    unnamed = {}  # qualified name -> short name
    for qualified, name, node in definitions:
        # a definition that names only itself (recursion) is still unnamed
        inside = {id(n) for n in ast.walk(node)}
        if not references.get(name, set()) - inside:
            unnamed[qualified] = name
    return unnamed


def test_every_public_definition_is_named_elsewhere_in_src():
    public = {q for q, name in _unnamed_definitions().items() if not name.startswith("_")}
    assert public == set(ALLOWED)


def test_every_private_definition_is_named_elsewhere_in_src():
    assert [q for q, name in _unnamed_definitions().items() if name.startswith("_")] == []

