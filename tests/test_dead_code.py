"""Every definition in ``src/nclab`` is reachable from what runs.

The roots are ``cli.main``, the code that runs at import (module bodies,
class bodies, decorators and default values), dunders, which Python itself
calls, and methods that override a base class nclab does not define.  From
the roots the scan follows names: a reached body that names ``f`` (as a
name, an attribute or an import) reaches every top-level function or class,
and every method of a top-level class, called ``f``.  A definition that is
not reached is code that no command runs, even where dead code names it.  It
is deleted, or it moves into ``tests/`` if the tests use it.

Following by name errs towards keeping code: ``field.to_dict()`` in
``serialize`` reaches every method named ``to_dict``.
"""

import ast
import importlib
import os

import nclab

SRC = os.path.dirname(nclab.__file__)

# qualified name -> why it stays though nothing that runs reaches it
ALLOWED = {
    "linalg.rref": "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "linalg.kernel_basis": "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "linalg.solve_membership":
        "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "quantize.StarContext.bilinear_map":
        "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "rings.poly_gcd": "perfbench/tracing.py wraps it by name (ROADMAP direction 12, Half B)",
    "quantize.star_commutator":
        "the package's [a, b]_*; the star command forms it from the product it already has",
    "rings.CommPoly.evaluate": "annihilator ranks by evaluation need it (ROADMAP direction 2)",
    "diagonalize.eq1_diagonal_check": "the probe's Eq. (1) verdict will call it (ROADMAP direction 13)",
    "fields.GF": "the public GF(p) spelling of Field(p)",
    "serialize.loads": "the documented decoder of emitted reports",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _overrides_outside_nclab(module, cls_name, method):
    """Whether the method overrides one of a base class that nclab does not define."""
    cls = getattr(importlib.import_module(f"nclab.{module}"), cls_name)
    return any(
        method in vars(base) for base in cls.__mro__[1:] if not base.__module__.startswith("nclab")
    )


def _names(nodes):
    """The names, attributes and imported names that the given nodes mention."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _import_time(tree):
    """Every node of a module that runs at import: all but the bodies of functions."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, FUNCTIONS):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _scan():
    """(definitions, root names): qualified name -> (short name, names its body mentions)."""
    definitions, roots = {}, set()
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        module = filename[:-3]
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        roots |= _names(_import_time(tree))
        for node in tree.body:
            if isinstance(node, FUNCTIONS) and _dunder(node.name):
                roots |= _names(ast.walk(node))  # a module __getattr__
            elif isinstance(node, FUNCTIONS):
                definitions[f"{module}.{node.name}"] = (node.name, _names(ast.walk(node)))
            elif isinstance(node, ast.ClassDef):
                definitions[f"{module}.{node.name}"] = (node.name, set())  # its body runs at import
                for item in node.body:
                    if not isinstance(item, FUNCTIONS):
                        continue
                    if _dunder(item.name) or _overrides_outside_nclab(module, node.name, item.name):
                        roots |= _names(ast.walk(item))
                    else:
                        qualified = f"{module}.{node.name}.{item.name}"
                        definitions[qualified] = (item.name, _names(ast.walk(item)))
    roots |= definitions["cli.main"][1]
    return definitions, roots


def _reached(definitions, names):
    """The definitions reached from ``names`` by following the names each reached body mentions."""
    names, reached = set(names), set()
    while True:
        new = {q for q, (name, _) in definitions.items() if name in names and q not in reached}
        if not new:
            return reached
        reached |= new
        for q in new:
            names |= definitions[q][1]


def test_every_definition_is_reachable_from_the_roots_or_allowed():
    definitions, roots = _scan()
    for qualified in ALLOWED:
        roots |= definitions[qualified][1]
    unreached = set(definitions) - _reached(definitions, roots) - set(ALLOWED) - {"cli.main"}
    assert sorted(unreached) == []


def test_no_allowed_definition_is_reachable_without_its_entry():
    definitions, roots = _scan()
    reached = _reached(definitions, roots)
    assert sorted(q for q in ALLOWED if q in reached) == []
