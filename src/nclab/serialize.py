"""JSON encoding and decoding of reports and algebra values.

The whole report format is the table below: every encoded object is a plain
dict with a ``"type"`` tag, and each tag appears in exactly one row.  A row
names its class as ``"module.Class"`` (resolved when a value is decoded, so
that a command loads only the modules of the values it emits).  A value
type's row names its body encoder and its decoder; a report record's row
names only the JSON keys that differ from its field names and the keys that
are not fields, and the record is coded from its fields.  Lists and
tuples encode as JSON lists.  ``decode`` inverts ``encode`` given the ground
field, and every report type round-trips to an equal value.  Rendering a
report always uses ``dumps`` so that identical inputs give byte-identical
JSON documents.
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii as _quote  # json.encoder's, without loading json

from . import __version__, diagonalize, freealg, genmat, rings
from .errors import BadReport, UnsupportedDenominator
from .fields import Field
from .records import Record


# ---------------------------------------------------------------------------
# CLI-level composite reports
# ---------------------------------------------------------------------------


class EvalReport(Record):
    __slots__ = ("poly", "degree_text", "term_count")


class CommuteReport(Record):
    __slots__ = ("f", "g", "commutator_value", "commute")


class PiReport(Record):
    __slots__ = ("f", "n", "image")


class ALReport(Record):
    __slots__ = ("n", "arity", "standard_vanishes", "sharpness_checked", "sharpness_nonzero")


class StarReport(Record):
    __slots__ = ("product", "commutator_series", "correspondence")


class PoissonReport(Record):
    __slots__ = ("bracket",)


# ---------------------------------------------------------------------------
# The format
# ---------------------------------------------------------------------------


def _commpoly_body(p: rings.CommPoly):
    terms = [[[[str(v), e] for v, e in m], str(c)] for m, c in p.sorted_terms()]
    return {"text": str(p), "terms": terms}


def _commpoly_from(obj, field: Field) -> rings.CommPoly:
    """A monomial may list its variables in any order, each once with a positive exponent."""
    terms = {}
    for pairs, coeff in obj["terms"]:
        exps = {rings.parse_variable_name(v): int(e) for v, e in pairs}
        if len(exps) < len(pairs) or min(exps.values(), default=1) < 1:
            raise BadReport(f"commpoly: monomial {pairs} repeats a variable or has exponent < 1")
        terms[rings.mono_from_dict(exps)] = coeff
    if len(terms) < len(obj["terms"]):
        raise BadReport("commpoly: a monomial appears twice")
    return rings.CommPoly(field, terms)


def _ratfun_from(obj, field: Field) -> rings.RationalFunction:
    try:
        return rings.RationalFunction(decode(obj["num"], field), decode(obj["den"], field))
    except UnsupportedDenominator as exc:
        raise BadReport(f"ratfun: {exc}") from exc


def _class(path):
    """The class named ``"module.Class"`` in this package."""
    module, name = path.split(".")
    return getattr(sys.modules[f"{__package__}.{module}"], name)


def _record(tag, path, renamed=None, extra=None):
    """Table row of a record class, coded from its fields.

    ``renamed`` maps a field to the JSON key it is stored under; ``extra``
    maps each key that is not a field to its value as a function of the record.
    """
    renamed = renamed or {}
    extra = extra or {}

    def body(r):
        out = {renamed.get(name, name): encode(getattr(r, name)) for name in r._fields}
        out.update((key, encode(value(r))) for key, value in extra.items())
        return out

    def from_body(obj, field):
        cls = _class(path)
        return cls(**{name: decode(obj[renamed.get(name, name)], field) for name in cls._fields})

    return tag, path, body, from_body


_TEXTS = {"f_text": "f", "g_text": "g"}

# One row per tag: tag, "module.Class", body of an instance (without its tag),
# instance from (body, field).  The record keys that are not fields are kept so
# that report bytes do not change.
_FORMAT = (
    ("commpoly", "rings.CommPoly", _commpoly_body, _commpoly_from),
    (
        "ratfun",
        "rings.RationalFunction",
        lambda r: {"num": encode(r.num), "den": encode(r.den)},
        _ratfun_from,
    ),
    (
        "freepoly",
        "freealg.FreePoly",
        lambda p: {"s": p.s, "expr": freealg.pretty(p)},
        lambda o, field: freealg.parse_free(o["expr"], o["s"], field),
    ),
    (
        "bivariate",
        "genmat.BivariatePoly",
        lambda p: {"text": str(p), "terms": [[a, b, str(c)] for (a, b), c in p.sorted_terms()]},
        lambda o, field: genmat.BivariatePoly(
            field, {(int(a), int(b)): c for a, b, c in o["terms"]}
        ),
    ),
    (
        "matrix",
        "genmat.GenericMatrix",
        lambda m: {"n": m.n, "entries": encode(m.rows)},
        lambda o, field: genmat.GenericMatrix(decode(o["entries"], field)),
    ),
    (
        "series",
        "genmat.FormalSeries",
        lambda s: {"order": s.order, "coeffs": encode(s.coeffs)},
        lambda o, field: genmat.FormalSeries(o["order"], decode(o["coeffs"], field)),
    ),
    (
        "series-field-matrix",
        "diagonalize.SeriesFieldMatrix",
        lambda s: {
            "n": s.coeffs[0].n, "order": s.order, "coeffs": encode([c.rows for c in s.coeffs])
        },
        lambda o, field: diagonalize.SeriesFieldMatrix(
            o["order"], [genmat.GenericMatrix(rows) for rows in decode(o["coeffs"], field)]
        ),
    ),
    _record("annihilator", "genmat.AnnihilatorResult"),
    _record("stability", "genmat.StabilityReport", renamed=_TEXTS),
    # a SizeOutcome exists only for commuting images
    _record("size-outcome", "centralizer.SizeOutcome", extra={"images_commute": lambda r: True}),
    _record("pipeline", "centralizer.PipelineReport", renamed=_TEXTS),
    _record("bergman", "centralizer.BergmanReport"),
    _record(
        "diagonal", "diagonalize.DiagonalReport", extra={"second_eigenvalues": lambda r: None}
    ),
    _record("correspondence", "quantize.CorrespondenceReport"),
    _record(
        "eval", "serialize.EvalReport", renamed={"degree_text": "degree", "term_count": "terms"}
    ),
    _record("commute", "serialize.CommuteReport", renamed={"commutator_value": "commutator"}),
    _record("pi", "serialize.PiReport"),
    _record("al", "serialize.ALReport"),
    _record("star", "serialize.StarReport", renamed={"commutator_series": "commutator"}),
    _record("poisson", "serialize.PoissonReport"),
)
# keyed by the class's module and name, so that no row's module is loaded to encode
_ENCODERS = {f"{__package__}.{path}": (tag, body) for tag, path, body, _ in _FORMAT}
_DECODERS = {tag: from_body for tag, _, _, from_body in _FORMAT}


def encode(obj):
    """Encode a report or algebra value as JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    cls = type(obj)
    entry = _ENCODERS.get(f"{cls.__module__}.{cls.__qualname__}")
    if entry is None:
        raise TypeError(f"cannot encode {obj!r}")
    tag, body = entry
    return {"type": tag, **body(obj)}


def decode(obj, field: Field):
    """Inverse of ``encode`` for the given ground field."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, list):
        return [decode(x, field) for x in obj]
    kind = obj["type"]
    from_body = _DECODERS.get(kind)
    if from_body is None:
        raise ValueError(f"unknown encoded type {kind!r}")
    return from_body(obj, field)


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


def envelope(report, command: str, field: Field, seed: int, bounds: dict):
    """Wrap a report with engine metadata for emission."""
    return {
        "engine": {"name": "nclab", "version": __version__},
        "command": command,
        "field": field.to_dict(),
        "seed": seed,
        "bounds": {k: v for k, v in sorted(bounds.items())},
        "report": encode(report),
    }


def dumps(document) -> str:
    """Deterministic JSON rendering: ``json.dumps(document, sort_keys=True, indent=2) + "\\n"``.

    ``json`` renders an indented document with its pure-Python encoder; this
    renders it in one pass into one list, quoting strings with the C
    ``encode_basestring_ascii``.  Keys are strings and values are dicts,
    lists, tuples, strings, ints, bools or None; anything else is a
    ``TypeError``.
    """
    out = []
    _render(document, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(obj, newline: str, out: list) -> None:
    """Append the JSON of ``obj``; ``newline`` is a newline and the indent of its level."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(f"{sep}{_quote(key)}: ")
            _render(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"cannot render {obj!r} as JSON")


def loads(text: str):
    """Parse an emitted document; returns (metadata, report object)."""
    import json  # only decoding needs the parser

    doc = json.loads(text)
    field = Field.from_dict(doc["field"])
    return doc, decode(doc["report"], field)
