"""JSON encoding and decoding of reports and algebra values.

The whole report format is the table below: every encoded object is a plain
dict with a ``"type"`` tag, and each tag appears in exactly one row.  A row
names its class as ``"module.Class"`` (resolved when a value is decoded, so
that a command loads only the modules of the values it emits).  Every row is
made by ``_row``: a value type's row names the encoder of the keys it is
stored by, its builder from them and its derived keys; a report record's row
is stored by its fields and names only the JSON keys that differ from its
field names, its derived keys and the fields it builds from the others.  A
derived key (a polynomial's ``text``, a matrix's ``n``, a series' ``order``,
a record's verdicts) is written on encode and never read.  Lists and tuples
encode as JSON lists.  ``loads`` accepts a report exactly when re-encoding
what it decodes to renders to the document's own report, so it accepts what
nclab writes and nothing else.  Rendering a report always uses ``dumps`` so
that identical inputs give byte-identical JSON documents.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from _json import encode_basestring_ascii as _quote  # json.encoder's, without loading json

from . import __version__, diagonalize, freealg, genmat, rings
from .errors import BadReport, EngineError
from .fields import Field, int_digits
from .records import Record


# ---------------------------------------------------------------------------
# CLI-level composite reports
# ---------------------------------------------------------------------------


class EvalReport(Record):
    __slots__ = ("poly",)

    degree_text = property(lambda self: str(self.poly.degree()))  # NEG_INF prints -inf
    term_count = property(lambda self: len(self.poly.terms))


class CommuteReport(Record):
    """[f, g] is derived from f and g, formed once when the report is built."""

    __slots__ = ("f", "g", "_commutator")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_commutator", freealg.commutator(self.f, self.g))

    commutator = property(attrgetter("_commutator"))
    commute = property(lambda self: self.commutator.is_zero)


class PiReport(Record):
    __slots__ = ("f", "image")


class ALReport(Record):
    __slots__ = ("n", "standard_vanishes", "sharpness_nonzero")


class StarReport(Record):
    __slots__ = ("product", "commutator_series", "correspondence")


class PoissonReport(Record):
    __slots__ = ("bracket",)


# ---------------------------------------------------------------------------
# The format
# ---------------------------------------------------------------------------


def _commpoly_body(p: rings.CommPoly):
    return {"terms": [[[[str(v), e] for v, e in m], str(c)] for m, c in p.sorted_terms()]}


def _commpoly_from(obj, field: Field) -> rings.CommPoly:
    """Each exponent is at least 1: a negative one would survive the round trip ``loads`` tests."""
    terms = {}
    for pairs, coeff in obj["terms"]:
        exps = {rings.parse_variable_name(v): int(e) for v, e in pairs}
        if min(exps.values(), default=1) < 1:
            raise ValueError(f"commpoly: monomial {pairs} has an exponent < 1")
        terms[rings.mono_from_dict(exps)] = coeff
    return rings.CommPoly(field, terms)


def _class(path):
    """The class named ``"module.Class"`` in this package."""
    module, name = path.split(".")
    return getattr(sys.modules[f"{__package__}.{module}"], name)


def _row(tag, path, stored, from_stored, **derived):
    """Table row of a class, coded from the keys a value is stored by and its derived keys.

    ``stored`` encodes the stored keys into a new dict and ``from_stored``
    builds the value from them; a ``derived`` key is a function of the value.
    """
    derived = tuple(derived.items())

    def body(v):
        out = stored(v)
        out["type"] = tag
        for key, value in derived:
            out[key] = encode(value(v))
        return out

    return tag, path, body, from_stored


def _record(tag, path, renamed=None, derived=(), read=None, **computed):
    """Row of a record class, stored by its fields.  ``renamed`` maps a field or property
    to its JSON key, and a derived key is a property named in ``derived`` or ``computed``.
    A field that the others determine maps in ``read`` to its builder from them, the data
    under its key and the field, so that it is written but never decoded."""
    renamed, read = renamed or {}, read or {}

    def from_stored(obj, field):
        cls = _class(path)
        data = {name: obj[renamed.get(name, name)] for name in cls._fields}
        values = {name: decode(data[name], field) for name in cls._fields if name not in read}
        values.update({name: build(values, data[name], field) for name, build in read.items()})
        return cls(**values)

    return _row(tag, path,
                lambda r: {renamed.get(name, name): encode(getattr(r, name)) for name in r._fields},
                from_stored, **{renamed.get(name, name): attrgetter(name) for name in derived},
                **computed)


_TEXTS = {"f_text": "f", "g_text": "g"}


def _trdeg_verdict(r) -> str:
    """The transcendence-degree verdict of a pipeline or probe report."""
    anns = [o.annihilator for o in r.outcomes]
    if not anns:  # the inputs do not commute
        return "not applicable"
    return "1" if all(a.found for a in anns) else f">=2 up to degree {anns[0].searched_bound}"


# One row per tag, each made by ``_row``: tag, "module.Class", body of an instance
# (with its tag), instance from (body, field).
_FORMAT = (
    _row("commpoly", "rings.CommPoly", _commpoly_body, _commpoly_from, text=str),
    _row("ratfun", "rings.RationalFunction",
         lambda r: {"num": encode(r.num), "den": encode(r.den)},
         lambda o, field: rings.RationalFunction(decode(o["num"], field), decode(o["den"], field))),
    _row("freepoly", "freealg.FreePoly", lambda p: {"s": p.s, "expr": str(p)},
         lambda o, field: freealg.read_text(o["expr"], o["s"], field)),
    _row("bivariate", "genmat.BivariatePoly",
         lambda p: {"terms": [[a, b, str(c)] for (a, b), c in p.sorted_terms()]},
         lambda o, field: genmat.BivariatePoly(
             field, {(int(a), int(b)): c for a, b, c in o["terms"]}), text=str),
    _row("matrix", "genmat.GenericMatrix", lambda m: {"entries": encode(m.rows)},
         lambda o, field: genmat.GenericMatrix(decode(o["entries"], field)), n=attrgetter("n")),
    _row("series", "genmat.FormalSeries", lambda s: {"coeffs": encode(s.coeffs)},
         lambda o, field: genmat.FormalSeries(decode(o["coeffs"], field)),
         order=attrgetter("order")),
    _row("series-field-matrix", "diagonalize.SeriesFieldMatrix",
         lambda s: {"coeffs": encode([c.rows for c in s.coeffs])},
         lambda o, field: diagonalize.SeriesFieldMatrix(
             [genmat.GenericMatrix(rows) for rows in decode(o["coeffs"], field)]),
         n=lambda s: s.coeffs[0].n, order=attrgetter("order")),
    _record("annihilator", "genmat.AnnihilatorResult", derived=("found", "total_degree")),
    _record("stability", "genmat.StabilityReport", renamed=_TEXTS,
            derived=("all_found", "identical"), sizes=lambda r: [a.n for a in r.results],
            dmax=lambda r: r.results[0].searched_bound),
    # a SizeOutcome exists only for commuting images whose lifts commute at h^0
    _record("size-outcome", "centralizer.SizeOutcome", derived=("n", "star_c1_zero"),
            images_commute=lambda r: True, star_c0_zero=lambda r: True),
    _record("pipeline", "centralizer.PipelineReport", renamed=_TEXTS,
            derived=("commute", "conclusion"), trdeg_verdict=_trdeg_verdict,
            # the stability of the outcomes, or null, as a probe's is
            read={"stability": lambda rep, data, field: None if data is None else
                  genmat.StabilityReport(rep["f_text"], rep["g_text"],
                                         [o.annihilator for o in rep["outcomes"]])}),
    _record("bergman", "centralizer.BergmanReport", derived=("d", "passed")),
    _record("diagonal", "diagonalize.DiagonalReport", derived=("achieved_order",),
            eigenvalues=lambda r: r.diagonal.coeffs[0].diagonal_entries(),
            second_eigenvalues=lambda r: None),
    _record("correspondence", "quantize.CorrespondenceReport", derived=("holds",)),
    _record("eval", "serialize.EvalReport", derived=("degree_text", "term_count"),
            renamed={"degree_text": "degree", "term_count": "terms"}),
    _record("commute", "serialize.CommuteReport", derived=("commutator", "commute")),
    _record("pi", "serialize.PiReport", n=lambda r: r.image.n),
    _record("al", "serialize.ALReport", arity=lambda r: 2 * r.n, sharpness_checked=lambda r: True),
    # a correspondence's star_linear_part is the commutator's h^1 coefficient, or it is null
    _record("star", "serialize.StarReport", renamed={"commutator_series": "commutator"},
            read={"correspondence": lambda rep, data, field: None if data is None else
                  _class("quantize.CorrespondenceReport")(
                      rep["commutator_series"].coefficient(1), decode(data["bracket"], field))}),
    _record("poisson", "serialize.PoissonReport"),
)
# keyed by the class's module and name, so that no row's module is loaded to encode
_ENCODERS = {f"{__package__}.{path}": body for _, path, body, _ in _FORMAT}
_DECODERS = {tag: from_body for tag, _, _, from_body in _FORMAT}


def encode(obj):
    """Encode a report or algebra value as JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    cls = type(obj)
    body = _ENCODERS.get(f"{cls.__module__}.{cls.__qualname__}")
    if body is None:
        raise TypeError(f"cannot encode {obj!r}")
    return body(obj)


def decode(obj, field: Field):
    """The value ``obj`` encodes over ``field``, built from its stored keys; ``loads`` checks it."""
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
    """Parse an emitted document, whose numbers may have any number of digits; returns
    (metadata, report object), or raises BadReport unless the report re-encodes to itself."""
    import json  # only decoding needs the parser

    try:
        with int_digits():
            doc = json.loads(text)
            report = decode(doc["report"], Field.from_dict(doc["field"]))
            canonical = dumps(encode(report)) == dumps(doc["report"])
    except (ArithmeticError, AttributeError, EngineError, LookupError, TypeError,
            ValueError) as exc:
        raise BadReport(f"malformed report document: {type(exc).__name__}: {exc}") from exc
    if not canonical:
        raise BadReport("the report is not the one nclab writes for the value it decodes to")
    return doc, report
