"""JSON encoding and decoding of reports and algebra values.

The whole report format is the table below: every encoded object is a plain
dict with a ``"type"`` tag, and each tag appears in exactly one row.  A value
type's row names its body encoder and its decoder; a report record's row
names only the JSON keys that differ from its field names and the keys that
are not fields, and the record is coded from its compared fields.  Lists and
tuples encode as JSON lists.  ``decode`` inverts ``encode`` given the ground
field, and every report type round-trips to an equal value.  Rendering a
report always uses ``dumps`` so that identical inputs give byte-identical
JSON documents.
"""

from __future__ import annotations

import json

from . import __version__
from .centralizer import BergmanReport, CentralizerBasis, PipelineReport, SizeOutcome
from .diagonalize import DiagonalReport, Eq1Report, SeriesFieldMatrix
from .errors import BadReport, UnsupportedDenominator
from .fields import Field, Scalar
from .freealg import FreePoly, parse_free, pretty
from .genmat import AnnihilatorResult, BivariatePoly, GenericMatrix, StabilityReport
from .quantize import CorrespondenceReport, FormalSeries, PoissonTensor
from .records import Record
from .rings import CommPoly, RationalFunction, parse_variable_name


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


def _commpoly_body(p: CommPoly):
    terms = [[[[str(v), e] for v, e in m], str(c)] for m, c in p.sorted_terms()]
    return {"text": str(p), "terms": terms}


def _commpoly_from(obj, field: Field) -> CommPoly:
    return CommPoly(field, {tuple((parse_variable_name(name), int(e)) for name, e in mono): coeff
                            for mono, coeff in obj["terms"]})


def _ratfun_from(obj, field: Field) -> RationalFunction:
    try:
        return RationalFunction(decode(obj["num"], field), decode(obj["den"], field))
    except UnsupportedDenominator as exc:
        raise BadReport(f"ratfun: {exc}") from exc


def _record(tag, cls, renamed=None, extra=None):
    """Table row of a record class, coded from its compared fields.

    ``renamed`` maps a field to the JSON key it is stored under; ``extra``
    maps each key that is not a field to its value as a function of the record.
    """
    keys = [(name, (renamed or {}).get(name, name)) for name in cls._compared]
    extra = extra or {}

    def body(r):
        out = {key: encode(getattr(r, name)) for name, key in keys}
        out.update((key, encode(value(r))) for key, value in extra.items())
        return out

    def from_body(obj, field):
        return cls(**{name: decode(obj[key], field) for name, key in keys})

    return tag, cls, body, from_body


_TEXTS = {"f_text": "f", "g_text": "g"}

# One row per tag: tag, class, body of an instance (without its tag), instance
# from (body, field).  The record keys that are not fields are kept so that
# report bytes do not change.
_FORMAT = (
    ("scalar", Scalar, lambda x: {"value": str(x)}, lambda o, field: field.scalar(o["value"])),
    ("commpoly", CommPoly, _commpoly_body, _commpoly_from),
    (
        "ratfun",
        RationalFunction,
        lambda r: {"num": encode(r.num), "den": encode(r.den)},
        _ratfun_from,
    ),
    (
        "freepoly",
        FreePoly,
        lambda p: {"s": p.s, "expr": pretty(p)},
        lambda o, field: parse_free(o["expr"], o["s"], field),
    ),
    (
        "bivariate",
        BivariatePoly,
        lambda p: {"text": str(p), "terms": [[a, b, str(c)] for (a, b), c in p.sorted_terms()]},
        lambda o, field: BivariatePoly(
            field, {(int(a), int(b)): c for a, b, c in o["terms"]}
        ),
    ),
    (
        "matrix",
        GenericMatrix,
        lambda m: {"n": m.n, "entries": encode(m.rows)},
        lambda o, field: GenericMatrix(decode(o["entries"], field)),
    ),
    (
        "series",
        FormalSeries,
        lambda s: {"order": s.order, "coeffs": encode(s.coeffs)},
        lambda o, field: FormalSeries(o["order"], decode(o["coeffs"], field)),
    ),
    (
        "series-field-matrix",
        SeriesFieldMatrix,
        lambda s: {
            "n": s.coeffs[0].n, "order": s.order, "coeffs": encode([c.rows for c in s.coeffs])
        },
        lambda o, field: SeriesFieldMatrix(
            o["order"], [GenericMatrix(rows) for rows in decode(o["coeffs"], field)]
        ),
    ),
    ("tensor", PoissonTensor, PoissonTensor.to_dict, PoissonTensor.from_dict),
    _record("annihilator", AnnihilatorResult),
    _record("stability", StabilityReport, renamed=_TEXTS),
    # a SizeOutcome exists only for commuting images
    _record("size-outcome", SizeOutcome, extra={"images_commute": lambda r: True}),
    _record("pipeline", PipelineReport, renamed=_TEXTS),
    _record("centralizer-basis", CentralizerBasis, extra={"dims": lambda r: r.dims}),
    _record("bergman", BergmanReport),
    _record("diagonal", DiagonalReport, extra={"second_eigenvalues": lambda r: None}),
    _record("eq1", Eq1Report),
    _record("correspondence", CorrespondenceReport),
    _record("eval", EvalReport, renamed={"degree_text": "degree", "term_count": "terms"}),
    _record("commute", CommuteReport, renamed={"commutator_value": "commutator"}),
    _record("pi", PiReport),
    _record("al", ALReport),
    _record("star", StarReport, renamed={"commutator_series": "commutator"}),
    _record("poisson", PoissonReport),
)
_ENCODERS = {cls: (tag, body) for tag, cls, body, _ in _FORMAT}
_DECODERS = {tag: from_body for tag, _, _, from_body in _FORMAT}


def encode(obj):
    """Encode a report or algebra value as JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    entry = _ENCODERS.get(type(obj))
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
    """Deterministic JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    """Parse an emitted document; returns (metadata, report object)."""
    doc = json.loads(text)
    field = Field.from_dict(doc["field"])
    return doc, decode(doc["report"], field)
