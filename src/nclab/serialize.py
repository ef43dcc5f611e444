"""JSON encoding and decoding of reports and algebra values.

Every encoded object is a plain dict with a ``"type"`` tag; polynomials embed
their pretty-printed form next to the structured terms.  ``decode`` inverts
``encode`` given the ground field, and every report type round-trips to an
equal value.  Rendering a report always uses ``dumps`` so that identical
inputs give byte-identical JSON documents.
"""

from __future__ import annotations

import json

from . import __version__
from .centralizer import BergmanReport, CentralizerBasis, PipelineReport, SizeOutcome
from .diagonalize import DiagonalReport, Eq1Report, SeriesFieldMatrix
from .fields import Field, Scalar
from .freealg import FreePoly, parse_free, pretty
from .genmat import AnnihilatorResult, BivariatePoly, GenericMatrix, StabilityReport
from .quantize import (
    CorrespondenceReport,
    FormalSeries,
    PoissonTensor,
    SeriesMatrix,
)
from .records import Record
from .rings import CommPoly, Mono, RationalFunction, parse_variable_name


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
# Encoding
# ---------------------------------------------------------------------------


def _mono_obj(m: Mono):
    return [[str(v), e] for v, e in m]


def _poly_obj(p: CommPoly):
    return {
        "type": "commpoly",
        "text": str(p),
        "terms": [[_mono_obj(m), str(c)] for m, c in p.sorted_terms()],
    }


def _ratfun_obj(r: RationalFunction):
    return {"type": "ratfun", "num": _poly_obj(r.num), "den": _poly_obj(r.den)}


def _elem_obj(x):
    if isinstance(x, Scalar):
        return {"type": "scalar", "value": str(x)}
    if isinstance(x, RationalFunction):
        return _ratfun_obj(x)
    raise TypeError(f"cannot encode field element {x!r}")


def encode(obj):
    """Encode a report or algebra value as JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Scalar):
        return _elem_obj(obj)
    if isinstance(obj, CommPoly):
        return _poly_obj(obj)
    if isinstance(obj, RationalFunction):
        return _ratfun_obj(obj)
    if isinstance(obj, FreePoly):
        return {"type": "freepoly", "s": obj.s, "expr": pretty(obj)}
    if isinstance(obj, BivariatePoly):
        return {
            "type": "bivariate",
            "text": str(obj),
            "terms": [[a, b, str(c)] for (a, b), c in obj.sorted_terms()],
        }
    if isinstance(obj, GenericMatrix):
        return {
            "type": "matrix",
            "n": obj.n,
            "entries": [[_poly_obj(e) for e in row] for row in obj.rows],
        }
    if isinstance(obj, FormalSeries):
        return {
            "type": "series",
            "order": obj.order,
            "coeffs": [_poly_obj(c) for c in obj.coeffs],
        }
    if isinstance(obj, SeriesMatrix):
        return {
            "type": "series-matrix",
            "n": obj.n,
            "order": obj.order,
            "entries": [[encode(e) for e in row] for row in obj.entries],
        }
    if isinstance(obj, SeriesFieldMatrix):
        return {
            "type": "series-field-matrix",
            "n": obj.n,
            "order": obj.order,
            "coeffs": [
                [[_elem_obj(x) for x in row] for row in c] for c in obj.coeffs
            ],
        }
    if isinstance(obj, PoissonTensor):
        return {"type": "tensor", **obj.to_dict()}
    if isinstance(obj, AnnihilatorResult):
        return {
            "type": "annihilator",
            "found": obj.found,
            "poly": encode(obj.poly),
            "total_degree": obj.total_degree,
            "n": obj.n,
            "searched_bound": obj.searched_bound,
        }
    if isinstance(obj, StabilityReport):
        return {
            "type": "stability",
            "f": obj.f_text,
            "g": obj.g_text,
            "sizes": list(obj.sizes),
            "dmax": obj.dmax,
            "results": [encode(r) for r in obj.results],
            "all_found": obj.all_found,
            "identical": obj.identical,
        }
    if isinstance(obj, SizeOutcome):
        return {
            "type": "size-outcome",
            "n": obj.n,
            "images_commute": True,  # a SizeOutcome exists only for commuting images
            "annihilator": encode(obj.annihilator),
            "star_c0_zero": obj.star_c0_zero,
            "star_c1_zero": obj.star_c1_zero,
            "star_linear_part": encode(obj.star_linear_part),
        }
    if isinstance(obj, PipelineReport):
        return {
            "type": "pipeline",
            "f": obj.f_text,
            "g": obj.g_text,
            "commute": obj.commute,
            "free_commutator": encode(obj.free_commutator),
            "outcomes": [encode(o) for o in obj.outcomes],
            "stability": encode(obj.stability),
            "trdeg_verdict": obj.trdeg_verdict,
            "conclusion": obj.conclusion,
        }
    if isinstance(obj, CentralizerBasis):
        return {
            "type": "centralizer-basis",
            "f": encode(obj.f),
            "d": obj.d,
            "bases": [[encode(e) for e in basis] for basis in obj.bases],
            "dims": obj.dims,
        }
    if isinstance(obj, BergmanReport):
        return {
            "type": "bergman",
            "f": encode(obj.f),
            "d": obj.d,
            "passed": obj.passed,
            "generator": encode(obj.generator),
            "dims": list(obj.dims),
            "witness": encode(obj.witness),
        }
    if isinstance(obj, DiagonalReport):
        return {
            "type": "diagonal",
            "conjugator": encode(obj.conjugator),
            "diagonal": encode(obj.diagonal),
            "achieved_order": obj.achieved_order,
            "eigenvalues": [_elem_obj(x) for x in obj.eigenvalues],
            "second_eigenvalues": None,  # kept so report bytes do not change
        }
    if isinstance(obj, Eq1Report):
        return {
            "type": "eq1",
            "n": obj.n,
            "diagonal": [encode(d) for d in obj.diagonal],
            "expected": [encode(e) for e in obj.expected],
            "per_entry_equal": list(obj.per_entry_equal),
            "all_equal": obj.all_equal,
            "nonvanishing": obj.nonvanishing,
            "linear_part": encode(obj.linear_part),
        }
    if isinstance(obj, CorrespondenceReport):
        return {
            "type": "correspondence",
            "holds": obj.holds,
            "star_linear_part": encode(obj.star_linear_part),
            "bracket": encode(obj.bracket),
        }
    if isinstance(obj, EvalReport):
        return {
            "type": "eval",
            "poly": encode(obj.poly),
            "degree": obj.degree_text,
            "terms": obj.term_count,
        }
    if isinstance(obj, CommuteReport):
        return {
            "type": "commute",
            "f": encode(obj.f),
            "g": encode(obj.g),
            "commutator": encode(obj.commutator_value),
            "commute": obj.commute,
        }
    if isinstance(obj, PiReport):
        return {"type": "pi", "f": encode(obj.f), "n": obj.n, "image": encode(obj.image)}
    if isinstance(obj, ALReport):
        return {
            "type": "al",
            "n": obj.n,
            "arity": obj.arity,
            "standard_vanishes": obj.standard_vanishes,
            "sharpness_checked": obj.sharpness_checked,
            "sharpness_nonzero": obj.sharpness_nonzero,
        }
    if isinstance(obj, StarReport):
        return {
            "type": "star",
            "product": encode(obj.product),
            "commutator": encode(obj.commutator_series),
            "correspondence": encode(obj.correspondence),
        }
    if isinstance(obj, PoissonReport):
        return {"type": "poisson", "bracket": encode(obj.bracket)}
    raise TypeError(f"cannot encode {obj!r}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _poly_from(obj, field: Field) -> CommPoly:
    terms = {}
    for mono_obj, coeff in obj["terms"]:
        m = tuple((parse_variable_name(name), int(e)) for name, e in mono_obj)
        terms[m] = field.scalar(coeff)
    return CommPoly(field, terms)


def _ratfun_from(obj, field: Field) -> RationalFunction:
    return RationalFunction(_poly_from(obj["num"], field), _poly_from(obj["den"], field))


def _elem_from(obj, field: Field):
    if obj["type"] == "scalar":
        return field.scalar(obj["value"])
    return _ratfun_from(obj, field)


def decode(obj, field: Field):
    """Inverse of ``encode`` for the given ground field."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    kind = obj["type"]
    if kind == "scalar":
        return field.scalar(obj["value"])
    if kind == "commpoly":
        return _poly_from(obj, field)
    if kind == "ratfun":
        return _ratfun_from(obj, field)
    if kind == "freepoly":
        return parse_free(obj["expr"], obj["s"], field)
    if kind == "bivariate":
        return BivariatePoly(
            field, {(int(a), int(b)): field.scalar(c) for a, b, c in obj["terms"]}
        )
    if kind == "matrix":
        return GenericMatrix([[_poly_from(e, field) for e in row] for row in obj["entries"]])
    if kind == "series":
        return FormalSeries(obj["order"], [_poly_from(c, field) for c in obj["coeffs"]])
    if kind == "series-matrix":
        return SeriesMatrix([[decode(e, field) for e in row] for row in obj["entries"]])
    if kind == "series-field-matrix":
        coeffs = [
            [[_elem_from(x, field) for x in row] for row in c] for c in obj["coeffs"]
        ]
        sample = coeffs[0][0][0]
        if isinstance(sample, Scalar):
            zero, one = field.zero, field.one
        else:
            zero = RationalFunction.from_scalar(field.zero)
            one = RationalFunction.from_scalar(field.one)
        return SeriesFieldMatrix(coeffs, zero, one)
    if kind == "tensor":
        return PoissonTensor.from_dict(obj, field)
    if kind == "annihilator":
        return AnnihilatorResult(
            obj["found"],
            decode(obj["poly"], field),
            obj["total_degree"],
            obj["n"],
            obj["searched_bound"],
        )
    if kind == "stability":
        return StabilityReport(
            obj["f"],
            obj["g"],
            list(obj["sizes"]),
            obj["dmax"],
            [decode(r, field) for r in obj["results"]],
            obj["all_found"],
            obj["identical"],
        )
    if kind == "size-outcome":
        return SizeOutcome(
            obj["n"],
            decode(obj["annihilator"], field),
            obj["star_c0_zero"],
            obj["star_c1_zero"],
            decode(obj["star_linear_part"], field),
        )
    if kind == "pipeline":
        return PipelineReport(
            obj["f"],
            obj["g"],
            obj["commute"],
            decode(obj["free_commutator"], field),
            [decode(o, field) for o in obj["outcomes"]],
            decode(obj["stability"], field),
            obj["trdeg_verdict"],
            obj["conclusion"],
        )
    if kind == "centralizer-basis":
        return CentralizerBasis(
            decode(obj["f"], field),
            obj["d"],
            [[decode(e, field) for e in basis] for basis in obj["bases"]],
        )
    if kind == "bergman":
        return BergmanReport(
            decode(obj["f"], field),
            obj["d"],
            obj["passed"],
            decode(obj["generator"], field),
            list(obj["dims"]),
            decode(obj["witness"], field),
        )
    if kind == "diagonal":
        return DiagonalReport(
            decode(obj["conjugator"], field),
            decode(obj["diagonal"], field),
            obj["achieved_order"],
            [_elem_from(x, field) for x in obj["eigenvalues"]],
        )
    if kind == "eq1":
        return Eq1Report(
            obj["n"],
            [decode(d, field) for d in obj["diagonal"]],
            [decode(e, field) for e in obj["expected"]],
            list(obj["per_entry_equal"]),
            obj["all_equal"],
            obj["nonvanishing"],
            decode(obj["linear_part"], field),
        )
    if kind == "correspondence":
        return CorrespondenceReport(
            obj["holds"],
            decode(obj["star_linear_part"], field),
            decode(obj["bracket"], field),
        )
    if kind == "eval":
        return EvalReport(decode(obj["poly"], field), obj["degree"], obj["terms"])
    if kind == "commute":
        return CommuteReport(
            decode(obj["f"], field),
            decode(obj["g"], field),
            decode(obj["commutator"], field),
            obj["commute"],
        )
    if kind == "pi":
        return PiReport(decode(obj["f"], field), obj["n"], decode(obj["image"], field))
    if kind == "al":
        return ALReport(
            obj["n"],
            obj["arity"],
            obj["standard_vanishes"],
            obj["sharpness_checked"],
            obj["sharpness_nonzero"],
        )
    if kind == "star":
        return StarReport(
            decode(obj["product"], field),
            decode(obj["commutator"], field),
            decode(obj["correspondence"], field),
        )
    if kind == "poisson":
        return PoissonReport(decode(obj["bracket"], field))
    raise ValueError(f"unknown encoded type {kind!r}")


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
