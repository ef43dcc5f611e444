"""Reports encode to JSON and parse back to equal values; witnesses re-verify."""

import json
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from samples import lifted_commutator, random_commpoly
from nclab import serialize
from nclab.cli import _perturbation
from nclab.errors import BadReport, DivisionByZero, UnsupportedDenominator
from nclab.fields import GF, QQ
from nclab.freealg import parse_free
from nclab.genmat import (
    AnnihilatorResult,
    BivariatePoly,
    FormalSeries,
    GenericMatrix,
    StabilityReport,
    annihilator_stability,
    pi_reduce,
)
from nclab.quantize import (
    CorrespondenceReport,
    StarContext,
    entry_pairing_tensor,
    quantize_lift,
    verify_correspondence,
)
from nclab.rings import CommPoly, RationalFunction, Variable, mono_from_dict, parse_variable_name
from nclab.centralizer import (
    bergman_check,
    bergman_pipeline,
    commuting_matrix_probe,
    diagonal_generic_pair,
)
from nclab.diagonalize import (
    DiagonalReport,
    SeriesFieldMatrix,
    successive_diagonalize,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def round_trip(report, field=QQ):
    doc = serialize.envelope(report, "test", field, 1729, {"d": 3})
    text = serialize.dumps(doc)
    doc2, decoded = serialize.loads(text)
    assert decoded == report
    # a second rendering is byte-identical
    assert serialize.dumps(serialize.envelope(decoded, "test", field, 1729, {"d": 3})) == text
    return decoded


def test_degree_zero_centralizer_encodes_dims():
    rep = bergman_check(parse_free("x1", 2, QQ), 0)
    assert rep.dims == [1]
    assert serialize.encode(rep)["dims"] == [1]
    round_trip(rep)


def test_bergman_report_round_trip():
    round_trip(bergman_check(parse_free("x1^2", 2, QQ), 4))


def test_stability_round_trip_and_witness_reverification():
    f = parse_free("x1", 2, QQ)
    g = parse_free("x1^2 + 1", 2, QQ)
    rep = annihilator_stability(f, g, 2, 3)
    decoded = round_trip(rep)
    # the decoded annihilators re-verify against freshly computed images
    for res in decoded.results:
        fn = pi_reduce(parse_free(decoded.f_text, 2, QQ), res.n)
        gn = pi_reduce(parse_free(decoded.g_text, 2, QQ), res.n)
        assert res.verify(fn, gn)


def test_pipeline_round_trip():
    ctx = StarContext(entry_pairing_tensor(2, 2, QQ), 2)
    rep = bergman_pipeline(parse_free("x1", 2, QQ), parse_free("x1^2", 2, QQ), 2, 3, ctx)
    decoded = round_trip(rep)
    # stored witnesses re-verify the report's claims after loading
    assert decoded.free_commutator.is_zero == decoded.commute
    for o in decoded.outcomes:
        assert o.star_c1_zero == o.star_linear_part.is_zero
        fn = pi_reduce(parse_free(decoded.f_text, 2, QQ), o.n)
        gn = pi_reduce(parse_free(decoded.g_text, 2, QQ), o.n)
        assert o.annihilator.verify(fn, gn)


def test_probe_round_trip():
    f, g, tensor = diagonal_generic_pair(2, QQ)
    ctx = StarContext(tensor, 2)
    round_trip(commuting_matrix_probe(quantize_lift(f, ctx), quantize_lift(g, ctx), 3))


def test_diagonal_report_round_trip():
    zero, one = RationalFunction.zero(QQ), RationalFunction.one(QQ)
    lam = [
        RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))
        for i in (1, 2)
    ]
    a0 = GenericMatrix.diagonal(lam)
    a1 = GenericMatrix([[zero, one], [one, zero]])
    a = SeriesFieldMatrix([a0, a1])
    rep = successive_diagonalize(a)
    round_trip(rep)


def _ratfun_doc(den_terms, field=QQ):
    one = serialize.encode(CommPoly.one(field))
    # the denominator's text is the one its terms give, so only the ratfun row can refuse it
    monos = [mono_from_dict({parse_variable_name(v): e for v, e in m}) for m, _ in den_terms]
    text = str(CommPoly(field, dict(zip(monos, (c for _, c in den_terms)))))
    den = {"type": "commpoly", "text": text, "terms": den_terms}
    return {"type": "ratfun", "num": one, "den": den}


def _loads_report(obj, field=QQ):
    """``loads`` of a document whose report is ``obj``."""
    return serialize.loads(json.dumps({"field": field.to_dict(), "report": obj}))


_REFUSED = "the report is not the one nclab writes for the value it decodes to"


@pytest.mark.parametrize(
    "den_terms",
    [
        [[[["lam1", 1]], "1"]],  # lam1
        [[[["lam1", 1]], "1"], [[["lam2", 1]], "1"]],  # lam1 + lam2
        [[[["lam1", 2]], "1"], [[["lam2", 1]], "-1"]],  # lam1^2 - lam2
    ],
)
def test_ratfun_outside_the_ring_is_a_bad_report(den_terms):
    # the engine's refusal is kept as the cause
    with pytest.raises(BadReport, match="^malformed report document: UnsupportedDenominator") as e:
        _loads_report(_ratfun_doc(den_terms))
    assert e.value.code == "bad-report"
    assert type(e.value.__cause__) is UnsupportedDenominator


def test_ratfun_decoding_divides_out_the_factors():
    # the denominator 2 (lam1 - lam2)(lam2 - lam3) decodes to 1/2 over the monic product
    lam = [CommPoly.variable(Variable.aux("lam", i), QQ) for i in (1, 2, 3)]
    den = ((lam[0] - lam[1]) * (lam[1] - lam[2])).scale(QQ.scalar(2))
    doc = _ratfun_doc(serialize.encode(den)["terms"])
    r = serialize.decode(doc, QQ)
    assert r.num == CommPoly(QQ, {(): "1/2"})
    assert r.den == (lam[0] - lam[1]) * (lam[1] - lam[2])
    # nclab writes the fraction in lowest terms, so this document is not one it writes
    with pytest.raises(BadReport, match=_REFUSED):
        _loads_report(doc)
    _loads_report(serialize.encode(r))
    with pytest.raises(DivisionByZero):
        serialize.decode(_ratfun_doc([]), QQ)


def _commpolys(obj, edit):
    """A copy of an encoded document with ``edit`` applied to the terms of every commpoly."""
    if isinstance(obj, list):
        return [_commpolys(x, edit) for x in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: _commpolys(v, edit) for k, v in obj.items()}
    if obj.get("type") == "commpoly":
        out["terms"] = edit(obj["terms"])
    return out


@pytest.mark.parametrize(
    "terms",
    [
        [[[["x1[1,1]", 1], ["x1[1,1]", 2]], "1"]],  # a repeated variable
        [[[["x1[1,1]", 1], ["x1[1,2]", 1], ["x1[1,1]", 1]], "1"]],
        [[[["lam1", 1], ["lam2", 1]], "1"], [[["lam2", 1], ["lam1", 1]], "2"]],  # a monomial twice
    ],
    ids=["repeated", "repeated-apart", "twice"],
)
def test_a_malformed_monomial_is_a_bad_report(terms):
    # decoding collapses the repeats, so the value re-encodes to other terms
    value = serialize.decode({"type": "commpoly", "text": "", "terms": terms}, QQ)
    with pytest.raises(BadReport, match=_REFUSED):
        _loads_report({"type": "commpoly", "text": str(value), "terms": terms})


@pytest.mark.parametrize(
    "terms",
    [[[[["x1[1,1]", 0]], "1"]], [[[["lam1", -1]], "1"]]],
    ids=["zero-exponent", "negative-exponent"],
)
def test_decoding_refuses_an_exponent_below_one(terms):
    # a negative exponent would survive a round trip, so decoding refuses it itself
    obj = {"type": "commpoly", "text": "", "terms": terms}
    with pytest.raises(ValueError, match="exponent < 1"):
        serialize.decode(obj, QQ)
    with pytest.raises(BadReport, match="^malformed report document: ValueError: commpoly: "):
        _loads_report(obj)


def test_tau_round_trip():
    f, g, tensor = diagonal_generic_pair(3, QQ)
    ctx = StarContext(tensor, 2)
    rep = commuting_matrix_probe(quantize_lift(f, ctx), quantize_lift(g, ctx), 2)
    (o,) = round_trip(rep).outcomes
    # the decoded traces are Eq. (1)'s sum_i {x_i, y_i} x_i^k, every bracket 1
    xs = f.diagonal_entries()
    assert o.tau == [sum((x**k for x in xs), CommPoly.zero(QQ)) for k in range(3)]


def test_correspondence_round_trip():
    _, _, tensor = diagonal_generic_pair(1, QQ)
    ctx = StarContext(tensor, 2)
    rng = random.Random(5)
    a = random_commpoly(rng, list(tensor.variables), QQ)
    b = random_commpoly(rng, list(tensor.variables), QQ)
    round_trip(verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx)))


def test_prime_field_reports_round_trip():
    f7 = GF(7)
    rep = bergman_check(parse_free("x1^2", 2, f7), 3)
    round_trip(rep, field=f7)


def test_composite_cli_reports_round_trip():
    f = parse_free("x1*x2 - x2*x1", 2, QQ)
    round_trip(serialize.EvalReport(f))
    g = parse_free("x1", 2, QQ)
    from nclab.freealg import commutator

    rep = round_trip(serialize.CommuteReport(f, g))
    assert rep.commutator == commutator(f, g) and not rep.commute
    round_trip(serialize.PiReport(g, pi_reduce(g, 2)))
    round_trip(serialize.ALReport(2, True, True))
    round_trip(serialize.PoissonReport(CommPoly.one(QQ)))


def test_each_tag_and_class_has_one_row():
    tags = [row[0] for row in serialize._FORMAT]
    classes = [row[1] for row in serialize._FORMAT]
    assert len(set(tags)) == len(tags) == 20
    assert len(set(classes)) == len(classes)


def _tags(obj):
    """The ``"type"`` tags of an encoded document, at any depth."""
    if isinstance(obj, list):
        return set().union(*map(_tags, obj))
    if isinstance(obj, dict):
        return set().union({obj.get("type")}, *map(_tags, obj.values()))
    return set()


def test_every_format_row_is_held_by_a_golden_report():
    # a row that no report holds is format nobody reads
    held = set()
    for name in os.listdir(GOLDEN):
        if name != "manifest.json":
            with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
                held |= _tags(json.load(fh)["report"])
    unheld = {row[0] for row in serialize._FORMAT} - held
    assert unheld == set()


@pytest.mark.parametrize("name, path, value", [
    ("annihilator-x1-x1cube.json", ["identical"], False),
    ("diag-n3-o2-q.json", ["achieved_order"], 3),
    ("annihilator-x1-x1cube.json", ["results", 0, "found"], False),
    ("pi-x1x2-n2-q.json", ["image", "entries", 0, 0, "text"], "x1[1,1]"),
    ("annihilator-x1-x1sq1.json", ["results", 0, "poly", "text"], "u^2 + 1"),
    ("pi-x1x2-n2-q.json", ["image", "n"], 3),
    ("star-q-o2.json", ["product", "order"], 3),
    ("diag-n3-o2-q.json", ["conjugator", "n"], 2),
    ("diag-n3-o2-q.json", ["conjugator", "order"], 1),
    ("centralizer-1-fp32003-d5.json", ["d"], 9),
], ids=["stability-identical", "diag-achieved-order", "annihilator-found", "commpoly-text",
        "bivariate-text", "matrix-n", "series-order", "series-field-matrix-n",
        "series-field-matrix-order", "bergman-d"])
def test_decoding_refuses_a_derived_key_that_disagrees_with_the_fields(name, path, value):
    # each key is a function of its record's fields or its value's stored keys, so
    # a document that flips it holds two contradictory facts
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    serialize.loads(json.dumps(doc))
    obj = doc["report"]
    for key in path[:-1]:
        obj = obj[key]
    assert obj[path[-1]] != value
    obj[path[-1]] = value
    with pytest.raises(BadReport, match=_REFUSED):
        serialize.loads(json.dumps(doc))


def _golden_doc(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def _set(path, value):
    """An edit of a report that sets the key at ``path`` to ``value``."""
    def edit(report):
        obj = report
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return report
    return edit


def _recoded(path, change):
    """An edit of a report that decodes the value at ``path``, changes it and writes the
    change's encoding there."""
    def edit(report):
        obj = report
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = serialize.encode(change(serialize.decode(obj[path[-1]], QQ)))
        return report
    return edit


_U = BivariatePoly(QQ, {(1, 0): 1})


def _double_a_fraction(report):
    """A diag report with the numerator and denominator of one entry of U_1 doubled."""
    entry = report["conjugator"]["coeffs"][1][0][1]
    for key in ("num", "den"):
        entry[key] = serialize.encode(serialize.decode(entry[key], QQ).scale(2))
    return report


#: Documents that nclab does not write, each a golden with one edit.  Every one of
#: them decoded before ``loads`` compared the report with its re-encoding, or failed
#: with an error other than BadReport.
REFUSALS = [
    ("pi-commutator-n2-q.json",
     lambda r: _commpolys(r, lambda terms: [[mono[::-1], c] for mono, c in terms])),
    ("pi-commutator-n2-q.json", lambda r: _commpolys(r, lambda terms: terms[::-1])),
    ("annihilator-x1-x1cube.json", _set(["results", 0, "note"], "")),
    ("eval-2x1-x2sq-q.json", _set(["poly", "expr"], "2*x1 - x2^2")),
    ("diag-n3-o2-q.json", _double_a_fraction),
    ("centralizer-1-fp32003-d5.json", _set(["dims"], [1, 1, 1, 2, 2, 7])),
    ("centralizer-1-fp32003-d5.json", _set(["f", "expr"], "x9")),
    ("centralizer-1-fp32003-d5.json", _set(["f", "expr"], "x1^10000000000")),
    ("annihilator-x1-x1cube.json", lambda r: _set(["sizes"], [])(_set(["results"], [])(r))),
    # a fact stored beside the data that determines it
    ("bergman-pipeline-seed1.json", _recoded(["stability"], lambda s: StabilityReport(
        s.f_text, s.g_text, [AnnihilatorResult(_U, 1, 3), *s.results[1:]]))),
    ("bergman-pipeline-seed1.json", _recoded(["outcomes", 0, "annihilator"],
                                             lambda a: AnnihilatorResult(_U, a.n, a.searched_bound))),
    ("bergman-pipeline-seed1.json", _set(["outcomes", 0, "star_c0_zero"], False)),
    ("star-q-o2.json", _recoded(["correspondence"], lambda c: CorrespondenceReport(
        CommPoly.one(QQ).scale(5), c.bracket))),
    ("commute-x1-x1cube-q.json", lambda r: _set(["commute"], False)(
        _recoded(["commutator"], lambda c: parse_free("x1*x2", c.s, QQ))(r))),
]


@pytest.mark.parametrize("name, edit", REFUSALS, ids=[
    "monomial-pairs-reversed", "terms-reversed", "extra-key", "free-text-out-of-order",
    "fraction-not-in-lowest-terms", "bergman-dims-not-its-generator-s", "unknown-generator",
    "run-past-the-letter-bound", "stability-of-no-size", "stability-not-its-outcomes",
    "outcome-not-its-stability", "star-c0-nonzero", "star-linear-part-not-h1",
    "commutator-not-f-g"])
def test_loads_refuses_a_document_that_nclab_does_not_write(name, edit):
    doc = _golden_doc(name)
    serialize.loads(json.dumps(doc))
    edited = edit(json.loads(json.dumps(doc["report"])))
    assert edited != doc["report"]
    with pytest.raises(BadReport):
        serialize.loads(json.dumps({**doc, "report": edited}))


def _free_texts(obj, path=()):
    """The paths of the ``expr`` of every freepoly in an encoded document."""
    if isinstance(obj, list):
        return [p for i, x in enumerate(obj) for p in _free_texts(x, path + (i,))]
    if not isinstance(obj, dict):
        return []
    own = [path + ("expr",)] if obj.get("type") == "freepoly" else []
    return own + [p for k, v in obj.items() for p in _free_texts(v, path + (k,))]


def test_a_free_text_changed_in_one_character_is_refused_or_read_as_written():
    # every character of every free text of every golden, changed to each of a few
    # others: loads either refuses the document or reads a value that nclab writes
    # as this very document, and raises nothing but BadReport
    alphabet = "x0129+-*^/ ("
    outcomes = {"refused": 0, "read": 0}
    for name in sorted(os.listdir(GOLDEN)):
        if name == "manifest.json":
            continue
        doc = _golden_doc(name)
        for path in _free_texts(doc["report"]):
            holder = doc["report"]
            for key in path[:-1]:
                holder = holder[key]
            text = holder["expr"]
            for i, new in ((i, c) for i in range(len(text)) for c in alphabet if c != text[i]):
                holder["expr"] = text[:i] + new + text[i + 1:]
                try:
                    got, rep = serialize.loads(json.dumps(doc))
                except BadReport:
                    outcomes["refused"] += 1
                    continue
                assert serialize.dumps({**got, "report": serialize.encode(rep)}) == \
                    serialize.dumps(doc), (name, holder["expr"])
                outcomes["read"] += 1
            holder["expr"] = text
    assert outcomes["refused"] and outcomes["read"]


_DELETED = object()


@pytest.mark.parametrize("path, value, raw", [
    (["report", "type"], _DELETED, KeyError),
    (["field"], {"kind": "foo"}, KeyError),
    (["field"], 7, AttributeError),
    (["report"], 1.5, TypeError),
    (["report", "image", "entries", 0, 0, "terms", 0, 1], "abc", ValueError),
    (["report", "image", "entries", 0, 0, "terms", 0, 1], "1/0", ZeroDivisionError),
    (["report", "image", "type"], "no-such-type", ValueError),
], ids=["no-type", "unknown-field-kind", "field-a-number", "report-a-number",
        "coefficient-not-a-number", "coefficient-over-zero", "unknown-type"])
def test_a_malformed_document_is_a_bad_report(path, value, raw):
    # ``loads`` refuses what ``decode`` cannot read; its raw error is kept as the cause
    with open(os.path.join(GOLDEN, "pi-x1x2-n2-q.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    if value is _DELETED:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    with pytest.raises(BadReport, match="^malformed report document: ") as e:
        serialize.loads(json.dumps(doc))
    assert type(e.value.__cause__) is raw


def test_text_that_is_not_json_is_a_bad_report():
    with pytest.raises(BadReport, match="JSONDecodeError"):
        serialize.loads("{")


def test_decoded_diag_report_re_verifies():
    with open(os.path.join(GOLDEN, "diag-n3-o2-q.json"), encoding="utf-8") as fh:
        doc, rep = serialize.loads(fh.read())
    assert doc["seed"] == 1729 and doc["bounds"] == {"n": 3, "order": 2}
    lam = [RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))
           for i in (1, 2, 3)]
    a1 = _perturbation(random.Random(1729), 3, QQ)
    a = SeriesFieldMatrix([GenericMatrix.diagonal(lam), a1,
                           GenericMatrix.zeros(3, QQ, RationalFunction)])
    assert rep.verify(a)
    u = rep.conjugator.coeffs
    rows = [list(row) for row in u[1].rows]
    rows[0][1] = rows[0][1] + RationalFunction.one(QQ)
    changed = SeriesFieldMatrix([u[0], GenericMatrix(rows), u[2]])
    bad = DiagonalReport(changed, rep.diagonal)
    assert not bad.verify(a)


def test_series_of_matrices_round_trips_through_the_series_row():
    f, g, tensor = diagonal_generic_pair(2, QQ)
    ctx = StarContext(tensor, 2)
    fhat, ghat = quantize_lift(f, ctx), quantize_lift(g, ctx)
    lifted = fhat * ghat - ghat * fhat
    # a StarSeries has no report row; its coefficients do, as a plain series
    comm = FormalSeries(lifted.coeffs)
    assert not comm.coefficient(1).is_zero
    assert serialize.encode(comm)["type"] == "series"
    assert round_trip(comm) == comm
    with pytest.raises(ValueError):
        serialize.decode({"type": "series-matrix"}, QQ)


def test_unknown_values_are_refused():
    with pytest.raises(TypeError):
        serialize.encode(object())
    with pytest.raises(TypeError):
        serialize.encode(1.5)
    with pytest.raises(ValueError):
        serialize.decode({"type": "no-such-type"}, QQ)



def _reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_renderer_matches_json_on_every_golden_document():
    for name in sorted(os.listdir(GOLDEN)):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert serialize.dumps(doc) == _reference(doc), name
        if name != "manifest.json":
            assert serialize.dumps(doc) == text, name


# quotes, backslashes, control, non-ASCII and astral characters next to arbitrary ones
_specials = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"]
_strings = st.text(st.one_of(st.characters(), st.sampled_from(_specials)))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**63) - 1),
    _strings,
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=25,
)


@given(_trees)
def test_renderer_matches_json_on_generated_trees(doc):
    assert serialize.dumps(doc) == _reference(doc)


def test_renderer_keeps_empty_containers_and_bools_apart_from_ints():
    doc = {"a": {}, "b": [[], {}, ({},)], "c": [True, 1, False, 0, None], "": ()}
    assert serialize.dumps(doc) == _reference(doc)
    assert serialize.dumps([True, 1]) == "[\n  true,\n  1\n]\n"
    assert serialize.dumps({}) == "{}\n"


@pytest.mark.parametrize(
    "doc", [1.5, {"a": [0.0]}, [object()], {"a": {1, 2}}, {1: "int key"}, b"bytes"],
    ids=["float", "nested-float", "object", "set", "int-key", "bytes"],
)
def test_renderer_refuses_what_is_not_a_report_value(doc):
    with pytest.raises(TypeError):
        serialize.dumps(doc)
