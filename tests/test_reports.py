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
from nclab.errors import BadReport, DivisionByZero, EngineError
from nclab.fields import GF, QQ, Field
from nclab.freealg import parse_free
from nclab.genmat import FormalSeries, GenericMatrix, annihilator_stability, pi_reduce
from nclab.quantize import StarContext, entry_pairing_tensor, quantize_lift, verify_correspondence
from nclab.rings import CommPoly, RationalFunction, Variable
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
    rep = annihilator_stability(f, g, {1, 2}, 3)
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
    a = SeriesFieldMatrix(1, [a0, a1])
    rep = successive_diagonalize(a, 1)
    round_trip(rep)


def _ratfun_doc(den_terms, field=QQ):
    one = serialize.encode(CommPoly.one(field))
    den = {"type": "commpoly", "text": "", "terms": den_terms}
    return {"type": "ratfun", "num": one, "den": den}


@pytest.mark.parametrize(
    "den_terms",
    [
        [[[["lam1", 1]], "1"]],  # lam1
        [[[["lam1", 1]], "1"], [[["lam2", 1]], "1"]],  # lam1 + lam2
        [[[["lam1", 2]], "1"], [[["lam2", 1]], "-1"]],  # lam1^2 - lam2
    ],
)
def test_ratfun_outside_the_ring_is_a_bad_report(den_terms):
    with pytest.raises(BadReport) as exc:
        serialize.decode(_ratfun_doc(den_terms), QQ)
    assert isinstance(exc.value, EngineError) and exc.value.code == "bad-report"


def test_ratfun_decoding_divides_out_the_factors():
    # the denominator 2 (lam1 - lam2)(lam2 - lam3) decodes to 1/2 over the monic product
    lam = [CommPoly.variable(Variable.aux("lam", i), QQ) for i in (1, 2, 3)]
    den = ((lam[0] - lam[1]) * (lam[1] - lam[2])).scale(QQ.scalar(2))
    r = serialize.decode(_ratfun_doc(serialize.encode(den)["terms"]), QQ)
    assert r.num == CommPoly.constant(QQ.scalar("1/2"))
    assert r.den == (lam[0] - lam[1]) * (lam[1] - lam[2])
    with pytest.raises(DivisionByZero):
        serialize.decode(_ratfun_doc([]), QQ)


def _commpoly_terms(obj):
    """The terms of every commpoly in an encoded document."""
    if isinstance(obj, list):
        return [t for x in obj for t in _commpoly_terms(x)]
    if not isinstance(obj, dict):
        return []
    own = obj["terms"] if obj.get("type") == "commpoly" else []
    return own + [t for v in obj.values() for t in _commpoly_terms(v)]


def _reverse_monomials(obj):
    """A copy of an encoded document with the pairs of every commpoly monomial reversed."""
    if isinstance(obj, list):
        return [_reverse_monomials(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: _reverse_monomials(v) for k, v in obj.items()}
    if obj.get("type") == "commpoly":
        out["terms"] = [[mono[::-1], c] for mono, c in obj["terms"]]
    return out


@pytest.mark.parametrize(
    "name, multi",
    [("star-fp7-o4.json", 32), ("pi-commutator-n2-q.json", 12)],
)
def test_a_monomial_decodes_whatever_the_order_of_its_variables(name, multi):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        doc, rep = serialize.loads(fh.read())
    # the monomials of more than one variable, whose order reversal changes
    assert sum(len(mono) > 1 for mono, _ in _commpoly_terms(doc["report"])) == multi
    field = Field.from_dict(doc["field"])
    assert serialize.decode(_reverse_monomials(doc["report"]), field) == rep


@pytest.mark.parametrize(
    "terms",
    [
        [[[["x1[1,1]", 1], ["x1[1,1]", 2]], "1"]],  # a repeated variable
        [[[["x1[1,1]", 1], ["x1[1,2]", 1], ["x1[1,1]", 1]], "1"]],
        [[[["x1[1,1]", 0]], "1"]],  # a zero exponent
        [[[["lam1", -1]], "1"]],
        [[[["lam1", 1], ["lam2", 1]], "1"], [[["lam2", 1], ["lam1", 1]], "2"]],  # a monomial twice
    ],
    ids=["repeated", "repeated-apart", "zero-exponent", "negative-exponent", "twice"],
)
def test_a_malformed_monomial_is_a_bad_report(terms):
    with pytest.raises(BadReport):
        serialize.decode({"type": "commpoly", "text": "", "terms": terms}, QQ)


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
    round_trip(serialize.EvalReport(f, "2", 2))
    g = parse_free("x1", 2, QQ)
    from nclab.freealg import commutator

    c = commutator(f, g)
    round_trip(serialize.CommuteReport(f, g, c, c.is_zero))
    round_trip(serialize.PiReport(g, 2, pi_reduce(g, 2)))
    round_trip(serialize.ALReport(2, 4, True, True, True))
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


def test_decoded_diag_report_re_verifies():
    with open(os.path.join(GOLDEN, "diag-n3-o2-q.json"), encoding="utf-8") as fh:
        doc, rep = serialize.loads(fh.read())
    assert doc["seed"] == 1729 and doc["bounds"] == {"n": 3, "order": 2}
    lam = [RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))
           for i in (1, 2, 3)]
    a1 = _perturbation(random.Random(1729), 3, QQ)
    a = SeriesFieldMatrix(2, [GenericMatrix.diagonal(lam), a1,
                              GenericMatrix.zeros(3, QQ, RationalFunction)])
    assert rep.verify(a)
    u = rep.conjugator.coeffs
    rows = [list(row) for row in u[1].rows]
    rows[0][1] = rows[0][1] + RationalFunction.one(QQ)
    changed = SeriesFieldMatrix(2, [u[0], GenericMatrix(rows), u[2]])
    bad = DiagonalReport(changed, rep.diagonal, rep.achieved_order, rep.eigenvalues)
    assert not bad.verify(a)


def test_series_of_matrices_round_trips_through_the_series_row():
    f, g, tensor = diagonal_generic_pair(2, QQ)
    ctx = StarContext(tensor, 2)
    fhat, ghat = quantize_lift(f, ctx), quantize_lift(g, ctx)
    lifted = fhat * ghat - ghat * fhat
    # a StarSeries has no report row; its coefficients do, as a plain series
    comm = FormalSeries(lifted.order, lifted.coeffs)
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
