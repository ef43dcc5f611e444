"""Minimal annihilating polynomials of commuting pairs, and their stability."""

import json
import os
from unittest import mock

import pytest

from oracles import fraction_kernel, matmul
from nclab import linalg
from nclab.errors import FieldMismatch, NotCommuting
from nclab.fields import GF, QQ
from nclab.freealg import parse_free
from nclab.genmat import (
    AnnihilatorResult,
    BivariatePoly,
    GenericMatrix,
    annihilator_stability,
    find_annihilator,
    pi_reduce,
)
from nclab.rings import CommPoly, Variable


def bp(terms, field=QQ):
    return BivariatePoly(field, terms)


def test_bivariate_refuses_a_coefficient_from_another_field():
    with pytest.raises(FieldMismatch):
        BivariatePoly(GF(7), {(1, 0): QQ.scalar(3)})
    assert str(BivariatePoly(GF(7), {(1, 0): GF(7).scalar(3)})) == "3*u"


def test_annihilator_needs_no_dense_elimination():
    # the inputs of the golden annihilator-x1-x1cube.json
    f, g = parse_free("x1", 2, QQ), parse_free("x1^3", 2, QQ)
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("rref called")):
        results = [find_annihilator(pi_reduce(f, n), pi_reduce(g, n), 4) for n in (1, 2, 3)]
    assert [r.poly for r in results] == [bp({(3, 0): 1, (0, 1): -1})] * 3


class TestFindAnnihilator:
    def test_square_relation(self):
        f = pi_reduce(parse_free("x1", 1, QQ), 2)
        g = pi_reduce(parse_free("x1^2", 1, QQ), 2)
        res = find_annihilator(f, g, 3)
        assert res.found
        assert res.poly == bp({(2, 0): 1, (0, 1): -1})  # u^2 - v
        assert res.total_degree == 2
        assert res.verify(f, g)

    def test_equal_inputs(self):
        f = pi_reduce(parse_free("x1", 1, QQ), 2)
        res = find_annihilator(f, f, 2)
        assert res.poly == bp({(1, 0): 1, (0, 1): -1})  # u - v

    def test_independent_diagonals_have_no_relation(self):
        names = ["a", "b", "c", "d"]
        polys = [CommPoly.variable(Variable.aux(n, 1), QQ) for n in names]
        f = GenericMatrix.diagonal(polys[:2])
        g = GenericMatrix.diagonal(polys[2:])
        res = find_annihilator(f, g, 3)
        assert not res.found
        assert res.searched_bound == 3
        # oracle: the flattened monomial vectors have full column rank
        monos = [(a, b) for t in range(4) for a in range(t + 1) for b in [t - a]]
        support = {}
        cols = []
        for a, b in monos:
            mat = f.identity_like()
            for factor in [f] * a + [g] * b:
                mat = mat * factor
            col = {}
            for i in range(2):
                for m, c in mat.rows[i][i].terms.items():
                    col[(i, m)] = c
            cols.append(col)
            for k in col:
                support.setdefault(k, len(support))
        rows = [[0] * len(cols) for _ in support]
        for ci, col in enumerate(cols):
            for k, v in col.items():
                rows[support[k]][ci] = v
        assert fraction_kernel(rows, len(cols)) == []

    def test_not_commuting_rejected(self):
        f = pi_reduce(parse_free("x1", 2, QQ), 2)
        g = pi_reduce(parse_free("x2", 2, QQ), 2)
        with pytest.raises(NotCommuting):
            find_annihilator(f, g, 2)

    def test_minimality_no_lower_degree_annihilator(self):
        # For (x1, x1^2 + 1) the minimal relation has degree 2; degree 1 must fail
        f = pi_reduce(parse_free("x1", 1, QQ), 2)
        g = pi_reduce(parse_free("x1^2 + 1", 1, QQ), 2)
        res_low = find_annihilator(f, g, 1)
        assert not res_low.found
        res = find_annihilator(f, g, 3)
        assert res.found and res.total_degree == 2

    def test_normalized_leading_coefficient(self):
        f = pi_reduce(parse_free("2*x1", 1, QQ), 2)
        g = pi_reduce(parse_free("x1^2", 1, QQ), 2)
        res = find_annihilator(f, g, 3)
        # leading graded-lex monomial has coefficient one
        (lead_mono, lead_coeff) = res.poly.sorted_terms()[0]
        assert lead_coeff == 1


class TestStability:
    def test_quadratic_shift_family(self):
        f = parse_free("x1", 2, QQ)
        g = parse_free("x1^2 + 1", 2, QQ)
        rep = annihilator_stability(f, g, 3, 3)
        assert rep.all_found and rep.identical
        poly = next(r.poly for r in rep.results if r.found)
        assert poly == bp({(2, 0): 1, (0, 1): -1, (0, 0): 1})  # u^2 - v + 1

    def test_equal_elements(self):
        f = parse_free("x1", 2, QQ)
        rep = annihilator_stability(f, f, 2, 2)
        assert rep.identical
        assert next(r.poly for r in rep.results if r.found) == bp({(1, 0): 1, (0, 1): -1})

    def test_not_commuting(self):
        f = parse_free("x1", 2, QQ)
        g = parse_free("x2", 2, QQ)
        with pytest.raises(NotCommuting):
            annihilator_stability(f, g, 2, 2)

    def test_over_prime_field(self):
        f7 = GF(7)
        f = parse_free("x1", 2, f7)
        g = parse_free("x1^3", 2, f7)
        rep = annihilator_stability(f, g, 2, 3)
        assert rep.all_found and rep.identical
        assert next(r.poly for r in rep.results if r.found) == bp({(3, 0): 1, (0, 1): -1}, f7)

    def test_found_results_reverify(self):
        f = parse_free("x1^2 + x1", 2, QQ)
        g = parse_free("x1", 2, QQ)
        rep = annihilator_stability(f, g, 3, 3)
        for n, res in enumerate(rep.results, 1):
            assert res.n == n and res.verify(pi_reduce(f, n), pi_reduce(g, n))


def _pipeline_golden_pairs():
    """The distinct (f, g) texts of the recorded bergman-pipeline commands."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    pairs = []
    for argv in manifest.values():
        if argv[0] != "bergman-pipeline":
            continue
        flags = {}
        for token, following in zip(argv, argv[1:] + [None]):
            name, eq, value = token.partition("=")
            if name in ("--f", "--g"):
                flags[name] = value if eq else following
        pair = (flags["--f"], flags["--g"])
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def _oracle_is_zero(poly, f, g):
    """Whether the sum of c * f^a * g^b, from list-of-list products, is the zero matrix."""
    n, field = f.n, f.field
    one, zero = CommPoly.one(field), CommPoly.zero(field)
    total = [[zero] * n for _ in range(n)]
    for (a, b), c in poly.terms.items():
        term = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for factor in [f] * a + [g] * b:
            term = matmul(term, [list(row) for row in factor.rows])
        total = [[t + e.scale(c) for t, e in zip(trow, erow)] for trow, erow in zip(total, term)]
    return all(e.is_zero for row in total for e in row)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("f_text, g_text", _pipeline_golden_pairs())
def test_verify_agrees_with_the_matrix_product_oracle(f_text, g_text, n, field):
    f = pi_reduce(parse_free(f_text, 2, field), n)
    g = pi_reduce(parse_free(g_text, 2, field), n)
    res = find_annihilator(f, g, 2)
    assert res.found
    assert res.verify(f, g) and _oracle_is_zero(res.poly, f, g)
    # one coefficient changed: P(f, g) becomes that monomial's value, not zero
    (lead, c), *_ = res.poly.sorted_terms()
    changed = BivariatePoly(field, {**res.poly.terms, lead: c + 1})
    wrong = AnnihilatorResult(changed, n, 2)
    assert not wrong.verify(f, g) and not _oracle_is_zero(changed, f, g)
