"""Metamorphic relations: each verdict against a symmetry whose effect the mathematics fixes.

No oracle is needed: the engine runs twice, on an input and on its image, and
the two answers must be related as the theorem says.
- ``centralizer``: C(f) is carried onto C(f') by the automorphism that swaps
  x1 and x2 and by the anti-automorphism that reverses words, and
  C(a f + b) = C(f).  So the dims and the single-generator verdict are
  unchanged.  A rank can only drop mod p, so for integer f the dims over F_p
  are at least the dims over Q.  K_m is K_d cut at degree m, so a lower bound
  gives a prefix of the dims, and it passes where the higher bound passes.
  Two paths must also agree within one run: the powers of h span K_d
  (a membership test) exactly when dim K_d = d // deg h + 1 (a rank count).
- ``annihilator``: P(f, g) = 0 exactly when P'(g, f) = 0 for P'(u, v) =
  P(v, u).  For f = p(h) and g = q(h) the minimal annihilator is unique up
  to a scalar, so the two agree once each is scaled to a leading 1.
  (f, g) -> (af + b, g) sends P(u, v) to P((u - b)/a, v), of the same
  total degree.
- ``bergman-pipeline``: (f, g) -> (af + b, g) substitutes into each size's
  annihilator as above.  The lift of bI commutes with every lift, so the star
  commutator, and with it ``star_linear_part``, is scaled by a, and the
  conclusion is unchanged.
- ``probe``: swapping the pair swaps the annihilator, negates the star
  commutator and keeps the conclusion.
- ``commute``: [g, f] = -[f, g], in the free algebra and on the images.
- ``pi``: pi_n(f) with the generators permuted is pi_n(f) with the entry
  variables x<l>[i,j] permuted alike.
- ``diag``: permuting the lam_i and conjugating the perturbation M by the
  same permutation matrix conjugates u and D by it too.
- ``eval``: parse(str(f)) = f.

The images of sparse and cancelling inputs drive the matrices' sparse
storage through permuted patterns of zero entries.
"""

from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nclab import genmat, serialize
from nclab.centralizer import (
    bergman_check,
    bergman_pipeline,
    commuting_matrix_probe,
    diagonal_generic_pair,
)
from nclab.diagonalize import SeriesFieldMatrix, successive_diagonalize
from nclab.errors import ScalarInput
from nclab.fields import GF, QQ
from nclab.freealg import FreePoly, commutator, parse_free
from nclab.genmat import GenericMatrix
from nclab.quantize import StarContext, entry_pairing_tensor, quantize_lift
from nclab.rings import CommPoly, RationalFunction, Variable, mono_from_dict

FIELDS = [QQ, GF(7), GF(32003)]

_coefficients = st.integers(-3, 3).filter(bool)
_words = st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple)
# integer nonconstant f in k<x1, x2>, as word -> coefficient
_integer_f = st.dictionaries(_words, _coefficients, min_size=1, max_size=3)
_d = 4


def _verdict(terms, field, d=_d):
    rep = bergman_check(FreePoly(2, field, terms), d)
    return rep.dims, rep.passed


@given(_integer_f, st.sampled_from(FIELDS))
def test_centralizer_is_invariant_under_swapping_the_generators(terms, field):
    swapped = {tuple(3 - g for g in w): c for w, c in terms.items()}
    assert _verdict(swapped, field) == _verdict(terms, field)


@given(_integer_f, st.sampled_from(FIELDS))
def test_centralizer_is_invariant_under_reversing_words(terms, field):
    reversed_terms = {w[::-1]: c for w, c in terms.items()}
    assert _verdict(reversed_terms, field) == _verdict(terms, field)


@given(_integer_f, _coefficients, st.integers(-3, 3), st.sampled_from(FIELDS))
def test_centralizer_is_invariant_under_an_affine_change_of_f(terms, a, b, field):
    affine = {w: a * c for w, c in terms.items()}
    affine[()] = b
    assert _verdict(affine, field) == _verdict(terms, field)


@given(_integer_f, st.sampled_from([2, 3, 7, 32003]))
def test_centralizer_dims_mod_p_are_at_least_the_dims_over_q(terms, p):
    try:
        dims_p, _ = _verdict(terms, GF(p))
    except ScalarInput:  # every coefficient vanished mod p
        assume(False)
    dims_q, _ = _verdict(terms, QQ)
    assert all(a >= b for a, b in zip(dims_p, dims_q)), (dims_p, dims_q)


@given(_integer_f, st.integers(0, _d - 1), st.sampled_from(FIELDS))
def test_centralizer_at_a_lower_bound_is_a_prefix(terms, m, field):
    dims, passed = _verdict(terms, field)
    lower_dims, lower_passed = _verdict(terms, field, m)
    assert lower_dims == dims[: m + 1]
    assert lower_passed or not passed


@given(_integer_f, st.sampled_from(FIELDS))
def test_single_generator_verdict_agrees_with_the_dims(terms, field):
    rep = bergman_check(FreePoly(2, field, terms), _d)
    if rep.generator is not None:
        assert rep.passed == (rep.dims[-1] == _d // rep.generator.degree() + 1)


def _leading_one(poly):
    """The annihilator's terms scaled so that its graded-lex largest monomial has coefficient 1."""
    field = poly.field
    lead = poly.terms[max(poly.terms, key=lambda k: (k[0] + k[1], k[0]))]
    return {k: field.scalar(c) / field.scalar(lead) for k, c in poly.terms.items()}


def _univariate(h, coefficients):
    """sum_k coefficients[k] h^k in the free algebra."""
    out, power = FreePoly(2, h.field), FreePoly.one(2, h.field)
    for c in coefficients:
        out = out + FreePoly.constant(h.field.scalar(c), 2) * power
        power = power * h
    return out


_h = st.dictionaries(st.lists(st.integers(1, 2), min_size=1, max_size=2).map(tuple),
                     _coefficients, min_size=1, max_size=2)
_univariates = st.lists(st.integers(-2, 2), min_size=2, max_size=3).filter(lambda cs: cs[-1])


@settings(max_examples=25)  # each example reduces to 2 x 2 generic matrices twice
@given(_h, _univariates, _univariates, st.sampled_from(FIELDS))
def test_swapping_the_pair_swaps_the_annihilator(h_terms, p, q, field):
    h = FreePoly(2, field, h_terms)
    f, g = _univariate(h, p), _univariate(h, q)
    dmax = max(len(p), len(q)) - 1  # the curve (p(t), q(t)) has at most this degree
    ours = genmat.annihilator_stability(f, g, 2, dmax)
    theirs = genmat.annihilator_stability(g, f, 2, dmax)
    assert ours.all_found and theirs.all_found
    for a, b in zip(ours.results, theirs.results):
        swapped = genmat.BivariatePoly(field, {(v, u): c for (u, v), c in a.poly.terms.items()})
        assert _leading_one(swapped) == _leading_one(b.poly)
        assert a.total_degree == b.total_degree


@settings(max_examples=15)
@given(_h, _univariates, _univariates, _coefficients, st.integers(-3, 3), st.sampled_from(FIELDS))
def test_an_affine_change_of_f_substitutes_into_the_annihilator(h_terms, p, q, a, b, field):
    h = FreePoly(2, field, h_terms)
    f, g = _univariate(h, p), _univariate(h, q)
    moved = f.scale(a) + FreePoly.constant(field.scalar(b), 2)
    dmax = max(len(p), len(q)) - 1
    ours = genmat.annihilator_stability(f, g, 2, dmax)
    theirs = genmat.annihilator_stability(moved, g, 2, dmax)
    assert ours.all_found and theirs.all_found
    for mine, other in zip(ours.results, theirs.results):
        assert _leading_one(_substituted(mine.poly, a, b)) == _leading_one(other.poly)
        assert mine.total_degree == other.total_degree


def _substituted(poly, a, b):
    """P((u - b)/a, v) for the BivariatePoly P: c u^i v^j -> c a^-i (u - b)^i v^j, expanded."""
    field = poly.field
    inverse, shift = field.scalar(a).inverse(), -field.scalar(b)
    terms = {}
    for (i, j), c in poly.terms.items():
        for k in range(i + 1):
            term = field.scalar(c) * inverse**i * field.scalar(comb(i, k)) * shift ** (i - k)
            terms[k, j] = terms.get((k, j), field.scalar(0)) + term
    return genmat.BivariatePoly(field, terms)


_STAR_FIELDS = [QQ, GF(7)]


def _verdicts(rep):
    """The trdeg verdict, as the report encodes it, and the conclusion."""
    return serialize.encode(rep)["trdeg_verdict"], rep.conclusion


@settings(max_examples=10)
@given(_h, _univariates, _univariates, _coefficients, st.integers(-3, 3),
       st.sampled_from(_STAR_FIELDS))
def test_an_affine_change_of_f_carries_through_the_pipeline(h_terms, p, q, a, b, field):
    h = FreePoly(2, field, h_terms)
    f, g = _univariate(h, p), _univariate(h, q)
    moved = f.scale(a) + FreePoly.constant(field.scalar(b), 2)
    assume(not moved.is_constant)  # a vanishes mod p
    dmax, ctx = max(len(p), len(q)) - 1, StarContext(entry_pairing_tensor(2, 2, field), 1)
    ours = bergman_pipeline(f, g, 2, dmax, ctx)
    theirs = bergman_pipeline(moved, g, 2, dmax, ctx)
    assert ours.commute and theirs.commute
    assert _verdicts(ours) == _verdicts(theirs)
    for mine, other in zip(ours.outcomes, theirs.outcomes, strict=True):
        assert _leading_one(_substituted(mine.annihilator.poly, a, b)) == \
            _leading_one(other.annihilator.poly)
        assert other.star_linear_part == mine.star_linear_part.scale(a)
        assert other.star_c1_zero == mine.star_c1_zero


@settings(max_examples=10)
@given(_h, _univariates, _univariates, st.integers(1, 2), st.sampled_from(_STAR_FIELDS))
def test_swapping_the_probe_pair_swaps_the_annihilator_and_negates_c1(h_terms, p, q, n, field):
    h = FreePoly(2, field, h_terms)
    f, g = (genmat.pi_reduce(_univariate(h, cs), n) for cs in (p, q))
    dmax, ctx = max(len(p), len(q)) - 1, StarContext(entry_pairing_tensor(2, n, field), 1)
    fhat, ghat = quantize_lift(f, ctx), quantize_lift(g, ctx)
    ours = commuting_matrix_probe(fhat, ghat, dmax)
    theirs = commuting_matrix_probe(ghat, fhat, dmax)
    assert _verdicts(ours) == _verdicts(theirs)
    (mine,), (other,) = ours.outcomes, theirs.outcomes
    swapped = {(v, u): c for (u, v), c in mine.annihilator.poly.terms.items()}
    assert _leading_one(genmat.BivariatePoly(field, swapped)) == _leading_one(other.annihilator.poly)
    assert other.star_linear_part == -mine.star_linear_part


@pytest.mark.parametrize("field", _STAR_FIELDS, ids=["q", "fp7"])
@pytest.mark.parametrize("n", [1, 2])
def test_swapping_the_diagonal_pair_negates_c1(n, field):
    # no annihilator, and a nonzero star commutator: the trdeg-2 pair
    f, g, tensor = diagonal_generic_pair(n, field)
    ctx = StarContext(tensor, 2)
    fhat, ghat = quantize_lift(f, ctx), quantize_lift(g, ctx)
    ours, theirs = commuting_matrix_probe(fhat, ghat, 3), commuting_matrix_probe(ghat, fhat, 3)
    (mine,), (other,) = ours.outcomes, theirs.outcomes
    assert not mine.annihilator.found and not other.annihilator.found
    assert not mine.star_linear_part.is_zero
    assert other.star_linear_part == -mine.star_linear_part
    assert ours.conclusion == theirs.conclusion


_free2 = st.dictionaries(st.lists(st.integers(1, 2), max_size=3).map(tuple), _coefficients,
                         max_size=3)


@settings(max_examples=30)
@given(_free2, _free2, st.integers(1, 2), st.sampled_from(_STAR_FIELDS))
def test_the_commutator_is_antisymmetric(f_terms, g_terms, n, field):
    f, g = FreePoly(2, field, f_terms), FreePoly(2, field, g_terms)
    assert commutator(g, f) == -commutator(f, g)
    a, b = genmat.pi_reduce(f, n), genmat.pi_reduce(g, n)
    assert b * a - a * b == -(a * b - b * a)
    assert genmat.pi_reduce(commutator(g, f), n) == -(a * b - b * a)


_free3 = st.dictionaries(st.lists(st.integers(1, 3), max_size=3).map(tuple), _coefficients,
                         min_size=1, max_size=4)


def _renamed(m, sigma):
    """m with every entry variable x<l>[i,j] renamed x<sigma[l]>[i,j]."""
    def rename(e):
        return CommPoly(e.field, {
            mono_from_dict({Variable.entry(sigma[v[1]], v[2], v[3]): k for v, k in mono}): c
            for mono, c in e.terms.items()})

    return GenericMatrix([[rename(e) for e in row] for row in m.rows])


@settings(max_examples=30)
@given(_free3, st.permutations([1, 2, 3]), st.integers(1, 2),
       st.sampled_from([QQ, GF(2), GF(7)]))
def test_pi_commutes_with_permuting_the_generators(terms, order, n, field):
    sigma = dict(zip([1, 2, 3], order))
    f = FreePoly(3, field, terms)
    permuted = FreePoly(3, field, {tuple(sigma[g] for g in w): c for w, c in terms.items()})
    assert genmat.pi_reduce(permuted, n) == _renamed(genmat.pi_reduce(f, n), sigma)


def _diagonalized(lam, m, field, order):
    """successive_diagonalize of diag(lam<k> for k in lam) + h M, M an integer grid."""
    ratfun = RationalFunction
    one = ratfun.one(field)
    a0 = GenericMatrix.diagonal(
        ratfun.from_poly(CommPoly.variable(Variable.aux("lam", k), field)) for k in lam)
    a1 = GenericMatrix([[one.scale(c) for c in row] for row in m])
    zero = GenericMatrix.zeros(len(lam), field, ratfun)
    return successive_diagonalize(SeriesFieldMatrix([a0, a1] + [zero] * (order - 1)))


def _conjugated(m, perm):
    """P m P^T for the permutation matrix P with (P m P^T)[i][j] = m[perm[i]][perm[j]]."""
    rows = m.rows
    return GenericMatrix([[rows[i][j] for j in perm] for i in perm])


@st.composite
def _diag_cases(draw):
    n = draw(st.integers(2, 3))
    order = draw(st.integers(1, 3 if n == 2 else 2))
    # about half the entries zero, so the conjugation moves a pattern of zeros
    m = [[draw(st.sampled_from([0, 0, -2, -1, 1, 2])) for _ in range(n)] for _ in range(n)]
    return n, order, m, draw(st.permutations(range(n))), draw(st.sampled_from([QQ, GF(5)]))


@settings(max_examples=12, deadline=None)
@given(_diag_cases())
def test_diag_commutes_with_permuting_the_eigenvalues(case):
    n, order, m, perm, field = case
    rep = _diagonalized(range(1, n + 1), m, field, order)
    moved = _diagonalized([k + 1 for k in perm], [[m[i][j] for j in perm] for i in perm],
                          field, order)
    lam = rep.diagonal.coeffs[0].diagonal_entries()
    assert moved.diagonal.coeffs[0].diagonal_entries() == [lam[k] for k in perm]
    for ours, theirs in ((rep.conjugator, moved.conjugator), (rep.diagonal, moved.diagonal)):
        assert [_conjugated(c, perm) for c in ours.coeffs] == list(theirs.coeffs)


@given(st.dictionaries(st.lists(st.integers(1, 3), max_size=3).map(tuple),
                       st.fractions(-5, 5, max_denominator=4), max_size=4),
       st.sampled_from(FIELDS))
def test_text_parses_back_to_the_same_element(terms, field):
    if field.p:
        terms = {w: c.numerator * pow(c.denominator, -1, field.p) for w, c in terms.items()}
    f = FreePoly(3, field, terms)
    assert parse_free(str(f), 3, field) == f
