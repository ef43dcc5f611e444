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
- ``eval``: parse(pretty(f)) = f.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nclab import genmat
from nclab.centralizer import bergman_check
from nclab.errors import ScalarInput
from nclab.fields import GF, QQ
from nclab.freealg import FreePoly, parse_free, pretty

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
    out, power = FreePoly.zero(2, h.field), FreePoly.one(2, h.field)
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
    ours = genmat.annihilator_stability(f, g, [1, 2], dmax)
    theirs = genmat.annihilator_stability(g, f, [1, 2], dmax)
    assert ours.all_found and theirs.all_found
    for a, b in zip(ours.results, theirs.results):
        swapped = genmat.BivariatePoly(field, {(v, u): c for (u, v), c in a.poly.terms.items()})
        assert _leading_one(swapped) == _leading_one(b.poly)
        assert a.total_degree == b.total_degree


@given(st.dictionaries(st.lists(st.integers(1, 3), max_size=3).map(tuple),
                       st.fractions(-5, 5, max_denominator=4), max_size=4),
       st.sampled_from(FIELDS))
def test_pretty_parses_back_to_the_same_element(terms, field):
    if field.p:
        terms = {w: c.numerator * pow(c.denominator, -1, field.p) for w, c in terms.items()}
    f = FreePoly(3, field, terms)
    assert parse_free(pretty(f), 3, field) == f
