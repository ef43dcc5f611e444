"""The raw-coefficient core against sympy, its invariants and its field boundary.

``SparseSum`` stores raw values (ints in ``[0, p)`` over F_p; over Q an int
when integral, else a lowest-terms Fraction) and builds ``Scalar`` only at
its API.  Every operation here is compared with the same computation in
sympy (a test-only oracle) over Z or Q, reduced mod p afterwards: the inputs
over F_p are ints, so reduction is a ring homomorphism.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import nclab
from samples import random_commpoly, random_freepoly, random_scalar
from nclab.cli import main
from nclab.errors import FieldMismatch
from nclab.fields import GF, NEG_INF, QQ, Scalar
from nclab.freealg import FreePoly
from nclab.genmat import BivariatePoly, GenericMatrix
from nclab.rings import CommPoly, Variable, mono_degree, mono_from_dict

SRC = os.path.dirname(os.path.dirname(nclab.__file__))
FIELDS = [QQ, GF(2), GF(7), GF(32003)]
VARS = (Variable.entry(1, 1, 1), Variable.entry(2, 1, 2), Variable.aux("t", 1))
SYMS = [sympy.Symbol(str(v)) for v in VARS]


def coefficients(field):
    if field.p == 0:  # integral and fractional values
        return st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.integers(-field.p - 5, field.p + 5)  # unreduced on purpose


def polys(field, max_terms=4):
    exps = st.tuples(*[st.integers(0, 2)] * len(VARS))
    return st.dictionaries(exps, coefficients(field), max_size=max_terms).map(
        lambda d: CommPoly(field, {mono_from_dict(dict(zip(VARS, e))): c for e, c in d.items()})
    )


def to_sympy(p: CommPoly):
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= SYMS[VARS.index(v)] ** e
        total += term
    return sympy.expand(total)


def from_sympy(expr, field) -> CommPoly:
    poly = sympy.Poly(sympy.expand(expr), *SYMS, domain="QQ")
    return CommPoly(field, {
        mono_from_dict(dict(zip(VARS, e))): Fraction(int(c.p), int(c.q)) for e, c in poly.terms()
    })


def assert_canonical(p: CommPoly):
    """No stored term is a Scalar or zero; values are the field's raw values."""
    for c in p.terms.values():
        assert not isinstance(c, Scalar) and c != 0
        if p.field.p:
            assert type(c) is int and 0 <= c < p.field.p
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ring_operations_match_sympy(field):
    @settings(max_examples=40, deadline=None)
    @given(polys(field), polys(field), st.integers(0, 3), coefficients(field))
    def check(a, b, k, c):
        sa, sb = to_sympy(a), to_sympy(b)
        cases = [
            (a + b, sa + sb),
            (a - b, sa - sb),
            (-a, -sa),
            (a * b, sa * sb),
            (a**k, sa**k),
            (a.scale(c), sa * sympy.Rational(c.numerator, c.denominator)),
        ] + [(a.diff(v), sympy.diff(sa, s)) for v, s in zip(VARS, SYMS)]
        for ours, expected in cases:
            assert_canonical(ours)
            assert ours == from_sympy(expected, field)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_evaluate_matches_sympy(field):
    @settings(max_examples=30, deadline=None)
    @given(polys(field), st.lists(coefficients(field), min_size=len(VARS), max_size=len(VARS)))
    def check(a, values):
        value = a.evaluate({v: field.scalar(x) for v, x in zip(VARS, values)})
        subs = {s: sympy.Rational(x.numerator, x.denominator) for s, x in zip(SYMS, values)}
        expected = to_sympy(a).subs(subs)
        assert value == field.scalar(Fraction(int(expected.p), int(expected.q)))
        assert not isinstance(value.value, Scalar)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_generic_matrix_products_match_sympy(field):
    @settings(max_examples=25, deadline=None)
    @given(st.lists(polys(field, max_terms=3), min_size=8, max_size=8))
    def check(entries):
        a = GenericMatrix([entries[0:2], entries[2:4]])
        b = GenericMatrix([entries[4:6], entries[6:8]])
        prod = a * b
        for i in range(2):
            for j in range(2):
                expected = sum(
                    (to_sympy(a.rows[i][k]) * to_sympy(b.rows[k][j]) for k in range(2)),
                    sympy.Integer(0),
                )
                assert_canonical(prod.rows[i][j])
                assert prod.rows[i][j] == from_sympy(expected, field)

    check()


def test_integral_rationals_are_stored_as_int():
    x = CommPoly.variable(VARS[0], QQ)
    half = x.scale(Fraction(1, 2))
    assert half.terms == {((VARS[0], 1),): Fraction(1, 2)}
    assert type((half + half).terms[((VARS[0], 1),)]) is int
    assert type((half.scale(4)).terms[((VARS[0], 1),)]) is int
    assert (half * half.scale(4)).terms[((VARS[0], 2),)] == 1
    assert CommPoly(QQ, {(): Fraction(6, 3)}).terms == {(): 2}
    assert type(CommPoly(QQ, {(): "4/2"}).terms[()]) is int
    assert str(half.scale(2)) == str(x) == "x1[1,1]"


def test_inverse_of_an_integral_rational_is_an_exact_fraction():
    inv = QQ.scalar(3).inverse()
    assert type(inv.value) is Fraction and inv.value == Fraction(1, 3)
    assert (QQ.scalar(3) ** -2).value == Fraction(1, 9)
    assert (QQ.scalar(1) / QQ.scalar(7)).value == Fraction(1, 7)
    assert QQ.scalar(Fraction(1, 3)).inverse().value == 3
    assert type(QQ.scalar(-1).inverse().value) is int
    assert QQ.scalar(3).inverse() * QQ.scalar(3) == QQ.scalar(1)


def test_variables_hash_compare_and_order_in_c():
    # no Python-level method stands between a monomial lookup and tuple's own slots
    for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(Variable, name) is getattr(tuple, name)
    assert all(type(v[0]) is int for v in VARS)
    assert GF(7) is GF(7) and type(QQ).__eq__ is object.__eq__
    # an entry meets an auxiliary symbol without a Python-level call
    entry, aux = VARS[0], VARS[2]
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame) if event == "call" else None)
    try:
        ordered = sorted([aux, entry, aux, entry])
        compared = (entry < aux, entry != aux, entry >= aux)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert ordered == [entry, entry, aux, aux] and compared == (True, True, False)


def test_one_name_per_concept_on_every_sum():
    free = FreePoly.constant(QQ.scalar(3), 2)
    comm = CommPoly(QQ, {(): 3})
    pair = BivariatePoly(QQ, {(0, 0): 3})
    for p in (free, comm, pair):
        assert p.is_constant and p.constant_value() == QQ.scalar(3)
    assert not FreePoly(2, QQ, {(1,): 1}).is_constant
    assert not BivariatePoly(QQ, {(1, 0): 1}).is_constant
    assert FreePoly(2, QQ, {(1,): 1}).constant_value() == QQ.scalar(0)


def test_zero_sums_have_degree_neg_inf():
    assert BivariatePoly(QQ).degree() == NEG_INF
    assert CommPoly(QQ).degree() == NEG_INF
    assert FreePoly(1, QQ).degree() == NEG_INF
    assert BivariatePoly(QQ, {(2, 1): 1, (0, 1): 5}).degree() == 3


# each sum and the degree of one of its keys
KEY_DEGREES = {FreePoly: len, CommPoly: mono_degree, BivariatePoly: sum}


def _random_sum(rng, kind, field):
    """A nonzero sum of up to five keys of degree 0 to 4 (for a pair, 0 to 8)."""
    while True:
        if kind is FreePoly:
            out = random_freepoly(rng, 2, field, max_degree=4, max_terms=5)
        elif kind is CommPoly:
            out = random_commpoly(rng, VARS, field, max_degree=4, max_terms=5)
        else:
            out = BivariatePoly(field, {(rng.randint(0, 4), rng.randint(0, 4)): random_scalar(rng, field)
                                        for _ in range(rng.randint(1, 5))})
        if not out.is_zero:
            return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=repr)
def test_the_degree_of_every_sum_is_its_largest_key_degree(field):
    rng = random.Random(field.p)
    for kind, key_degree in KEY_DEGREES.items():
        for _ in range(200):
            a = _random_sum(rng, kind, field)
            assert a.degree() == max(map(key_degree, a.terms)), a
            if kind is not BivariatePoly:  # a pair sum has no product
                b = _random_sum(rng, kind, field)
                assert (a * b).degree() == a.degree() + b.degree(), (a, b)


# Each snippet must raise FieldMismatch; run under ``python -O`` too, which
# strips ``assert`` but not ``if ... raise``.
MIXED = [
    "CommPoly.one(QQ) + CommPoly.one(GF(7))",
    "CommPoly.one(QQ) - CommPoly.one(GF(7))",
    "CommPoly.one(QQ) * CommPoly.one(GF(7))",
    "CommPoly.one(QQ).scale(GF(7).scalar(1))",
    "FreePoly.one(1, QQ) * FreePoly.one(1, GF(7))",
    "GenericMatrix.identity(2, QQ) + GenericMatrix.identity(2, GF(7))",
    "GenericMatrix.identity(2, QQ) * GenericMatrix.identity(2, GF(7))",
    "GenericMatrix.identity(2, QQ).scale(GF(7).scalar(1))",
    "GenericMatrix([[CommPoly.one(QQ)] * 2, [CommPoly.one(GF(7))] * 2])",
    "CommPoly(QQ, {(): GF(7).scalar(1)})",
    "FreePoly(1, QQ, {(1,): GF(7).scalar(1)})",
    "BivariatePoly(GF(7), {(1, 0): QQ.scalar(3)})",
]


@pytest.mark.parametrize("snippet", MIXED)
def test_mixing_fields_raises(snippet):
    with pytest.raises(FieldMismatch):
        eval(snippet)


def test_field_checks_survive_python_O():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from nclab.errors import FieldMismatch\n"
        "from nclab.fields import GF, QQ\n"
        "from nclab.freealg import FreePoly\n"
        "from nclab.genmat import BivariatePoly, GenericMatrix\n"
        "from nclab.rings import CommPoly\n"
        "import sys\n"
        "for snippet in sys.argv[2:]:\n"
        "    try:\n"
        "        eval(snippet)\n"
        "    except FieldMismatch:\n"
        "        continue\n"
        "    print('accepted:', snippet)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, SRC, *MIXED], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_cli_input_outside_the_field_exits_1_with_one_line(capsys):
    # every command builds all its values over its one --field, so the input
    # that crosses fields is a rational literal with no image in F_p
    assert main(["eval", "--f", "1/7*x1", "--field", "fp:7"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error [division-by-zero]")
