"""Commutative polynomials, derivatives, gcd and fractions over the lam_i - lam_j."""

import random
from functools import cmp_to_key

import pytest
import sympy
from hypothesis import given, strategies as st

from oracles import graded_lex_cmp
from samples import random_commpoly, random_scalar
from nclab.errors import DivisionByZero, FieldMismatch, UnsupportedDenominator
from nclab.fields import GF, QQ, NEG_INF
from nclab.rings import (
    CommPoly,
    RationalFunction,
    Variable,
    _factor_power,
    mono_from_dict,
    mono_mul,
    mono_partials,
    parse_variable_name,
    poly_gcd,
)

X = Variable.aux("t", 1)
Y = Variable.aux("t", 2)


def _x(field=QQ):
    return CommPoly.variable(X, field)


def _y(field=QQ):
    return CommPoly.variable(Y, field)


def _const(v, field=QQ):
    return CommPoly(field, {(): v})


class TestVariables:
    def test_order_entries_before_aux(self):
        e = Variable.entry(1, 2, 2)
        a = Variable.aux("lam", 1)
        assert e < a
        assert sorted([a, e]) == [e, a]

    def test_order_within_entries(self):
        assert Variable.entry(1, 1, 2) < Variable.entry(1, 2, 1)
        assert Variable.entry(1, 2, 2) < Variable.entry(2, 1, 1)

    def test_name_round_trip(self):
        for v in [Variable.entry(3, 1, 2), Variable.aux("lam", 7), Variable.aux("y", 1)]:
            assert parse_variable_name(str(v)) == v

    @pytest.mark.parametrize(
        "text",
        ["x\u0663[1,1]", "lam\u00b2", "lam1\n", "x1[1,1]\n"],
        ids=["arabic-indic-three", "superscript-two", "aux-newline", "entry-newline"],
    )
    def test_name_needs_ascii_digits_and_nothing_after(self, text):
        with pytest.raises(ValueError):
            parse_variable_name(text)

    def test_bad_aux_name_rejected(self):
        with pytest.raises(ValueError):
            Variable.aux("lam2", 1)
        with pytest.raises(ValueError):
            Variable.aux("x", 0)
        with pytest.raises(ValueError):
            Variable.aux("lam\n", 1)


class TestArithmetic:
    def test_product_of_sum_and_difference(self):
        x, y = _x(), _y()
        assert (x + y) * (x - y) == x * x - y * y

    def test_cancellation_to_zero(self):
        x = _x()
        assert ((x + _const(1)) + (-x - _const(1))).is_zero

    def test_adding_or_subtracting_zero_returns_the_operand(self):
        x, zero = _x() + _const(1), CommPoly.zero(QQ)
        assert x + zero is x and x - zero is x
        assert (zero - x) == -x
        with pytest.raises(FieldMismatch):
            x + CommPoly.zero(GF(7))

    def test_frobenius_in_char_2(self):
        f2 = GF(2)
        x, y = _x(f2), _y(f2)
        assert (x + y) ** 2 == x * x + y * y

    def test_degree_of_zero_is_sentinel(self):
        assert CommPoly.zero(QQ).degree() == NEG_INF
        assert NEG_INF < 0

    def test_mul_commutes_and_associates_randomized(self):
        rng = random.Random(987)
        vars6 = [Variable.aux("t", i) for i in range(1, 7)]
        for _ in range(60):
            a = random_commpoly(rng, vars6, QQ, max_degree=4, max_terms=3)
            b = random_commpoly(rng, vars6, QQ, max_degree=4, max_terms=3)
            c = random_commpoly(rng, vars6, QQ, max_degree=4, max_terms=3)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestDerivative:
    def test_power_rule(self):
        x, y = _x(), _y()
        assert (x * x * y).diff(X) == (x * y).scale(QQ.scalar(2))

    def test_absent_variable(self):
        y = _y()
        assert (y ** 3).diff(X).is_zero

    def test_char_2_square_has_zero_derivative(self):
        x = _x(GF(2))
        assert (x * x).diff(X).is_zero

    def test_monomial_partials_lower_one_exponent_each(self):
        z = Variable.entry(1, 1, 1)
        m = mono_from_dict({X: 2, Y: 1, z: 3})
        assert mono_partials(m) == {
            z: (3, mono_from_dict({X: 2, Y: 1, z: 2})),
            X: (2, mono_from_dict({X: 1, Y: 1, z: 3})),
            Y: (1, mono_from_dict({X: 2, z: 3})),  # an exponent 1 drops its variable
        }
        assert mono_partials(()) == {}

    def test_leibniz_randomized(self):
        rng = random.Random(55)
        vars3 = [Variable.aux("t", i) for i in range(1, 4)]
        for _ in range(50):
            a = random_commpoly(rng, vars3, QQ)
            b = random_commpoly(rng, vars3, QQ)
            v = rng.choice(vars3)
            assert (a * b).diff(v) == a.diff(v) * b + b.diff(v) * a


def _random_mono(rng, pool, max_vars=4, max_exp=3):
    chosen = rng.sample(pool, rng.randint(0, max_vars))
    return mono_from_dict({v: rng.randint(1, max_exp) for v in chosen})


MIXED_POOL = [Variable.entry(1, 1, 2), Variable.entry(2, 1, 1)] + [
    Variable.aux(name, i) for name in ("lam", "t") for i in (1, 2)
]


class TestMonomialOrder:
    """``CommPoly._order`` sorts monomials in descending graded lex."""

    def test_graded_before_lex(self):
        order = CommPoly._order
        x2 = ((X, 2),)
        xy = ((X, 1), (Y, 1))
        y = ((Y, 1),)
        assert order(x2) < order(y)  # degree wins
        assert order(x2) < order(xy)  # same degree: the higher power of the earlier variable wins
        assert order(xy) < order(((Y, 2),))  # same degree: the earlier variable wins
        assert order(xy) == order(((X, 1), (Y, 1)))

    def test_multiplicative(self):
        rng = random.Random(3)
        order = CommPoly._order
        for _ in range(300):
            m1, m2, t = (_random_mono(rng, MIXED_POOL, max_vars=3, max_exp=2) for _ in range(3))
            before = (order(m1) > order(m2)) - (order(m1) < order(m2))
            p1, p2 = order(mono_mul(m1, t)), order(mono_mul(m2, t))
            assert (p1 > p2) - (p1 < p2) == before

    def test_printing_order_is_descending_graded_lex(self):
        rng = random.Random(5)
        for _ in range(300):
            monos = {_random_mono(rng, MIXED_POOL) for _ in range(rng.randint(1, 10))}
            p = CommPoly(QQ, dict.fromkeys(monos, 1))
            expected = sorted(monos, key=cmp_to_key(graded_lex_cmp), reverse=True)
            assert [m for m, _ in p.sorted_terms()] == expected

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=repr)
    def test_leading_term_is_the_graded_lex_maximum(self, field):
        rng = random.Random(11)
        for _ in range(200):
            p = random_commpoly(rng, MIXED_POOL, field, max_degree=4, max_terms=6)
            if p.is_zero:
                continue
            top = max(p.terms, key=cmp_to_key(graded_lex_cmp))
            assert p.leading_term() == (top, field.scalar(p.terms[top]))


def _divides(d: CommPoly, p: CommPoly) -> bool:
    """Whether d divides p, by sympy: division by one divisor leaves no remainder exactly then."""
    variables = sorted(p.variables() | d.variables()) or [X]
    symbols = [sympy.Symbol(str(v)) for v in variables]
    kw = {"modulus": p.field.p} if p.field.p else {"domain": "QQ"}

    def lift(q):
        rep = {tuple(dict(m).get(v, 0) for v in variables):
               sympy.Rational(c.numerator, c.denominator) for m, c in q.terms.items()}
        return sympy.Poly.from_dict(rep, *symbols, **kw)

    return lift(p).rem(lift(d)).is_zero


class TestDivisionAndGcd:
    def test_gcd_basic(self):
        x, y = _x(), _y()
        assert poly_gcd((x + y) * (x - y), (x + y) * (x + y)) == x + y
        assert poly_gcd(x * x, x.scale(QQ.scalar(2))) == x

    def test_gcd_coprime(self):
        x, y = _x(), _y()
        g = poly_gcd(x + _const(1), y + _const(1))
        assert g == CommPoly.one(QQ)

    def test_gcd_over_prime_field(self):
        f7 = GF(7)
        x, y = _x(f7), _y(f7)
        assert poly_gcd((x + y) * x, (x + y) * y) == x + y

    def test_gcd_divides_both_randomized(self):
        rng = random.Random(41)
        vars2 = [X, Y]
        for _ in range(25):
            a = random_commpoly(rng, vars2, QQ, max_degree=2, max_terms=2)
            b = random_commpoly(rng, vars2, QQ, max_degree=2, max_terms=2)
            c = random_commpoly(rng, vars2, QQ, max_degree=2, max_terms=2)
            if a.is_zero or b.is_zero or c.is_zero:
                continue
            g = poly_gcd(a * c, b * c)
            # the gcd divides both products, and the planted factor divides it
            assert _divides(g, a * c) and _divides(g, b * c)
            assert _divides(c, g)


def _lam(i, field=QQ):
    return CommPoly.variable(Variable.aux("lam", i), field)


def _random_den(rng, field=QQ, n=3):
    """A nonzero scalar times a product of up to three factors lam_i - lam_j."""
    while True:
        c = random_scalar(rng, field)
        if c:
            break
    den = CommPoly(c.field, {(): c})
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(1, n + 1), 2)
        den = den * (_lam(i, field) - _lam(j, field))
    return den


class TestRationalFunction:
    """Fractions with denominators in the differences lam_i - lam_j."""

    def test_inverse_cancellation(self):
        lam1 = CommPoly.variable(Variable.aux("lam", 1), QQ)
        lam2 = CommPoly.variable(Variable.aux("lam", 2), QQ)
        d = lam1 - lam2
        r = RationalFunction(CommPoly.one(QQ), d) * RationalFunction(d, CommPoly.one(QQ))
        assert r == RationalFunction.from_poly(CommPoly(QQ, {(): 1}))

    def test_sum_to_zero(self):
        lam1, lam2, lam3 = _lam(1), _lam(2), _lam(3)
        a = RationalFunction(lam3, (lam1 - lam2) * (lam2 - lam3))
        s = a + (-a)
        assert s.is_zero
        assert s == RationalFunction.from_poly(CommPoly(QQ, {(): 0}))
        assert str(s.den) == "1"

    def test_zero_denominator(self):
        lam1 = CommPoly.variable(Variable.aux("lam", 1), QQ)
        with pytest.raises(DivisionByZero):
            RationalFunction(CommPoly.one(QQ), lam1 - lam1)
        zero = RationalFunction.from_poly(CommPoly(QQ, {(): 0}))
        with pytest.raises(DivisionByZero):
            RationalFunction.from_poly(lam1) / zero

    def test_scaled_inputs_are_equal_values(self):
        rng = random.Random(10)
        lams = [Variable.aux("lam", i) for i in range(1, 4)]
        for _ in range(25):
            a = random_commpoly(rng, lams, QQ, max_degree=2, max_terms=2)
            b, c = _random_den(rng), _random_den(rng)
            assert RationalFunction(a * c, b * c) == RationalFunction(a, b)

    def test_denominator_is_monic(self):
        lam1, lam2 = _lam(1), _lam(2)
        r = RationalFunction(lam2, (lam2 - lam1).scale(QQ.scalar(2)))
        _, lc = r.den.leading_term()
        assert lc == QQ.scalar(1)
        assert r.den == lam1 - lam2
        assert r.num == lam2.scale(QQ.scalar("-1/2"))

    def test_expanded_denominator_is_shared_per_field_and_exponents(self):
        lam1, lam2 = _lam(1), _lam(2)
        cube = (lam1 - lam2) ** 3
        r = RationalFunction(lam2, cube)
        assert r.den == cube and r.den is RationalFunction(lam1, cube).den
        cube7 = (_lam(1, GF(7)) - _lam(2, GF(7))) ** 3
        s = RationalFunction(CommPoly.one(GF(7)), cube7)
        assert s.exps == r.exps and s.den.field is GF(7) and s.den == cube7

    def test_factor_power_is_expanded_once_per_field_pair_and_exponent(self):
        pair = (Variable.aux("lam", 1), Variable.aux("lam", 2))
        square = _factor_power(QQ, pair, 2)
        assert square == (_lam(1) - _lam(2)) ** 2
        assert _factor_power(QQ, pair, 2) is square
        assert _factor_power(GF(7), pair, 2) is not square
        assert _factor_power(QQ, pair, 3) == square * (_lam(1) - _lam(2))

    def test_field_arithmetic_randomized(self):
        rng = random.Random(11)
        lams = [Variable.aux("lam", i) for i in range(1, 4)]

        def rand_rf():
            num = random_commpoly(rng, lams, QQ, max_degree=1, max_terms=2)
            return RationalFunction(num, _random_den(rng))

        for _ in range(20):
            a, b, c = rand_rf(), rand_rf(), rand_rf()
            assert (a + b) * c == a * c + b * c
            assert a - a == RationalFunction.from_poly(CommPoly(QQ, {(): 0}))
            d = RationalFunction(_random_den(rng), _random_den(rng))  # a unit of the ring
            assert (a / d) * d == a

    def test_denominators_outside_the_ring_are_refused(self):
        lam1, lam2 = _lam(1), _lam(2)
        one = CommPoly.one(QQ)
        for den in (lam1, lam1 + lam2, lam1 * lam1 - lam2):
            with pytest.raises(UnsupportedDenominator):
                RationalFunction(one, den)
            with pytest.raises(UnsupportedDenominator):
                RationalFunction.from_poly(one) / RationalFunction.from_poly(den)

    def test_reduced_form_is_unique_in_every_characteristic(self):
        for field in (QQ, GF(2), GF(3), GF(7)):
            rng = random.Random(field.p)
            lams = [Variable.aux("lam", i) for i in range(1, 4)]
            for _ in range(15):
                a = random_commpoly(rng, lams, field, max_degree=2, max_terms=3)
                b, c = _random_den(rng, field), _random_den(rng, field)
                r = RationalFunction(a * c, b * c)
                assert r == RationalFunction(a, b)
                # lowest terms: no factor of the denominator divides the numerator
                for (u, v), _ in r.exps:
                    diff = CommPoly.variable(u, field) - CommPoly.variable(v, field)
                    assert r.is_zero or not _divides(diff, r.num)
                if not r.is_zero:
                    assert r.den.leading_term()[1] == field.scalar(1)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_constant_poly_matches_scalar_arithmetic(m, n):
    a, b = _const(m), _const(n)
    assert (a * b).constant_value() == QQ.scalar(m * n)
    assert (a + b).constant_value() == QQ.scalar(m + n)
