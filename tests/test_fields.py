"""Scalar arithmetic over Q and F_p."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nclab.errors import DivisionByZero, FieldMismatch, InvalidField
from nclab.fields import GF, PRIMALITY_BOUND, QQ, is_prime


def test_rational_add():
    assert QQ.scalar("1/2") + QQ.scalar("1/3") == QQ.scalar("5/6")


def test_prime_field_mul():
    f5 = GF(5)
    assert f5.scalar(3) * f5.scalar(4) == f5.scalar(2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.scalar("2/3") / QQ.scalar(0)
    with pytest.raises(DivisionByZero):
        GF(7).scalar(1) / GF(7).scalar(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + GF(5).scalar(1)


def test_modulus_must_be_prime():
    with pytest.raises(InvalidField):
        GF(6)
    with pytest.raises(InvalidField):
        GF(1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 42):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


def test_psi12_is_composite():
    # the least strong pseudoprime to the bases 2..37; base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    with pytest.raises(InvalidField, match="not prime"):
        GF(psi12)


def test_moduli_from_the_unproven_range_are_refused():
    # psi_13 itself passes every base, which is why the test stops below it
    assert PRIMALITY_BOUND == 1287836182261 * 2575672364521
    assert is_prime(PRIMALITY_BOUND)
    largest_accepted = 3317044064679887385961813  # the largest prime below psi_13
    assert GF(largest_accepted).p == largest_accepted
    for p in (PRIMALITY_BOUND, 3317044064679887385962123):  # psi_13 and the next prime
        with pytest.raises(InvalidField, match="primality is not proven"):
            GF(p)


@given(st.integers(1, PRIMALITY_BOUND // 2 - 1))
def test_is_prime_matches_sympy_on_odd_numbers(k):
    sympy = pytest.importorskip("sympy")
    n = 2 * k + 1
    assert is_prime(n) == sympy.isprime(n)


def test_canonical_forms():
    assert QQ.scalar(Fraction(2, 4)).value == Fraction(1, 2)
    assert GF(7).scalar(-1).value == 6
    assert GF(7).scalar(Fraction(1, 2)).value == 4  # 2 * 4 = 8 = 1 mod 7


def test_string_round_trip():
    for text in ["5/6", "-3", "0", "7"]:
        assert str(QQ.scalar(text)) == str(Fraction(text))


def _random_scalar(rng, field):
    if field.p:
        return field.scalar(rng.randrange(field.p))
    return field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2)], ids=["QQ", "GF7", "GF2"])
def test_field_axioms_randomized(field):
    rng = random.Random(20250810)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + field.scalar(0) == a
        assert a * field.scalar(1) == a
        assert a + (-a) == field.scalar(0)
        if a:
            assert a * a.inverse() == field.scalar(1)


@given(st.fractions(), st.fractions())
def test_rational_ops_match_fraction(x, y):
    a, b = QQ.scalar(x), QQ.scalar(y)
    assert (a + b).value == x + y
    assert (a * b).value == x * y
    assert (a - b).value == x - y


@given(st.integers(), st.integers(1, 50))
def test_pow_matches_repeated_mul(base, e):
    f = GF(13)
    a = f.scalar(base)
    acc = f.scalar(1)
    for _ in range(e):
        acc = acc * a
    assert a**e == acc


def test_negative_pow_is_inverse_power():
    a = QQ.scalar("2/3")
    assert a**-2 == (a.inverse()) ** 2


class TestRawArithmetic:
    """``Field.reduced`` and ``Field.inverse`` against Fraction and pow(x, -1, p)."""

    FIELDS = pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(32003)],
                                     ids=["q", "fp2", "fp7", "fp32003"])

    @staticmethod
    def _exact(field):
        """Exact sums and products of raw values: any int over F_p, also Fractions over Q."""
        ints = st.integers(-(10**30), 10**30)
        return st.one_of(ints, st.fractions()) if field.p == 0 else ints

    @staticmethod
    def _normal(field, x: Fraction):
        """The raw value of a Fraction x, by Fraction arithmetic and the built-in pow."""
        if field.p:
            return x.numerator * pow(x.denominator, -1, field.p) % field.p
        return x.numerator if x.denominator == 1 else x

    @staticmethod
    def _assert_raw(field, value):
        if field.p:
            assert type(value) is int and 0 <= value < field.p
        else:
            assert type(value) is int or (type(value) is Fraction and value.denominator != 1)

    @FIELDS
    @given(data=st.data())
    def test_reduced_matches_fraction_arithmetic(self, field, data):
        acc = data.draw(st.dictionaries(st.integers(0, 9), self._exact(field), max_size=8))
        got = field.reduced(acc)
        assert got == {k: v for k, c in acc.items() if (v := self._normal(field, Fraction(c)))}
        for value in got.values():
            self._assert_raw(field, value)

    @FIELDS
    @given(data=st.data())
    def test_inverse_matches_fraction_and_pow(self, field, data):
        x = data.draw(self._exact(field).filter(lambda x: self._normal(field, Fraction(x))))
        got = field.inverse(x)
        assert got == self._normal(field, 1 / Fraction(x))
        if field.p:
            assert got == pow(x, -1, field.p)
        self._assert_raw(field, got)
        assert field.scalar(x).inverse().value == got
        assert field.reduce(got * x) == 1

    @FIELDS
    def test_zero_has_no_inverse(self, field):
        zeros = [0, Fraction(0)] if field.p == 0 else [0, field.p, -3 * field.p]
        for zero in zeros:
            with pytest.raises(DivisionByZero):
                field.inverse(zero)
        with pytest.raises(DivisionByZero):
            field.scalar(0).inverse()
        if field.p:  # a denominator that vanishes mod p
            with pytest.raises(DivisionByZero):
                field.raw(Fraction(1, field.p))

    def test_one_and_minus_one_over_q_are_their_own_int_inverses(self):
        # the shortcut that keeps integral elimination columns integral
        for unit in (1, -1, Fraction(1), Fraction(-1)):
            got = QQ.inverse(unit)
            assert got == unit and type(got) is int

    def test_a_fraction_with_denominator_one_comes_back_as_an_int(self):
        assert QQ.inverse(Fraction(1, 3)) == 3 and type(QQ.inverse(Fraction(-1, 3))) is int
        got = QQ.reduced({"a": Fraction(6, 2), "b": Fraction(1, 2) + Fraction(1, 2),
                          "c": Fraction(1, 3), "z": Fraction(0)})
        assert got == {"a": 3, "b": 1, "c": Fraction(1, 3)}
        assert [type(v) for v in got.values()] == [int, int, Fraction]

    @pytest.mark.parametrize("p", [2, 7, 32003])
    def test_negative_ints_come_back_reduced_mod_p(self, p):
        field = GF(p)
        for x in (-1, -3, -p - 1, -(10**20) - 1):
            if x % p:
                assert field.inverse(x) == pow(x % p, -1, p)
            assert field.reduced({"x": x}) == ({"x": x % p} if x % p else {})
            assert all(0 <= v < p for v in field.reduced({"x": x}).values())


class TestSparseSum:
    """The arithmetic CommPoly, FreePoly and BivariatePoly share through SparseSum."""

    def test_sibling_classes_are_refused(self):
        from nclab.freealg import FreePoly
        from nclab.genmat import BivariatePoly
        from nclab.rings import CommPoly

        with pytest.raises(TypeError):
            CommPoly.one(QQ) + FreePoly.one(1, QQ)
        with pytest.raises(TypeError):
            FreePoly.one(1, QQ) * BivariatePoly(QQ, {(1, 0): 1})

    def test_free_generator_counts_must_agree(self):
        from nclab.freealg import FreePoly

        with pytest.raises(FieldMismatch):
            FreePoly(2, QQ, {(1,): 1}) + FreePoly(3, QQ, {(1,): 1})
        assert FreePoly.one(2, QQ) != FreePoly.one(3, QQ)

    def test_equal_terms_in_different_classes_differ(self):
        from nclab.freealg import FreePoly
        from nclab.rings import CommPoly

        one_free, one_comm = FreePoly.one(1, QQ), CommPoly.one(QQ)
        assert one_free.terms == one_comm.terms == {(): 1}
        assert one_free != one_comm

    def test_rebinding_mono_mul_is_seen(self, monkeypatch):
        import nclab.rings as rings

        calls = []
        original = rings.mono_mul

        def counted(m1, m2):
            calls.append((m1, m2))
            return original(m1, m2)

        monkeypatch.setattr(rings, "mono_mul", counted)
        x = rings.CommPoly.variable(rings.Variable.aux("t", 1), QQ)
        assert str((x + rings.CommPoly.one(QQ)) * x) == "t1^2 + t1"
        assert len(calls) == 2

    def test_bivariate_has_no_product(self):
        from nclab.genmat import BivariatePoly

        u = BivariatePoly(QQ, {(1, 0): 1})
        with pytest.raises(TypeError):
            u * u
        with pytest.raises(TypeError):
            u**0
        assert str(u + u.scale(QQ.scalar(2)) - BivariatePoly(QQ, {(0, 1): 1})) == "3*u - v"

    def test_sums_are_immutable(self):
        from nclab.freealg import FreePoly
        from nclab.genmat import BivariatePoly
        from nclab.rings import CommPoly

        for p in (CommPoly.one(QQ), FreePoly.one(1, QQ), BivariatePoly(QQ, {(0, 0): 1})):
            with pytest.raises(AttributeError, match="immutable"):
                p.terms = {}

    @staticmethod
    def _operand_pairs(field, rng):
        """Random CommPoly, FreePoly and polynomial-matrix pairs over ``field``."""
        from nclab.genmat import GenericMatrix
        from nclab.rings import Variable
        from samples import random_commpoly, random_freepoly

        xs = [Variable.aux("t", i) for i in (1, 2)]

        def matrix():
            return GenericMatrix([[random_commpoly(rng, xs, field) for _ in range(2)]
                                  for _ in range(2)])

        pairs = []
        for _ in range(20):
            a, b = random_commpoly(rng, xs, field), random_freepoly(rng, 2, field)
            pairs += [(a, random_commpoly(rng, xs, field)), (a, a + a),
                      (b, random_freepoly(rng, 2, field)), (b, b), (matrix(), matrix())]
        return pairs

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["q", "fp2", "fp7"])
    def test_difference_is_the_sum_with_the_negation(self, field):
        for a, b in self._operand_pairs(field, random.Random(23)):
            assert a - b == a + (-b)
            assert (a - a).is_zero

    def test_difference_builds_no_negated_copy(self, monkeypatch):
        from nclab.fields import SparseSum

        pairs = self._operand_pairs(GF(7), random.Random(5))
        expected = [a + -b for a, b in pairs]

        def refuse(self):
            raise RuntimeError("negated copy")

        monkeypatch.setattr(SparseSum, "__neg__", refuse)
        assert [a - b for a, b in pairs] == expected
