"""Free-algebra arithmetic, the expression grammar and matrix evaluation."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import free_commutator, free_mul
from samples import random_freepoly, random_int_matrix
from nclab import freealg
from nclab.errors import (
    DivisionByZero,
    EngineError,
    FieldMismatch,
    ParseError,
    PowerTooLarge,
    ShapeMismatch,
    UnknownGenerator,
)
from nclab.fields import GF, QQ, NEG_INF, int_digits
from nclab.freealg import (
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    MAX_PRODUCT_DEGREE,
    FreePoly,
    commutator,
    parse_free,
    read_text,
)
from nclab.genmat import GenericMatrix
from nclab.rings import CommPoly, RationalFunction, Variable

#: the sum of the ten words x1^(250 - k) x2^k to the 4th: within every other limit of a
#: power, it has 10,000 terms of 1,000 letters
TEN_WORDS_TO_THE_4TH = "(" + " + ".join(f"x1^{250 - k}*x2^{k}" for k in range(10)) + ")^4"


def fp(terms, s=2, field=QQ):
    return FreePoly(s, field, {w: field.scalar(c) for w, c in terms.items()})


class TestParse:
    def test_commutator_expression(self):
        assert parse_free("x1*x2 - x2*x1", 2, QQ) == fp({(1, 2): 1, (2, 1): -1})

    def test_noncommutative_square(self):
        expected = fp({(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
        assert parse_free("(x1 + x2)^2", 2, QQ) == expected

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_free("x3", 2, QQ)

    def test_juxtaposition_multiplies(self):
        assert parse_free("x1 x2", 2, QQ) == parse_free("x1*x2", 2, QQ)
        assert parse_free("2x1", 2, QQ) == parse_free("2*x1", 2, QQ)
        assert parse_free("(x1+x2)(x1-x2)", 2, QQ) == parse_free(
            "(x1+x2)*(x1-x2)", 2, QQ
        )

    def test_rational_literal(self):
        assert parse_free("3/2", 1, QQ) == fp({(): Fraction(3, 2)}, s=1)

    def test_power_binds_tighter_than_product(self):
        assert parse_free("x1*x2^2", 2, QQ) == fp({(1, 2, 2): 1})

    def test_unary_minus(self):
        assert parse_free("-x1 + x2", 2, QQ) == fp({(1,): -1, (2,): 1})
        assert parse_free("x1*-x2", 2, QQ) == fp({(1, 2): -1})

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as e:
            parse_free("x1 + + x2", 2, QQ)
        assert e.value.position == 5
        with pytest.raises(ParseError):
            parse_free("(x1", 2, QQ)
        with pytest.raises(ParseError):
            parse_free("x", 2, QQ)
        with pytest.raises(ParseError):
            parse_free("x1 $ x2", 2, QQ)

    @pytest.mark.parametrize(
        "text, position",
        [("x\u00b2", 0), ("\u0663*x1", 0), ("x1 + x\u0661", 5)],
        ids=["superscript-two", "arabic-indic-three", "arabic-indic-one-index"],
    )
    def test_only_ascii_digits_are_nat_digits(self, text, position):
        # str.isdigit would take the superscript two and the Arabic-Indic digits
        with pytest.raises(ParseError) as e:
            parse_free(text, 2, QQ)
        assert e.value.position == position and e.value.code == "syntax-error"

    def test_nesting_is_bounded(self):
        deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert parse_free(deepest, 2, QQ) == fp({(1,): 1})
        with pytest.raises(ParseError) as e:
            parse_free("(" + deepest + ")", 2, QQ)
        assert e.value.position == MAX_NESTING
        with pytest.raises(ParseError):
            parse_free("(" * 3000 + "x1" + ")" * 3000, 2, QQ)

    def test_power_refused_before_any_product(self, monkeypatch):
        def no_power(self, n):
            raise AssertionError("a refused power must not be computed")

        monkeypatch.setattr(FreePoly, "__pow__", no_power)
        for text in ["x1^99999999", "2^99999999", "(x1 + x2)^99999999", "0^99999999"]:
            with pytest.raises(PowerTooLarge) as e:
                parse_free(text, 2, QQ)
            assert e.value.code == "power-too-large"
            assert isinstance(e.value, ParseError)  # a usage error: exit 1

    @pytest.mark.parametrize(
        "accepted, refused, field",
        [
            # degree: base degree times the exponent; a constant counts as degree 1
            (f"x1^{MAX_POWER_DEGREE}", f"x1^{MAX_POWER_DEGREE + 1}", QQ),
            (f"(x1*x2)^{MAX_POWER_DEGREE // 2}", f"(x1*x2)^{MAX_POWER_DEGREE // 2 + 1}", QQ),
            ("(x1^500)^2", "(x1^500)^3", GF(7)),
            (f"1^{MAX_POWER_DEGREE}", f"1^{MAX_POWER_DEGREE + 1}", QQ),
            # terms: base term count to the power (2^13 <= 10,000 < 2^14)
            ("(x1 + x2)^13", "(x1 + x2)^14", QQ),
            ("(x1 + x2)^13", "(x1 + x2)^14", GF(32003)),
            # coefficient bits over Q: 2^1000 has 1,001 bits
            ("(2^1000)^9", "(2^1000)^10", QQ),
            ("(1/1024)^909", "(1/1024)^910", QQ),
            # a product: the operands' term counts multiplied, with * or juxtaposition
            ("(x1 + x2)^12*(x1 + x2)", "(x1 + x2)^13*(x1 + x2)", QQ),
            ("(x1 + x2)^13*2", "(x1 + x2)^13 (x1 + x2)", GF(7)),
            # a product's degree: the sum of its operands'
            (f"x1^{MAX_POWER_DEGREE}*x1^{MAX_POWER_DEGREE}",
             f"x1^{MAX_POWER_DEGREE}*x1^{MAX_POWER_DEGREE}*x1", QQ),
            (f"x1^{MAX_PRODUCT_DEGREE // 2}(2 x2)^{MAX_PRODUCT_DEGREE // 2}",
             f"x1^{MAX_PRODUCT_DEGREE // 2}(2 x2)^{MAX_PRODUCT_DEGREE // 2}x1", GF(7)),
        ],
    )
    def test_power_limits(self, accepted, refused, field):
        assert MAX_POWER_TERMS == 10_000 and MAX_POWER_BITS == 10_000
        parse_free(accepted, 2, field)
        with pytest.raises(PowerTooLarge):
            parse_free(refused, 2, field)

    # text, field, error class, message, position: one row per refusal of the reader,
    # recorded from the tokenizer-class parser; the end token sits at len(text)
    @pytest.mark.parametrize("text, field, error, message, position", [
        ("x", QQ, ParseError, "generator needs an index, e.g. x1", 0),
        ("x1 + x", QQ, ParseError, "generator needs an index, e.g. x1", 5),
        ("x\u00b2", QQ, ParseError, "generator needs an index, e.g. x1", 0),
        ("x1\u00b2", QQ, ParseError, "unexpected character '\u00b2'", 2),
        ("\u0663", QQ, ParseError, "unexpected character '\u0663'", 0),
        ("x1 $ x2", QQ, ParseError, "unexpected character '$'", 3),
        ("x1 y", QQ, ParseError, "unexpected character 'y'", 3),
        ("x1^x2", QQ, ParseError, "exponent must be a natural number", 3),
        ("x1^-2", QQ, ParseError, "exponent must be a natural number", 3),
        ("x1^", QQ, ParseError, "exponent must be a natural number", 3),
        ("x1^ \t", QQ, ParseError, "exponent must be a natural number", 5),
        ("1/x1", QQ, ParseError, "denominator must be a natural number", 2),
        ("1/", QQ, ParseError, "denominator must be a natural number", 2),
        ("x1 2/ ", QQ, ParseError, "denominator must be a natural number", 6),
        ("1/0", QQ, ParseError, "denominator must be nonzero", 2),
        ("3/00", GF(7), ParseError, "denominator must be nonzero", 2),
        ("(x1", QQ, ParseError, "expected ')'", 3),
        ("(x1 \u00a0", QQ, ParseError, "expected ')'", 5),
        ("((x1)", QQ, ParseError, "expected ')'", 5),
        ("(x1 x2(", QQ, ParseError, "expected a generator, number or '('", 7),
        ("x1)", QQ, ParseError, "unexpected ')'", 2),
        ("x1 / 2", QQ, ParseError, "unexpected '/'", 3),
        ("x1/7", GF(7), ParseError, "unexpected '/'", 2),
        ("x1 ^ 2 ^ 2", QQ, ParseError, "unexpected '^'", 7),
        ("", QQ, ParseError, "expected a generator, number or '('", 0),
        ("\u2003 ", QQ, ParseError, "expected a generator, number or '('", 2),
        ("x1 + \t", QQ, ParseError, "expected a generator, number or '('", 6),
        ("x1*", QQ, ParseError, "expected a generator, number or '('", 3),
        ("-", QQ, ParseError, "expected a generator, number or '('", 1),
        ("(" * 101 + "x1" + ")" * 101, QQ, ParseError, "parentheses nested deeper than 100", 100),
        ("x1^1001", QQ, PowerTooLarge, "exponent 1001 on a base of degree 1 exceeds degree 1000", 3),
        ("(x1+x2)^14", QQ, PowerTooLarge, "exponent 14 on a base of 2 terms exceeds 10000 terms", 8),
        ("(2^1000)^10", QQ, PowerTooLarge,
         "exponent 10 on 1001-bit coefficients exceeds 10000 bits", 9),
        ("(x1+x2)^13*(x1+x2)^13", QQ, PowerTooLarge,
         "a product of 8192 and 8192 terms exceeds 10000 terms", 10),
        ("(x1+x2)^13 (x1+x2)^13", GF(7), PowerTooLarge,
         "a product of 8192 and 8192 terms exceeds 10000 terms", 11),
        ("x1^1000*x1^1000*x1", QQ, PowerTooLarge,
         "a product of degree 2000 and 1 exceeds degree 2000", 15),
        # 10,000 terms of 1,000 letters
        (TEN_WORDS_TO_THE_4TH, QQ, PowerTooLarge,
         "a power of up to 10000000 letters exceeds 8912898 letters", len(TEN_WORDS_TO_THE_4TH) - 1),
        # 8,192 terms of 1,012 letters, times x1^100 or less another such
        ("(x1+x2)^13*x1^999*x1^100", QQ, PowerTooLarge,
         "a product of up to 9109504 letters exceeds 8912898 letters", 17),
        ("(x1+x2)^13*x1^999 - (x1+x2)^13*x2^999", QQ, PowerTooLarge,
         "a sum of up to 16580608 letters exceeds 8912898 letters", 18),
        ("x3", QQ, UnknownGenerator, "x3 (only 2 generators declared)", None),
        ("x0", QQ, UnknownGenerator, "x0 (only 2 generators declared)", None),
        ("x1 + x12", GF(7), UnknownGenerator, "x12 (only 2 generators declared)", None),
        ("1/7", GF(7), DivisionByZero, "7 has no inverse in GF(7)", None),
        # longer than int()'s default limit on the digits it reads
        pytest.param("1" * 5000, QQ, ParseError, "number longer than 4300 digits", 0,
                     id="nat-5000-digits"),
        pytest.param("x" + "1" * 5000, QQ, ParseError, "number longer than 4300 digits", 1,
                     id="gen-5000-digits"),
    ])
    def test_each_refusal_has_its_class_message_and_position(
        self, text, field, error, message, position
    ):
        with pytest.raises(EngineError) as e:
            parse_free(text, 2, field)
        assert type(e.value) is error
        if position is None:
            assert str(e.value) == message and not hasattr(e.value, "position")
        else:
            assert str(e.value) == f"{message} (at position {position})"
            assert e.value.position == position

    @pytest.mark.parametrize("limit", [0, 640, 100_000])
    def test_the_digit_limit_is_the_default_whatever_the_process_limit(self, limit):
        assert parse_free("1" * 4300, 1, QQ).constant_value() == QQ.scalar(int("1" * 4300))
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(ParseError) as e:
                parse_free("x1 + 2/" + "1" * 4301, 1, QQ)
        finally:
            sys.set_int_max_str_digits(before)
        assert str(e.value) == "number longer than 4300 digits (at position 7)"

    @pytest.mark.parametrize("text, terms", [
        ("x1\tx2", {(1, 2): 1}),
        ("x1\u00a0*\u00a0x2", {(1, 2): 1}),
        ("\u2003x1\u2003+\u20033/2", {(1,): 1, (): Fraction(3, 2)}),
        ("x1 - -x2 \t\n", {(1,): 1, (2,): 1}),
        ("(x1)\u00a0^\t2 ", {(1, 1): 1}),
        ("7/7\u2003", {(): 1}),
    ])
    def test_whitespace_is_what_isspace_accepts(self, text, terms):
        assert parse_free(text, 2, QQ) == fp(terms)
        assert parse_free(text, 2, GF(7)) == fp(terms, field=GF(7))

    def test_prime_field_constants_have_no_bit_limit(self):
        big = parse_free(f"2^{MAX_POWER_DEGREE}", 1, GF(32003))
        assert big == FreePoly(1, GF(32003), {(): GF(32003).scalar(pow(2, MAX_POWER_DEGREE, 32003))})

    def test_prime_field_literals(self):
        f5 = GF(5)
        assert parse_free("7", 1, f5) == FreePoly(1, f5, {(): f5.scalar(2)})
        assert parse_free("1/2", 1, f5) == FreePoly(1, f5, {(): f5.scalar(3)})


class TestText:
    def test_examples(self):
        assert str(fp({(1, 2): 1, (2, 1): -1})) == "x1*x2 - x2*x1"
        assert str(FreePoly(2, QQ)) == "0"
        assert str(fp({(): Fraction(3, 2)})) == "3/2"

    def test_runs_collapse_to_powers(self):
        assert str(fp({(1, 1, 2): 1})) == "x1^2*x2"

    def test_parse_text_round_trip_randomized(self):
        rng = random.Random(500)
        for _ in range(300):
            a = random_freepoly(rng, rng.randint(1, 3), QQ, max_degree=3, max_terms=5)
            assert parse_free(str(a), a.s, a.field) == a

    @given(st.data())
    def test_read_text_inverts_str_at_any_size(self, data):
        # runs past the grammar's degree bound of 1000 and, over Q, numerators and
        # denominators past int's default 4300 digits, which parse_free refuses; the
        # draws stay small, so that a failing example prints
        field = data.draw(st.sampled_from([QQ, GF(2), GF(7)]))
        s = data.draw(st.integers(1, 3))
        runs = st.lists(st.tuples(st.integers(1, s), st.integers(1, 3000)), max_size=3)
        words = runs.map(lambda rs: tuple(g for g, e in rs for _ in range(e)))
        # (numerator, denominator, whether each is times 10^4400 + 1); F_p takes integers
        dens = st.integers(1, 9) if field is QQ else st.just(1)
        coeffs = st.tuples(st.integers(-50, 50), dens, st.booleans(),
                           st.booleans() if field is QQ else st.just(False))
        big = 10**4400 + 1
        drawn = data.draw(st.dictionaries(words, coeffs, max_size=4))
        p = FreePoly(s, field, {w: Fraction(n * big**bn, d * big**bd)
                                for w, (n, d, bn, bd) in drawn.items()})
        with int_digits():
            assert read_text(str(p), s, field) == p

    @pytest.mark.parametrize("text, canonical", [
        ("2*x1 - x2^2", "-x2^2 + 2*x1"),  # terms out of order
        ("x1*x1", "x1^2"),
        ("x1^1*x2", "x1*x2"),
        ("1*x1", "x1"),
        ("x1 + x1", "x1"),  # the later term is kept
        ("x01", "x1"),
        ("0*x1 + 3", "3"),
        ("x1^0", "1"),
        ("x1^", "x1"),
        ("2/4", "1/2"),
    ])
    def test_text_that_is_not_canonical_reads_as_an_element_whose_text_differs(
            self, text, canonical):
        assert str(read_text(text, 2, QQ)) == canonical

    @pytest.mark.parametrize("text, error", [
        ("", ValueError), ("x1 +", ValueError), ("x", ValueError),
        ("x1^2^3", ValueError), ("(x1)", ValueError), ("x3", UnknownGenerator),
        ("1/0", ZeroDivisionError),
    ])
    def test_text_that_reads_as_no_element_raises(self, text, error):
        with pytest.raises(error):
            read_text(text, 2, QQ)

    def test_read_text_refuses_a_text_past_the_letter_bound_before_holding_it(
            self, monkeypatch):
        monkeypatch.setattr(freealg, "MAX_CENTRALIZER_LETTERS", 10)
        assert read_text("x1^4*x2^6", 2, QQ).degree() == 10
        # the bound counts the letters of every term, and a negative exponent gives none back
        for text in ("x1^11", "x1^6 + x2^5", "x1^6*x1^-6*x1^5", "x1^10000000000"):
            with pytest.raises(ValueError, match="more than 10 letters"):
                read_text(text, 2, QQ)

    def test_text_parse_idempotent_on_conformant_text(self):
        texts = ["x1*x2-x2*x1", "(x1+1)^3", "2 x1 x1 x2", "-x1 - 1/2", "x2^2*x1"]
        for text in texts:
            once = str(parse_free(text, 2, QQ))
            assert str(parse_free(once, 2, QQ)) == once


class TestArithmetic:
    def test_generator_product_is_word(self):
        x1 = fp({(1,): 1})
        x2 = fp({(2,): 1})
        assert x1 * x2 == fp({(1, 2): 1})

    def test_noncommutativity(self):
        x1 = fp({(1,): 1})
        x2 = fp({(2,): 1})
        assert not (x1 * x2 - x2 * x1).is_zero

    def test_scalars_are_central(self):
        x1 = fp({(1,): 1})
        one = FreePoly.one(2, QQ)
        assert (x1 + one) * (x1 - one) == fp({(1, 1): 1, (): -1})

    def test_mul_matches_oracle_randomized(self):
        rng = random.Random(13)
        for _ in range(100):
            a = random_freepoly(rng, 2, QQ, max_degree=3, max_terms=4)
            b = random_freepoly(rng, 2, QQ, max_degree=3, max_terms=4)
            raw_a, raw_b = dict(a.terms), dict(b.terms)
            assert (a * b) == fp(free_mul(raw_a, raw_b))

    def test_associativity_randomized_500(self):
        rng = random.Random(77)
        for _ in range(500):
            s = rng.randint(1, 3)
            a = random_freepoly(rng, s, QQ, max_degree=3, max_terms=5)
            b = random_freepoly(rng, s, QQ, max_degree=3, max_terms=5)
            c = random_freepoly(rng, s, QQ, max_degree=3, max_terms=5)
            assert (a * b) * c == a * (b * c)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            FreePoly.one(2, QQ) + FreePoly.one(2, GF(5))

    def test_degree_sentinel(self):
        assert FreePoly(2, QQ).degree() == NEG_INF
        assert FreePoly.one(2, QQ).degree() == 0


class TestCommutator:
    def test_powers_commute(self):
        x1 = fp({(1,): 1})
        assert commutator(x1, x1 * x1).is_zero

    def test_generators(self):
        x1 = fp({(1,): 1})
        x2 = fp({(2,): 1})
        assert commutator(x1, x2) == fp({(1, 2): 1, (2, 1): -1})

    def test_sum_with_generator_matches_oracle(self):
        # [x1 + x2, x1]: frozen from the word-map oracle
        oracle = free_commutator({(1,): Fraction(1), (2,): Fraction(1)}, {(1,): Fraction(1)})
        assert oracle == {(2, 1): Fraction(1), (1, 2): Fraction(-1)}
        x1 = fp({(1,): 1})
        x2 = fp({(2,): 1})
        assert commutator(x1 + x2, x1) == fp(oracle)

    def test_alternating_and_antisymmetric(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_freepoly(rng, 2, QQ)
            b = random_freepoly(rng, 2, QQ)
            assert commutator(a, a).is_zero
            assert (commutator(a, b) + commutator(b, a)).is_zero

    def test_bilinear(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_freepoly(rng, 2, QQ)
            b = random_freepoly(rng, 2, QQ)
            c = random_freepoly(rng, 2, QQ)
            assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)


class TestEvaluateInMatrices:
    def test_commutator_of_equal_images_vanishes(self):
        rng = random.Random(5)
        m = random_int_matrix(rng, 2, QQ)
        a = parse_free("x1*x2 - x2*x1", 2, QQ)
        assert a.evaluate_in_matrices([m, m]).is_zero

    def test_empty_word_maps_to_identity(self):
        rng = random.Random(6)
        images = [random_int_matrix(rng, 3, QQ) for _ in range(2)]
        one = FreePoly.one(2, QQ)
        assert one.evaluate_in_matrices(images) == GenericMatrix.identity(3, QQ)

    def test_nilpotent_square_is_zero(self):
        zero, one = CommPoly.zero(QQ), CommPoly.one(QQ)
        nilp = GenericMatrix([[zero, one], [zero, zero]])
        a = parse_free("x1^2", 1, QQ)
        assert a.evaluate_in_matrices([nilp]).is_zero

    def test_homomorphism_randomized(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 3)
            images = [random_int_matrix(rng, n, QQ, lo=-3, hi=3) for _ in range(2)]
            a = random_freepoly(rng, 2, QQ, max_degree=3, max_terms=3)
            b = random_freepoly(rng, 2, QQ, max_degree=3, max_terms=3)
            img = lambda p: p.evaluate_in_matrices(images)
            assert img(a * b) == img(a) * img(b)
            assert img(a + b) == img(a) + img(b)

    def test_fraction_matrices(self):
        lam1, lam2 = (
            RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))
            for i in (1, 2)
        )
        d1 = GenericMatrix.diagonal([lam1, lam2])
        d2 = GenericMatrix.diagonal([lam2 - lam1, lam1]).scale(QQ.scalar(Fraction(1, 2)))
        a = parse_free("x1*x2 - 3*x2^2 + 2", 2, QQ)
        expected = [
            p * q - (q * q).scale(3) + RationalFunction.one(QQ).scale(2)
            for p, q in zip(d1.diagonal_entries(), d2.diagonal_entries())
        ]
        assert a.evaluate_in_matrices([d1, d2]) == GenericMatrix.diagonal(expected)
        assert d1.scale(0).is_zero and d1.scale(0).ring is RationalFunction

    def test_shape_checks(self):
        a = parse_free("x1*x2", 2, QQ)
        rng = random.Random(10)
        with pytest.raises(ShapeMismatch):
            a.evaluate_in_matrices([random_int_matrix(rng, 2, QQ)])
        with pytest.raises(ShapeMismatch):
            a.evaluate_in_matrices(
                [random_int_matrix(rng, 2, QQ), random_int_matrix(rng, 3, QQ)]
            )
