"""Poisson brackets, the truncated star product and series of matrices."""

import json
import operator
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import moyal_term, ordered_pairs, poisson_oracle
from samples import lifted_commutator, random_commpoly, random_freepoly, random_scalar
from nclab.centralizer import _star_traces
from nclab.diagonalize import SeriesFieldMatrix
from nclab.errors import (
    BadTensorFile,
    CharacteristicTooSmall,
    FieldMismatch,
    ShapeMismatch,
    UnknownVariable,
)
from nclab.fields import GF, QQ
from nclab.quantize import (
    FormalSeries,
    PoissonTensor,
    StarContext,
    StarSeries,
    _weight,
    entry_pairing_tensor,
    matrix_star,
    pairing_tensor,
    poisson_bracket,
    quantize_lift,
    star_generic,
    star_mul,
    verify_correspondence,
)
from nclab.freealg import FreePoly, parse_free
from nclab.genmat import GenericMatrix, make_generic, pi_reduce
from nclab.rings import CommPoly, RationalFunction, Variable, mono_from_dict

VX = [Variable.aux("x", i) for i in (1, 2)]
VY = [Variable.aux("y", i) for i in (1, 2)]
VZ = Variable.aux("z", 1)


def two_pair_tensor(field=QQ):
    """{x1, y1} = {x2, y2} = 1 with an extra unpaired variable z1."""
    variables = VX + VY + [VZ]
    entries = {(0, 2): field.scalar(1), (1, 3): field.scalar(1)}
    return PoissonTensor(variables, entries, field)


def poly(v, field=QQ):
    return CommPoly.variable(v, field)


def moyal_terms(ctx, a, b, rmax):
    """B_1(a, b), B_2(a, b), ... as ``StarContext._moyal_terms`` forms them, up to B_rmax."""
    return [CommPoly._of(ctx.field, t) for t in ctx._moyal_terms(a, b, rmax)]


class TestPoissonBracket:
    def test_defining_case(self):
        t = two_pair_tensor()
        assert poisson_bracket(poly(VX[0]), poly(VY[0]), t) == CommPoly.one(QQ)

    def test_leibniz_forced_case(self):
        t = two_pair_tensor()
        x = poly(VX[0])
        assert poisson_bracket(x * x, poly(VY[0]), t) == x.scale(QQ.scalar(2))

    def test_unpaired_variable_brackets_to_zero(self):
        t = two_pair_tensor()
        assert poisson_bracket(poly(VX[0]), poly(VZ), t).is_zero

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_entry_pairing_pairs_consecutive_generators_and_keeps_the_last(self, s):
        t = entry_pairing_tensor(s, 2, QQ)
        cells = [(i, j) for i in (1, 2) for j in (1, 2)]
        generators = range(1, s + 1)
        assert set(t.variables) == {Variable.entry(l, i, j) for l in generators for i, j in cells}
        pairs = {(t.variables[i], t.variables[j]) for i, j in t.entries}
        assert pairs == {(Variable.entry(l, i, j), Variable.entry(l + 1, i, j))
                         for l in range(1, s, 2) for i, j in cells}
        assert set(t.entries.values()) <= {1}
        if s % 2:
            last = poly(Variable.entry(s, 1, 1))
            assert all(poisson_bracket(last, poly(v), t).is_zero for v in t.variables)

    def test_unknown_variable(self):
        t = pairing_tensor([VX[0]], [VY[0]], QQ)
        with pytest.raises(UnknownVariable):
            poisson_bracket(poly(VZ), poly(VX[0]), t)

    def test_matches_full_matrix_oracle_randomized(self):
        rng = random.Random(600)
        t = two_pair_tensor()
        vs = list(t.variables)
        for _ in range(60):
            a = random_commpoly(rng, vs, QQ, max_degree=3, max_terms=3)
            b = random_commpoly(rng, vs, QQ, max_degree=3, max_terms=3)
            assert poisson_bracket(a, b, t) == poisson_oracle(a, b, t)

    def test_antisymmetry_and_jacobi_randomized(self):
        rng = random.Random(601)
        t = two_pair_tensor()
        vs = list(t.variables)
        for _ in range(40):
            a = random_commpoly(rng, vs, QQ, max_degree=2, max_terms=3)
            b = random_commpoly(rng, vs, QQ, max_degree=2, max_terms=3)
            c = random_commpoly(rng, vs, QQ, max_degree=2, max_terms=3)
            assert poisson_bracket(a, b, t) == -poisson_bracket(b, a, t)
            jac = (
                poisson_bracket(a, poisson_bracket(b, c, t), t)
                + poisson_bracket(b, poisson_bracket(c, a, t), t)
                + poisson_bracket(c, poisson_bracket(a, b, t), t)
            )
            assert jac.is_zero

    def test_leibniz_randomized(self):
        rng = random.Random(602)
        t = two_pair_tensor()
        vs = list(t.variables)
        for _ in range(40):
            a = random_commpoly(rng, vs, QQ, max_degree=2, max_terms=3)
            b = random_commpoly(rng, vs, QQ, max_degree=2, max_terms=3)
            c = random_commpoly(rng, vs, QQ, max_degree=2, max_terms=3)
            assert poisson_bracket(a, b * c, t) == (
                poisson_bracket(a, b, t) * c + b * poisson_bracket(a, c, t)
            )


class TestStarProduct:
    def _ctx(self, order=2):
        return StarContext(two_pair_tensor(), order)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "fp32003"])
    def test_weights_are_one_over_two_to_the_r_times_r_factorial(self, field):
        # raw values: an int or lowest-terms Fraction over Q, a residue over F_p
        weights = [_weight(field, r) for r in range(41)]
        assert weights == [field.raw(Fraction(1, 2**r * factorial(r))) for r in range(41)]
        assert all(type(w) is (Fraction if field.p == 0 and r else int) for r, w in enumerate(weights))

    def test_x_star_y(self):
        ctx = self._ctx()
        x, y = poly(VX[0]), poly(VY[0])
        sx, sy = FormalSeries.from_poly(x, 2), FormalSeries.from_poly(y, 2)
        prod = star_mul(sx, sy, ctx)
        assert prod.coefficient(0) == x * y
        assert prod.coefficient(1) == CommPoly(QQ, {(): Fraction(1, 2)})
        assert prod.coefficient(2).is_zero

    def test_y_star_x(self):
        ctx = self._ctx()
        x, y = poly(VX[0]), poly(VY[0])
        prod = star_mul(FormalSeries.from_poly(y, 2), FormalSeries.from_poly(x, 2), ctx)
        assert prod.coefficient(0) == x * y
        assert prod.coefficient(1) == CommPoly(QQ, {(): Fraction(-1, 2)})

    def test_one_is_neutral(self):
        ctx = self._ctx()
        rng = random.Random(603)
        for _ in range(20):
            a = random_commpoly(rng, list(ctx.tensor.variables), QQ)
            sa = FormalSeries.from_poly(a, 2)
            one = FormalSeries.from_poly(CommPoly.one(QQ), 2)
            assert star_mul(sa, one, ctx) == sa
            assert star_mul(one, sa, ctx) == sa

    def test_commutator_of_conjugates(self):
        ctx = self._ctx()
        x, y = poly(VX[0]), poly(VY[0])
        comm = lifted_commutator(x, y, ctx)
        assert comm.coefficient(0).is_zero
        assert comm.coefficient(1) == CommPoly.one(QQ)
        assert comm.coefficient(2).is_zero

    def test_commutator_of_dependent_elements_vanishes(self):
        ctx = self._ctx()
        x = poly(VX[0])
        assert lifted_commutator(x, x * x, ctx).is_zero

    def test_commutator_antisymmetry(self):
        ctx = self._ctx()
        rng = random.Random(604)
        for _ in range(15):
            a = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=2)
            b = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=2)
            total = lifted_commutator(a, b, ctx) + lifted_commutator(b, a, ctx)
            assert total.is_zero

    def test_degree_zero_functoriality(self):
        ctx = self._ctx()
        rng = random.Random(605)
        for _ in range(25):
            a = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=3)
            b = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=3)
            prod = star_mul(FormalSeries.from_poly(a, 2), FormalSeries.from_poly(b, 2), ctx)
            assert prod.coefficient(0) == a * b

    def test_zero_tensor_degenerates_to_commutative_product(self):
        variables = VX + VY
        t0 = PoissonTensor(variables, {}, QQ)
        ctx = StarContext(t0, 3)
        rng = random.Random(606)
        for _ in range(15):
            a = random_commpoly(rng, variables, QQ, max_degree=3)
            b = random_commpoly(rng, variables, QQ, max_degree=3)
            prod = star_mul(FormalSeries.from_poly(a, 3), FormalSeries.from_poly(b, 3), ctx)
            assert prod.coefficient(0) == a * b
            for r in (1, 2, 3):
                assert prod.coefficient(r).is_zero

    def test_bilinear_maps_match_oracle(self):
        ctx = self._ctx(order=3)
        rng = random.Random(607)
        pairs = ordered_pairs(ctx.tensor)
        for r in (1, 2, 3):
            denom = 2**r
            for k in range(1, r + 1):
                denom *= k
            weight = QQ.scalar(Fraction(1, denom))
            for _ in range(10):
                a = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=3)
                b = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=3)
                assert ctx.bilinear_map(r, a, b) == moyal_term(a, b, r, pairs, weight)

    def test_bilinear_maps_end_at_the_last_nonzero_term(self):
        ctx = self._ctx(order=3)
        x, y = poly(VX[0]), poly(VY[0])
        xy, const = x * y, lambda c: CommPoly(QQ, {(): c})
        # W_2 of x (x) y is empty, so the terms stop at B_1 = 1/2
        assert ctx.bilinear_map(0, x, y) == xy
        assert moyal_terms(ctx, x, y, 3) == [const(Fraction(1, 2))]
        # B_1(xy, xy) = {xy, xy} / 2 = 0 and B_2 = -1/4: W_1 is not empty, so B_1 stays
        assert ctx.bilinear_map(0, xy, xy) == xy * xy
        assert moyal_terms(ctx, xy, xy, 1) == [const(0)]
        assert moyal_terms(ctx, xy, xy, 2) == [const(0), const(Fraction(-1, 4))]
        # no tensor pair joins x1 to x1, so no term is formed
        assert ctx.bilinear_map(0, x, x) == x * x
        assert moyal_terms(ctx, x, x, 3) == []
        assert ctx.bilinear_map(3, x, y) == const(0)

    def test_associativity_randomized(self):
        ctx = self._ctx(order=3)
        rng = random.Random(608)
        for _ in range(25):
            polys = [
                random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=2)
                for _ in range(3)
            ]
            sa, sb, sc = (FormalSeries.from_poly(p, 3) for p in polys)
            left = star_mul(star_mul(sa, sb, ctx), sc, ctx)
            right = star_mul(sa, star_mul(sb, sc, ctx), ctx)
            assert left == right


# Four tensor variables, matrix entries and auxiliary symbols interleaved, carry
# a random antisymmetric tensor; z1 stays outside it.
MOYAL_VARS = [Variable.entry(1, 1, 1), Variable.aux("u", 1), Variable.entry(2, 1, 2),
              Variable.aux("u", 2), VZ]


@st.composite
def moyal_cases(draw):
    """(tensor, a, b) over Q or GF(p), with exponents up to 9 so some exceed p.

    Each operand has a term with an exponent of at least 2 on a tensor
    variable, so a derivative lowers an exponent without removing its variable.
    """
    field = draw(st.sampled_from([QQ, GF(5), GF(7), GF(32003)]))
    if field.p:
        scalars = st.integers(0, field.p - 1).map(field.scalar)
    else:
        scalars = st.fractions(-3, 3, max_denominator=4).map(field.scalar)
    entries = {(i, j): draw(scalars) for i in range(4) for j in range(i + 1, 4)}
    tensor = PoissonTensor(MOYAL_VARS[:4], entries, field)
    vectors = st.lists(st.integers(0, 9), min_size=5, max_size=5)
    nonzero = scalars.filter(bool)

    def operand():
        exps = draw(st.lists(vectors, min_size=1, max_size=3))
        k = draw(st.integers(0, 3))
        exps[0][k] = max(exps[0][k], 2)
        return CommPoly(field, {mono_from_dict(dict(zip(MOYAL_VARS, e))): draw(nonzero)
                                for e in exps})

    return tensor, operand(), operand()


# B_1 to B_4 of random operands match the sympy oracle ``oracles.moyal_term``.
# Cost: 7.4 s run alone and 12.5 s inside tier-1 (Python 3.11, shared 2-core VM),
# the slowest test of the suite.  Under cProfile half of it is the oracle's sympy
# derivatives and products, and most of the rest is ``_moyal_terms``, which
# ``bilinear_map`` runs again for each r.  (A comment, not a docstring: hypothesis
# derives its derandomized examples from the source without comments, so a
# docstring would change which examples run, and so the cost.)
@settings(max_examples=60)
@given(moyal_cases())
def test_bilinear_maps_match_oracle_on_random_tensors(case):
    tensor, a, b = case
    field = tensor.field
    ctx = StarContext(tensor, 4)
    terms = moyal_terms(ctx, a, b, 4)
    assert len(terms) <= 4
    pairs = ordered_pairs(tensor)
    for r in range(5):
        weight = field.scalar(Fraction(1, 2**r * factorial(r)))
        expected = moyal_term(a, b, r, pairs, weight)
        assert ctx.bilinear_map(r, a, b) == expected
        if 1 <= r <= len(terms):
            assert terms[r - 1] == expected
        elif r:  # the terms end only where W_r vanishes, and every later B_r with it
            assert expected.is_zero


@settings(max_examples=40)
@given(moyal_cases(), st.integers(0, 4), st.integers(0, 4))
def test_bilinear_maps_at_two_orders_agree_on_their_common_prefix(case, r1, r2):
    # B_r does not depend on rmax >= r, and the terms end only where W_r vanishes
    tensor, a, b = case
    ctx = StarContext(tensor, 4)
    lo, hi = sorted((r1, r2))
    short, long = moyal_terms(ctx, a, b, lo), moyal_terms(ctx, a, b, hi)
    assert long[:lo] == short
    zero = CommPoly.zero(tensor.field)
    assert [ctx.bilinear_map(r, a, b) for r in range(1, hi + 1)] == long + [zero] * (hi - len(long))


@st.composite
def star_relation_cases(draw):
    """(T, -T, a, b): two series of n x n matrices over Q or GF(p), at an order 1 to 3.

    Each operand has a nonzero entry at h-degree 0 and at the top degree, so
    the product meets coefficient pairs with m + k above the order.
    """
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    order, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    if field.p:
        scalars = st.integers(1, field.p - 1).map(field.scalar)
    else:
        scalars = st.fractions(-3, 3, max_denominator=4).filter(bool).map(field.scalar)
    entries = {(i, j): draw(scalars) for i in range(4) for j in range(i + 1, 4)}
    tensor = PoissonTensor(MOYAL_VARS[:4], entries, field)
    negated = PoissonTensor(MOYAL_VARS[:4], {k: -c for k, c in entries.items()}, field)
    monomials = st.lists(st.integers(0, 3), min_size=4, max_size=4).map(
        lambda e: mono_from_dict(dict(zip(MOYAL_VARS, e))))
    polys = st.dictionaries(monomials, scalars, min_size=1, max_size=2).map(
        lambda terms: CommPoly(field, terms))
    zero = CommPoly.zero(field)

    def series():
        coeffs = []
        for r in range(order + 1):
            rows = [[draw(polys) if draw(st.booleans()) else zero for _ in range(n)]
                    for _ in range(n)]
            if r in (0, order):
                rows[0][0] = draw(polys)
            coeffs.append(GenericMatrix(rows))
        return FormalSeries(coeffs)

    return StarContext(tensor, order), StarContext(negated, order), series(), series()


def transposed(a):
    return FormalSeries([GenericMatrix(zip(*c.rows)) for c in a.coeffs])


def corner(a):
    """The series of the (1, 1) entries of a series of matrices."""
    return FormalSeries([c.rows[0][0] for c in a.coeffs])


@settings(max_examples=25, deadline=None)
@given(star_relation_cases())
def test_reversing_the_tensor_reverses_the_star_product(case):
    # a *_{-T} b = b *_T a, hence [a, b]_* = -[b, a]_*; on matrices it also transposes
    ctx, reversed_ctx, a, b = case
    want = transposed(matrix_star(transposed(b), transposed(a), ctx))
    assert matrix_star(a, b, reversed_ctx) == want
    ab, ba = matrix_star(a, b, ctx), matrix_star(b, a, ctx)
    assert ab - ba == -(ba - ab)
    x, y = corner(a), corner(b)
    xy, yx = star_mul(x, y, ctx), star_mul(y, x, ctx)
    assert star_mul(x, y, reversed_ctx) == yx
    # so reversing the tensor negates the star commutator
    assert star_mul(x, y, reversed_ctx) - star_mul(y, x, reversed_ctx) == -(xy - yx)


class TestCorrespondence:
    def test_defining_pair(self):
        ctx = StarContext(two_pair_tensor(), 2)
        a, b = poly(VX[0]), poly(VY[0])
        rep = verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx))
        assert rep.holds
        assert rep.bracket == CommPoly.one(QQ)

    def test_equal_inputs(self):
        ctx = StarContext(two_pair_tensor(), 2)
        a = poly(VX[0])
        rep = verify_correspondence(a, a, ctx, lifted_commutator(a, a, ctx))
        assert rep.holds
        assert rep.bracket.is_zero

    def test_requires_order_one(self):
        a, b = poly(VX[0]), poly(VY[0])
        ctx = StarContext(two_pair_tensor(), 0)
        with pytest.raises(ValueError):
            verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx))
        ctx = StarContext(two_pair_tensor(), 1)
        assert verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx)).holds

    def test_randomized_suite_against_oracle(self):
        ctx = StarContext(two_pair_tensor(), 2)
        rng = random.Random(609)
        vs = list(ctx.tensor.variables)
        for _ in range(60):
            a = random_commpoly(rng, vs, QQ, max_degree=3)
            b = random_commpoly(rng, vs, QQ, max_degree=3)
            rep = verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx))
            assert rep.holds
            assert rep.star_linear_part == poisson_oracle(a, b, ctx.tensor)


class TestCharacteristicGuards:
    def test_order_must_stay_below_characteristic(self):
        t = two_pair_tensor(GF(7))
        with pytest.raises(CharacteristicTooSmall):
            StarContext(t, 7)
        ctx = StarContext(t, 2)  # fine
        assert ctx.order == 2

    def test_char_two_only_allows_order_zero(self):
        t = two_pair_tensor(GF(2))
        with pytest.raises(CharacteristicTooSmall):
            StarContext(t, 1)
        assert StarContext(t, 0).order == 0

    def test_star_over_f7_matches_rational_shape(self):
        f7 = GF(7)
        t = two_pair_tensor(f7)
        ctx = StarContext(t, 2)
        comm = lifted_commutator(poly(VX[0], f7), poly(VY[0], f7), ctx)
        assert comm.coefficient(1) == CommPoly.one(f7)


class TestMatrixStar:
    def test_1x1_reduces_to_scalar_case(self):
        t = pairing_tensor([VX[0]], [VY[0]], QQ)
        ctx = StarContext(t, 2)
        f = quantize_lift(GenericMatrix([[poly(VX[0])]]), ctx)
        g = quantize_lift(GenericMatrix([[poly(VY[0])]]), ctx)
        comm = f * g - g * f
        assert comm.coefficient(0).is_zero
        assert comm.coefficient(1) == GenericMatrix([[CommPoly.one(QQ)]])

    def test_diagonal_pair_gives_identity_diagonal(self):
        t = two_pair_tensor()
        ctx = StarContext(t, 2)
        f = GenericMatrix.diagonal([poly(VX[0]), poly(VX[1])])
        g = GenericMatrix.diagonal([poly(VY[0]), poly(VY[1])])
        fhat, ghat = quantize_lift(f, ctx), quantize_lift(g, ctx)
        comm = fhat * ghat - ghat * fhat
        assert comm.coefficient(0).is_zero
        assert comm.coefficient(1) == GenericMatrix.identity(2, QQ)

    def test_identity_series_commutes(self):
        t = two_pair_tensor()
        ctx = StarContext(t, 2)
        rng = random.Random(610)
        rows = [
            [random_commpoly(rng, list(t.variables), QQ, max_degree=2) for _ in range(2)]
            for _ in range(2)
        ]
        b = quantize_lift(GenericMatrix(rows), ctx)
        e = b.identity_like()
        assert (e * b - b * e).is_zero

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "gf7"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_moyal_oracle_with_higher_coefficients(self, n, field):
        # coefficient r of a *_M b is sum over m + k + s = r and l of B_s(a_m[i,l], b_k[l,j]);
        # at n = 1 star_mul of the entries is checked too.  Coefficient 1 or 2 of each
        # series is the zero matrix, between coefficients whose (1, 1) entry is random.
        order = 3
        ctx = StarContext(two_pair_tensor(field), order)
        variables = list(ctx.tensor.variables)
        pairs = ordered_pairs(ctx.tensor)
        weights = [field.scalar(Fraction(1, 2**r * factorial(r))) for r in range(order + 1)]
        rng = random.Random(612 + n)

        def random_series():
            hole = rng.randrange(1, order)
            coeffs = [
                GenericMatrix([
                    [random_commpoly(rng, variables, field, max_degree=2, max_terms=2)
                     if r != hole and (i + j == 0 or rng.random() < 0.7) else CommPoly.zero(field)
                     for j in range(n)]
                    for i in range(n)
                ])
                for r in range(order + 1)
            ]
            return FormalSeries(coeffs)

        for _ in range(4):
            a, b = random_series(), random_series()
            assert any(not c.is_zero for c in a.coeffs[1:])
            got = matrix_star(a, b, ctx)
            if n == 1:
                scalar = star_mul(corner(a), corner(b), ctx)
            for r in range(order + 1):
                for i in range(n):
                    for j in range(n):
                        want = CommPoly.zero(field)
                        for m in range(r + 1):
                            for k in range(r + 1 - m):
                                s = r - m - k
                                for l in range(n):
                                    x, y = a.coeffs[m].rows[i][l], b.coeffs[k].rows[l][j]
                                    want = want + moyal_term(x, y, s, pairs, weights[s])
                        assert got.coefficient(r).rows[i][j] == want
                        if n == 1:
                            assert scalar.coefficient(r) == want

    def test_rejects_a_polynomial_series(self):
        ctx = StarContext(two_pair_tensor(), 2)
        s = FormalSeries.from_poly(poly(VX[0]), 2)
        with pytest.raises(TypeError):
            matrix_star(s, s, ctx)

    def test_rejects_a_fraction_matrix_series(self):
        ctx = StarContext(two_pair_tensor(), 2)
        entry = RationalFunction.from_poly(poly(VX[0]))
        s = SeriesFieldMatrix.from_poly(GenericMatrix([[entry]]), 2)
        with pytest.raises(TypeError):
            matrix_star(s, s, ctx)
        with pytest.raises(TypeError):
            matrix_star(quantize_lift(GenericMatrix([[poly(VX[0])]]), ctx), s, ctx)

    def test_operands_over_a_field_other_than_the_contexts_are_refused(self):
        # in a Q context, the lifts of 5 x and 3 y over GF(7) multiplied to a GF(7)
        # series holding the unreduced 15 x y at h^0 and 15/2 at h^1
        ctx = StarContext(pairing_tensor([VX[0]], [VY[0]], QQ), 1)
        f7 = GF(7)
        x, y = (CommPoly.variable(v, f7).scale(f7.scalar(c)) for v, c in ((VX[0], 5), (VY[0], 3)))
        a, b = (quantize_lift(GenericMatrix([[p]]), ctx) for p in (x, y))
        with pytest.raises(FieldMismatch, match="other than the context's"):
            a * b
        with pytest.raises(FieldMismatch, match="other than the context's"):
            star_mul(FormalSeries.from_poly(x, 1), FormalSeries.from_poly(y, 1), ctx)

    def test_star_series_of_different_contexts_are_refused(self):
        # lifted in opposite pairings, a*b - b*a ran in a's context alone and gave 0
        ctx = StarContext(pairing_tensor([VX[0]], [VY[0]], QQ), 1)
        opposite = StarContext(pairing_tensor([VY[0]], [VX[0]], QQ), 1)
        a = quantize_lift(GenericMatrix([[poly(VX[0])]]), ctx)
        b = quantize_lift(GenericMatrix([[poly(VY[0])]]), opposite)
        for op in (operator.add, operator.sub, operator.mul):
            for left, right in ((a, b), (b, a)):
                with pytest.raises(ShapeMismatch, match="another context"):
                    op(left, right)
        for left, right in ((a, a), (a, FormalSeries(a.coeffs)), (FormalSeries(a.coeffs), a)):
            with pytest.raises(ShapeMismatch, match="another context"):
                matrix_star(left, right, opposite)
        # a context built apart but equal is the same context
        same = StarContext(pairing_tensor([VX[0]], [VY[0]], QQ), 1)
        c = quantize_lift(GenericMatrix([[poly(VY[0])]]), same)
        assert (a * c - c * a).coefficient(1) == GenericMatrix([[CommPoly.one(QQ)]])


class TestQuantizeLift:
    def test_lift_of_generic_1x1(self):
        (x,) = make_generic(1, 1, QQ)
        t = entry_pairing_tensor(2, 1, QQ)
        ctx = StarContext(t, 2)
        lifted = quantize_lift(x, ctx)
        assert lifted.coefficient(0) == x
        assert lifted.coefficient(1).is_zero
        assert lifted.coefficient(2).is_zero

    def test_lift_of_zero(self):
        t = entry_pairing_tensor(2, 2, QQ)
        ctx = StarContext(t, 2)
        z = GenericMatrix.zeros(2, QQ)
        assert quantize_lift(z, ctx).is_zero

    def test_round_trip_randomized(self):
        t = two_pair_tensor()
        ctx = StarContext(t, 3)
        rng = random.Random(611)
        for _ in range(10):
            rows = [
                [random_commpoly(rng, list(t.variables), QQ, max_degree=2) for _ in range(2)]
                for _ in range(2)
            ]
            m = GenericMatrix(rows)
            assert quantize_lift(m, ctx).coefficient(0) == m

    def test_unknown_variable_rejected_by_the_product(self):
        # the lift takes any matrix; matrix_star checks the variables of every operand entry
        t = pairing_tensor([VX[0]], [VY[0]], QQ)
        ctx = StarContext(t, 2)
        stray = quantize_lift(GenericMatrix.diagonal([poly(VZ)]), ctx)
        known = quantize_lift(GenericMatrix.diagonal([poly(VX[0])]), ctx)
        for a, b in ((stray, known), (known, stray)):
            with pytest.raises(UnknownVariable, match="z1 is not a tensor variable"):
                a * b

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "gf7"])
    def test_the_lift_is_a_star_series_whose_product_is_matrix_star(self, field):
        ctx = StarContext(two_pair_tensor(field), 3)
        rng = random.Random(613)
        a, b = (GenericMatrix([[random_commpoly(rng, list(ctx.tensor.variables), field,
                                                max_degree=2) for _ in range(2)]
                               for _ in range(2)]) for _ in range(2))
        ahat, bhat = quantize_lift(a, ctx), quantize_lift(b, ctx)
        assert type(ahat) is StarSeries and ahat.ctx is ctx
        assert ahat.coeffs == (a,) + (a.zeros_like(),) * 3
        product = ahat * bhat
        assert type(product) is StarSeries
        assert product == matrix_star(ahat, bhat, ctx)
        assert not product.coefficient(1).is_zero
        assert ahat.identity_like() == quantize_lift(a.identity_like(), ctx)
        assert ahat.zeros_like() == quantize_lift(a.zeros_like(), ctx)
        with pytest.raises(ValueError, match="ctx.order"):  # truncated at the context's order
            StarSeries(ctx, ahat.coeffs[:3])

    @pytest.mark.parametrize("s, n", [(1, 1), (2, 2), (3, 2)])
    def test_the_star_generic_matrices_are_lifts_of_the_generic_matrices(self, s, n):
        ctx = StarContext(entry_pairing_tensor(s, n, QQ), 2)
        lifts = [quantize_lift(x, ctx) for x in make_generic(s, n, QQ)]
        assert star_generic(s, n, ctx) == lifts


def polynomial_in(h: FreePoly, coeffs) -> FreePoly:
    """sum_k coeffs[k] h^k, by Horner's rule."""
    out = FreePoly(h.s, h.field)
    for c in reversed(coeffs):
        out = out * h + FreePoly.constant(c, h.s)
    return out


class TestFreeLift:
    """f^ = f(X^_1, ..., X^_s) at the star-generic matrices: a homomorphic lift."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from([QQ, GF(7)]), st.integers(0, 10**6))
    def test_lifts_of_polynomials_in_one_element_star_commute(self, n, field, seed):
        # h has a word in both generators, so the canonical lifts of f = p(h)
        # and g = q(h) mostly have c1 != 0 from n = 2 on, while the lifts at the
        # star-generic matrices commute at every order
        rng = random.Random(seed)
        word = rng.choice([(1, 2), (2, 1)])
        h = (FreePoly(2, field, {word: rng.choice([-3, -2, -1, 1, 2, 3])})
             + random_freepoly(rng, 2, field, max_degree=1, max_terms=2))
        f = polynomial_in(h, [random_scalar(rng, field) for _ in range(2)])
        g = polynomial_in(h, [random_scalar(rng, field) for _ in range(3)])
        ctx = StarContext(entry_pairing_tensor(2, n, field), 3)
        xs = star_generic(2, n, ctx)
        fhat, ghat = f.evaluate_in_matrices(xs), g.evaluate_in_matrices(xs)
        fn, gn = pi_reduce(f, n), pi_reduce(g, n)
        assert (fhat.coefficient(0), ghat.coefficient(0)) == (fn, gn)
        comm = fhat * ghat - ghat * fhat
        assert comm.is_zero
        # tau does not depend on the lift
        fn_hat, gn_hat = quantize_lift(fn, ctx), quantize_lift(gn, ctx)
        canonical = fn_hat * gn_hat - gn_hat * fn_hat
        assert _star_traces(comm.coefficient(1), fn) == _star_traces(canonical.coefficient(1), fn)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "gf7"])
    def test_commutator_plus_one_by_hand_at_size_2(self, field):
        # x1[i,l] * x2[l,j] = x1[i,l] x2[l,j] + h/2 {x1[i,l], x2[l,j]}, and the
        # bracket is 1 only at i = l = j: X^1 X^2 = X1 X2 + h/2 E and
        # X^2 X^1 = X2 X1 - h/2 E, so f^ = [X1, X2] + E + h E
        ctx = StarContext(entry_pairing_tensor(2, 2, field), 3)
        fhat = parse_free("x1*x2 - x2*x1 + 1", 2, field).evaluate_in_matrices(
            star_generic(2, 2, ctx))
        x1, x2 = make_generic(2, 2, field)
        e = x1.identity_like()
        assert fhat.coeffs == (x1 * x2 - x2 * x1 + e, e, e.zeros_like(), e.zeros_like())
        assert type(fhat) is StarSeries and fhat.ctx is ctx


def tensor_dict(t: PoissonTensor) -> dict:
    """The tensor file object that ``PoissonTensor.from_dict`` reads."""
    return {
        "variables": [str(v) for v in t.variables],
        "entries": [[i, j, str(c)] for (i, j), c in sorted(t.entries.items())],
    }


class TestTensorIO:
    def test_dict_round_trip(self):
        t = two_pair_tensor()
        assert PoissonTensor.from_dict(tensor_dict(t), QQ) == t

    def test_file_round_trip(self, tmp_path):
        t = entry_pairing_tensor(2, 2, QQ)
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(tensor_dict(t)))
        assert PoissonTensor.load(path, QQ) == t

    @pytest.mark.parametrize("field, given, stored", [
        (QQ, QQ.scalar(Fraction(2, 4)), Fraction(1, 2)),
        (QQ, Fraction(4, 2), 2),
        (GF(7), -1, 6),
        (GF(7), "1/2", 4),
    ])
    def test_entries_hold_raw_values(self, field, given, stored):
        t = PoissonTensor([VX[0], VY[0]], {(0, 1): given}, field)
        assert t.entries == {(0, 1): stored}
        assert type(t.entries[0, 1]) is type(stored)
        assert PoissonTensor([VX[0], VY[0]], {(0, 1): 0}, field).entries == {}

    def test_a_scalar_of_another_field_is_refused(self):
        with pytest.raises(FieldMismatch):
            PoissonTensor([VX[0], VY[0]], {(0, 1): GF(7).scalar(1)}, QQ)

    @pytest.mark.parametrize("row", [["0", 1, "1"], [True, 1, "1"], [0, 1.0, "1"]])
    def test_an_index_that_is_not_a_json_integer_is_refused(self, row):
        with pytest.raises(BadTensorFile, match="is not a pair of integers"):
            PoissonTensor.from_dict({"variables": ["x1", "y1"], "entries": [row]}, QQ)

    def test_lower_triangle_rejected(self):
        with pytest.raises(BadTensorFile):
            PoissonTensor([VX[0], VY[0]], {(1, 0): QQ.scalar(1)}, QQ)

    def test_diagonal_rejected(self):
        with pytest.raises(BadTensorFile):
            PoissonTensor([VX[0], VY[0]], {(0, 0): QQ.scalar(1)}, QQ)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BadTensorFile):
            PoissonTensor.load(path, QQ)
        path.write_text(json.dumps({"variables": ["x1"], "entries": [[0, 1, "1"]]}))
        with pytest.raises(BadTensorFile):
            PoissonTensor.load(path, QQ)
