"""Poisson brackets, the truncated star product and series of matrices."""

import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import moyal_term, poisson_oracle
from samples import lifted_commutator, random_commpoly
from nclab.diagonalize import SeriesFieldMatrix
from nclab.errors import BadTensorFile, CharacteristicTooSmall, UnknownVariable
from nclab.fields import GF, QQ
from nclab.quantize import (
    FormalSeries,
    PoissonTensor,
    StarContext,
    entry_pairing_tensor,
    matrix_star,
    matrix_star_commutator,
    pairing_tensor,
    poisson_bracket,
    quantize_lift,
    star_commutator,
    star_mul,
    verify_correspondence,
)
from nclab.genmat import GenericMatrix, make_generic
from nclab.rings import CommPoly, RationalFunction, Variable, mono_from_dict

VX = [Variable.aux("x", i) for i in (1, 2)]
VY = [Variable.aux("y", i) for i in (1, 2)]
VZ = Variable.aux("z", 1)


def two_pair_tensor(field=QQ):
    """{x1, y1} = {x2, y2} = 1 with an extra unpaired variable z1."""
    variables = VX + VY + [VZ]
    entries = {(0, 2): field.one, (1, 3): field.one}
    return PoissonTensor(variables, entries, field)


def poly(v, field=QQ):
    return CommPoly.variable(v, field)


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
        weights = StarContext(two_pair_tensor(field), 40)._weights
        assert weights == tuple(field.scalar(Fraction(1, 2**r * factorial(r))) for r in range(41))

    def test_x_star_y(self):
        ctx = self._ctx()
        x, y = poly(VX[0]), poly(VY[0])
        sx, sy = FormalSeries.from_poly(x, 2), FormalSeries.from_poly(y, 2)
        prod = star_mul(sx, sy, ctx)
        assert prod.coefficient(0) == x * y
        assert prod.coefficient(1) == CommPoly.constant(QQ.scalar(Fraction(1, 2)))
        assert prod.coefficient(2).is_zero

    def test_y_star_x(self):
        ctx = self._ctx()
        x, y = poly(VX[0]), poly(VY[0])
        prod = star_mul(FormalSeries.from_poly(y, 2), FormalSeries.from_poly(x, 2), ctx)
        assert prod.coefficient(0) == x * y
        assert prod.coefficient(1) == CommPoly.constant(QQ.scalar(Fraction(-1, 2)))

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
        comm = star_commutator(
            FormalSeries.from_poly(x, 2), FormalSeries.from_poly(y, 2), ctx
        )
        assert comm.coefficient(0).is_zero
        assert comm.coefficient(1) == CommPoly.one(QQ)
        assert comm.coefficient(2).is_zero

    def test_commutator_of_dependent_elements_vanishes(self):
        ctx = self._ctx()
        x = poly(VX[0])
        comm = star_commutator(
            FormalSeries.from_poly(x, 2), FormalSeries.from_poly(x * x, 2), ctx
        )
        assert comm.is_zero

    def test_commutator_antisymmetry(self):
        ctx = self._ctx()
        rng = random.Random(604)
        for _ in range(15):
            a = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=2)
            b = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=2)
            sa, sb = FormalSeries.from_poly(a, 2), FormalSeries.from_poly(b, 2)
            total = star_commutator(sa, sb, ctx) + star_commutator(sb, sa, ctx)
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
        pairs = ctx.tensor.ordered_pairs()
        for r in (1, 2, 3):
            denom = 2**r
            for k in range(1, r + 1):
                denom *= k
            weight = QQ.scalar(Fraction(1, denom))
            for _ in range(10):
                a = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=3)
                b = random_commpoly(rng, list(ctx.tensor.variables), QQ, max_degree=3)
                assert ctx.bilinear_map(r, a, b) == moyal_term(a, b, r, pairs, weight)

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


@settings(max_examples=60)
@given(moyal_cases())
def test_bilinear_maps_match_oracle_on_random_tensors(case):
    tensor, a, b = case
    field = tensor.field
    ctx = StarContext(tensor, 4)
    maps = ctx.bilinear_maps(a, b, 4)
    assert len(maps) == 5
    pairs = tensor.ordered_pairs()
    for r, term in enumerate(maps):
        weight = field.scalar(Fraction(1, 2**r * factorial(r)))
        assert term == moyal_term(a, b, r, pairs, weight)
    assert ctx.bilinear_map(2, a, b) == maps[2]


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

    def test_requires_order_two(self):
        ctx = StarContext(two_pair_tensor(), 1)
        a, b = poly(VX[0]), poly(VY[0])
        with pytest.raises(ValueError):
            verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx))

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
        x, y = poly(VX[0], f7), poly(VY[0], f7)
        comm = star_commutator(
            FormalSeries.from_poly(x, 2), FormalSeries.from_poly(y, 2), ctx
        )
        assert comm.coefficient(1) == CommPoly.one(f7)


class TestMatrixStar:
    def test_1x1_reduces_to_scalar_case(self):
        t = pairing_tensor([VX[0]], [VY[0]], QQ)
        ctx = StarContext(t, 2)
        f = FormalSeries.from_poly(GenericMatrix([[poly(VX[0])]]), 2)
        g = FormalSeries.from_poly(GenericMatrix([[poly(VY[0])]]), 2)
        comm = matrix_star_commutator(f, g, ctx)
        assert comm.coefficient(0).is_zero
        assert comm.coefficient(1) == GenericMatrix([[CommPoly.one(QQ)]])

    def test_diagonal_pair_gives_identity_diagonal(self):
        t = two_pair_tensor()
        ctx = StarContext(t, 2)
        f = GenericMatrix.diagonal([poly(VX[0]), poly(VX[1])])
        g = GenericMatrix.diagonal([poly(VY[0]), poly(VY[1])])
        comm = matrix_star_commutator(quantize_lift(f, ctx), quantize_lift(g, ctx), ctx)
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
        b = FormalSeries.from_poly(GenericMatrix(rows), 2)
        e = FormalSeries.from_poly(GenericMatrix.identity(2, QQ), 2)
        assert matrix_star_commutator(e, b, ctx).is_zero

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "gf7"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_moyal_oracle_with_higher_coefficients(self, n, field):
        # coefficient r of a *_M b is sum over m + k + s = r and l of B_s(a_m[i,l], b_k[l,j])
        order = 3
        ctx = StarContext(two_pair_tensor(field), order)
        variables = list(ctx.tensor.variables)
        pairs = ctx.tensor.ordered_pairs()
        weights = [field.scalar(Fraction(1, 2**r * factorial(r))) for r in range(order + 1)]
        rng = random.Random(612 + n)

        def random_series():
            coeffs = [
                GenericMatrix([
                    [random_commpoly(rng, variables, field, max_degree=2, max_terms=2)
                     if rng.random() < 0.7 else CommPoly.zero(field) for _ in range(n)]
                    for _ in range(n)
                ])
                for _ in range(order + 1)
            ]
            return FormalSeries(order, coeffs)

        for _ in range(4):
            a, b = random_series(), random_series()
            assert any(not c.is_zero for c in a.coeffs[1:])
            got = matrix_star(a, b, ctx)
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

    def test_unknown_variable_rejected(self):
        t = pairing_tensor([VX[0]], [VY[0]], QQ)
        ctx = StarContext(t, 2)
        stray = GenericMatrix.diagonal([poly(VZ)])
        with pytest.raises(UnknownVariable):
            quantize_lift(stray, ctx)


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

    def test_lower_triangle_rejected(self):
        with pytest.raises(BadTensorFile):
            PoissonTensor([VX[0], VY[0]], {(1, 0): QQ.one}, QQ)

    def test_diagonal_rejected(self):
        with pytest.raises(BadTensorFile):
            PoissonTensor([VX[0], VY[0]], {(0, 0): QQ.one}, QQ)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BadTensorFile):
            PoissonTensor.load(path, QQ)
        path.write_text(json.dumps({"variables": ["x1"], "entries": [[0, 1, "1"]]}))
        with pytest.raises(BadTensorFile):
            PoissonTensor.load(path, QQ)
