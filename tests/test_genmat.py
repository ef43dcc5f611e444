"""Generic matrices: construction, reduction, identities."""

import itertools
import random
from functools import partial

import pytest

from oracles import matmul, signed_permutation_sum
from samples import random_commpoly, random_freepoly
from nclab.errors import InvalidSize, ShapeMismatch
from nclab.fields import GF, QQ
from nclab.freealg import parse_free
from nclab.genmat import (
    FormalSeries,
    GenericMatrix,
    make_generic,
    pi_reduce,
    standard_identity,
)
from nclab.rings import CommPoly, RationalFunction, Variable


def entry_poly(l, i, j, field=QQ):
    return CommPoly.variable(Variable.entry(l, i, j), field)


class TestMakeGeneric:
    def test_single_1x1(self):
        (x,) = make_generic(1, 1, QQ)
        assert x.entry(1, 1) == entry_poly(1, 1, 1)

    def test_two_2x2_have_the_displayed_entries(self):
        x1, x2 = make_generic(2, 2, QQ)
        for l, m in ((1, x1), (2, x2)):
            for i in (1, 2):
                for j in (1, 2):
                    assert m.entry(i, j) == entry_poly(l, i, j)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSize):
            make_generic(0, 2, QQ)
        with pytest.raises(InvalidSize):
            make_generic(1, 0, QQ)

    def test_variable_supports_pairwise_disjoint(self):
        mats = make_generic(3, 2, QQ)
        seen = set()
        for m in mats:
            vs = {v for row in m.rows for e in row for v in e.variables()}
            assert not (vs & seen)
            seen |= vs
        assert len(seen) == 3 * 4


class TestPiReduce:
    def test_commutator_dies_at_size_1(self):
        a = parse_free("x1*x2 - x2*x1", 2, QQ)
        assert pi_reduce(a, 1).is_zero

    def test_commutator_survives_at_size_2(self):
        a = parse_free("x1*x2 - x2*x1", 2, QQ)
        image = pi_reduce(a, 2)
        assert not image.is_zero
        # oracle: expand X1*X2 - X2*X1 entrywise with an independent product
        x1, x2 = make_generic(2, 2, QQ)
        r1 = [list(r) for r in x1.rows]
        r2 = [list(r) for r in x2.rows]
        prod = matmul(r1, r2)
        anti = matmul(r2, r1)
        for i in range(2):
            for j in range(2):
                expected = prod[i][j] - anti[i][j]
                assert image.rows[i][j] == expected
                assert expected.degree() == 2

    def test_generator_maps_to_generic(self):
        a = parse_free("x1", 2, QQ)
        assert pi_reduce(a, 2) == make_generic(2, 2, QQ)[0]

    def test_pi_is_multiplicative_randomized(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 3)
            f = random_freepoly(rng, 2, QQ, max_degree=3, max_terms=3)
            g = random_freepoly(rng, 2, QQ, max_degree=3, max_terms=3)
            assert pi_reduce(f * g, n) == pi_reduce(f, n) * pi_reduce(g, n)

    def test_pi_of_one_is_identity(self):
        one = parse_free("1", 2, QQ)
        assert pi_reduce(one, 3) == GenericMatrix.identity(3, QQ)

    @pytest.mark.parametrize(
        "expr, image, products",
        [
            ("x1 - 2*x2 + 3", lambda x1, x2, one: x1 + x2.scale(-2) + one.scale(3), 0),
            ("x1*x2*x1", lambda x1, x2, one: x1 * x2 * x1, 2),
        ],
    )
    def test_a_word_costs_one_product_per_letter_after_its_first(
        self, expr, image, products, monkeypatch
    ):
        expected = image(*make_generic(2, 3, QQ), GenericMatrix.identity(3, QQ))
        calls = []
        real = GenericMatrix.__mul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(GenericMatrix, "__mul__", counting)
        assert pi_reduce(parse_free(expr, 2, QQ), 3) == expected
        assert len(calls) == products


class TestMatrixArithmetic:
    def test_identity_is_neutral(self):
        (x1,) = make_generic(1, 2, QQ)
        assert x1 * GenericMatrix.identity(2, QQ) == x1

    def test_add_sub(self):
        x1, x2 = make_generic(2, 2, QQ)
        assert (x1 + x2) - x2 == x1

    def test_unit_matrix_products(self):
        e12 = GenericMatrix.unit(2, 1, 2, QQ)
        e21 = GenericMatrix.unit(2, 2, 1, QQ)
        e11 = GenericMatrix.unit(2, 1, 1, QQ)
        assert e12 * e21 == e11

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            GenericMatrix.identity(2, QQ) + GenericMatrix.identity(3, QQ)


def random_ratfun(rng, field):
    """0, or a random polynomial in lam1..lam3 over up to two eigenvalue differences."""
    lams = [Variable.aux("lam", i) for i in (1, 2, 3)]
    if rng.random() < 0.25:
        return RationalFunction.zero(field)
    out = RationalFunction.from_poly(random_commpoly(rng, lams, field, max_degree=2, max_terms=3))
    for _ in range(rng.randint(0, 2)):
        u, v = sorted(rng.sample(lams, 2))
        diff = CommPoly.variable(u, field) - CommPoly.variable(v, field)
        out = out / RationalFunction.from_poly(diff)
    return out


class TestRationalFunctionEntries:
    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "gf7"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ring_operations_match_the_oracle(self, n, field):
        rng = random.Random(800 + n)
        for _ in range(4):
            a, b = (
                [[random_ratfun(rng, field) for _ in range(n)] for _ in range(n)]
                for _ in range(2)
            )
            ma, mb = GenericMatrix(a), GenericMatrix(b)
            assert ma.ring is RationalFunction
            assert [list(r) for r in (ma * mb).rows] == matmul(a, b)
            assert [list(r) for r in (ma + mb).rows] == [
                [x + y for x, y in zip(u, v)] for u, v in zip(a, b)]
            assert [list(r) for r in (ma - mb).rows] == [
                [x - y for x, y in zip(u, v)] for u, v in zip(a, b)]

    def test_zero_and_one_come_from_the_entry_class(self):
        e = GenericMatrix.identity(2, QQ, RationalFunction)
        assert e.entry(1, 1) == RationalFunction.one(QQ) and e.entry(1, 2).is_zero
        z = GenericMatrix.zeros(2, QQ, RationalFunction)
        assert (e * z) == z and (z * e).ring is RationalFunction
        assert e.entry(1, 1) + e.entry(2, 2) == RationalFunction.from_poly(
            CommPoly(QQ, {(): 2}))

    def test_rings_do_not_mix(self):
        with pytest.raises(TypeError):
            GenericMatrix([[CommPoly.one(QQ), RationalFunction.one(QQ)],
                           [CommPoly.zero(QQ), CommPoly.one(QQ)]])
        with pytest.raises(TypeError):
            GenericMatrix.identity(2, QQ) * GenericMatrix.identity(2, QQ, RationalFunction)


SHAPES = ("zero-lines", "diagonal", "unit", "dense")


def random_shaped(rng, n, shape, entry, zero):
    """An n x n list of entries: ``entry()`` where the shape allows one, else ``zero``."""
    grid = [(i, j) for i in range(n) for j in range(n)]
    if shape == "zero-lines":  # some rows and columns zero, the rest half full
        rows, cols = set(rng.sample(range(n), n // 2)), set(rng.sample(range(n), n // 2))
        cells = {(i, j) for i, j in grid if i not in rows and j not in cols and rng.random() < 0.5}
    elif shape == "diagonal":
        cells = {(i, i) for i in range(n)}
    elif shape == "unit":
        cells = {(rng.randrange(n), rng.randrange(n))}
    else:
        cells = set(grid)
    return [[entry() if (i, j) in cells else zero for j in range(n)] for i in range(n)]


def transpose(m):
    return GenericMatrix(zip(*m.rows))


def assert_canonical(m):
    """No zero entry is stored, and the dense grid builds back the same matrix and hash."""
    assert not any(e.is_zero for e in m.entries.values())
    assert all(0 <= i < m.n and 0 <= j < m.n for i, j in m.entries)
    back = GenericMatrix(m.rows)
    assert back == m and hash(back) == hash(m)


class TestNonzeroPairs:
    RINGS = [("q", QQ, CommPoly), ("gf2", GF(2), CommPoly), ("gf32003", GF(32003), CommPoly),
             ("ratfun-q", QQ, RationalFunction)]

    @pytest.mark.parametrize("name, field, ring", RINGS, ids=[r[0] for r in RINGS])
    def test_product_matches_the_entrywise_sum(self, name, field, ring):
        # sum over l of a_il * b_lj, formed by the oracle with every zero factor included
        rng = random.Random(f"pairs-{name}")
        variables = [Variable.aux("z", i) for i in (1, 2, 3)]
        if ring is CommPoly:
            entry = partial(random_commpoly, rng, variables, field, max_degree=2, max_terms=3)
        else:
            entry = partial(random_ratfun, rng, field)
        zero = ring.zero(field)
        for left, right, _ in itertools.product(SHAPES, SHAPES, range(3)):
            n = rng.randint(1, 3 if ring is RationalFunction else 4)
            a, b = (random_shaped(rng, n, shape, entry, zero) for shape in (left, right))
            ma, mb = GenericMatrix(a), GenericMatrix(b)
            assert [list(r) for r in (ma * mb).rows] == matmul(a, b)
            assert_canonical(ma * mb)
            if ring is CommPoly:  # (AB)^T = B^T A^T
                assert transpose(ma * mb) == transpose(mb) * transpose(ma)

    @pytest.mark.parametrize("name, field, ring", RINGS, ids=[r[0] for r in RINGS])
    def test_entries_that_cancel_are_not_stored(self, name, field, ring):
        rng = random.Random(f"cancel-{name}")
        variables = [Variable.aux("z", i) for i in (1, 2, 3)]
        if ring is CommPoly:
            draw = partial(random_commpoly, rng, variables, field, max_degree=2, max_terms=3)
        else:
            draw = partial(random_ratfun, rng, field)

        def entry():
            e = draw()
            return e if not e.is_zero else entry()

        zero = ring.zero(field)
        for shape, _ in itertools.product(SHAPES, range(2)):
            a = GenericMatrix(random_shaped(rng, rng.randint(1, 3), shape, entry, zero))
            results = [a - a, a + -a, a.scale(0), a * a.scale(0)]
            if field.p:
                results.append(a.scale(field.p))
            for m in results:
                assert m.is_zero and m == GenericMatrix.zeros(a.n, field, ring)
                assert_canonical(m)
        for _ in range(3):
            # [[p, p], [q, r]] [[s, t], [-s, u]]: entry (1, 1) is ps - ps
            p, q, r, s, t, u = (entry() for _ in range(6))
            left, right = GenericMatrix([[p, p], [q, r]]), GenericMatrix([[s, t], [-s, u]])
            product = left * right
            assert (0, 0) not in product.entries
            assert [list(row) for row in product.rows] == matmul(left.rows, right.rows)
            assert_canonical(product)
            # [[p, p], [q, q]] [[s, t], [-s, -t]] cancels everywhere
            assert (GenericMatrix([[p, p], [q, q]]) * GenericMatrix([[s, t], [-s, -t]])).is_zero

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_diagonal_operands_give_n_pairs_and_lifts_one(self, n):
        f, g = (GenericMatrix.diagonal([entry_poly(l, i, i) for i in range(1, n + 1)])
                for l in (1, 2))
        assert [(i, j) for i, j, _, _ in f.nonzero_pairs(g)] == [(i, i) for i in range(n)]
        lifts = [FormalSeries.from_poly(m, 3) for m in (f, g)]
        assert [(m, k) for m, k, _, _ in lifts[0].nonzero_pairs(lifts[1])] == [(0, 0)]

    def test_pairs_run_row_by_row_with_l_ascending(self):
        x, y = make_generic(2, 3, QQ)
        want = [(i, j, x.rows[i][l], y.rows[l][j])
                for i in range(3) for l in range(3) for j in range(3)]
        assert list(x.nonzero_pairs(y)) == want
        # a sum keeps its entries in the order they were added, not row by row
        units = [GenericMatrix.unit(2, i, j, QQ) for i, j in ((2, 2), (1, 1), (2, 1))]
        d = units[0] + units[1] + units[2]
        assert [(i, j) for i, j, _, _ in d.nonzero_pairs(d)] == [(0, 0), (1, 0), (1, 0), (1, 1)]

    def test_series_pairs_stop_at_the_order(self):
        x, y = make_generic(2, 1, QQ)
        zero = GenericMatrix.zeros(1, QQ)
        a, b = FormalSeries([x, zero, x, x]), FormalSeries([zero, y, zero, y])
        assert [(m, k) for m, k, _, _ in a.nonzero_pairs(b)] == [(0, 1), (0, 3), (2, 1)]
        assert a.order == 3  # a series stores only its coefficients
        with pytest.raises(ValueError, match="at least one coefficient"):
            FormalSeries([])


class TestStandardIdentity:
    def test_s2_is_the_commutator(self):
        x1, x2 = make_generic(2, 2, QQ)
        assert standard_identity([x1, x2]) == x1 * x2 - x2 * x1

    def test_s4_vanishes_on_2x2_generic(self):
        mats = make_generic(4, 2, QQ)
        assert standard_identity(mats).is_zero

    def test_s3_on_units_is_nonzero(self):
        units = [
            GenericMatrix.unit(2, 1, 1, QQ),
            GenericMatrix.unit(2, 1, 2, QQ),
            GenericMatrix.unit(2, 2, 1, QQ),
        ]
        result = standard_identity(units)
        assert not result.is_zero
        rows = [[list(r) for r in m.rows] for m in units]
        oracle = signed_permutation_sum(rows)
        for i in range(2):
            for j in range(2):
                assert result.rows[i][j] == oracle[i][j]

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
    @pytest.mark.parametrize("k, n", [(k, 2) for k in range(1, 6)] + [(k, 3) for k in range(1, 5)])
    def test_matches_the_permutation_sum(self, k, n, field):
        mats = make_generic(k, n, field)
        result = standard_identity(mats)
        oracle = signed_permutation_sum([[list(r) for r in m.rows] for m in mats])
        for i in range(n):
            for j in range(n):
                assert result.rows[i][j] == oracle[i][j]

    def test_alternating_on_repeated_argument(self):
        for k in (2, 3, 4):
            mats = make_generic(k - 1, 2, QQ)
            args = list(mats) + [mats[0]]
            assert standard_identity(args).is_zero

    def test_multilinear_spot_check(self):
        x1, x2, x3, x4 = make_generic(4, 2, QQ)
        lhs = standard_identity([x1 + x2, x3, x4])
        rhs = standard_identity([x1, x3, x4]) + standard_identity([x2, x3, x4])
        assert lhs == rhs
