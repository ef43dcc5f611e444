"""Sylvester solves and order-by-order diagonalization."""

import json
import random
from unittest import mock

import pytest

from oracles import diagonalize_by_conjugation, inverse_unitriangular, matmul, series_identity
from samples import random_commpoly, random_int_matrix
from nclab.errors import (
    NonzeroDiagonalRHS,
    NotDiagonalLeadingTerm,
    RepeatedEigenvalue,
)
from nclab.fields import QQ, Field
from nclab.diagonalize import (
    SeriesFieldMatrix,
    solve_sylvester_diag,
    successive_diagonalize,
)
from nclab.genmat import GenericMatrix
from nclab import rings
from nclab.cli import main
from nclab.rings import CommPoly, RationalFunction, Variable

ZERO = RationalFunction.zero(QQ)
ONE = RationalFunction.one(QQ)


def lam(i):
    return RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))


def rf_const(v):
    return RationalFunction.from_poly(CommPoly(QQ, {(): v}))


def diag_matrix(entries):
    return GenericMatrix.diagonal(entries)


def mat(*rows):
    return GenericMatrix(rows)


def lists(m):
    return [list(r) for r in m.rows]


class TestSylvester:
    def test_2x2_fraction_field(self):
        rhs = mat((ZERO, ONE), (ONE, ZERO))
        t = solve_sylvester_diag([lam(1), lam(2)], rhs)
        d = lam(1) - lam(2)
        assert t.entry(1, 2) == ONE / d
        assert t.entry(2, 1) == ONE / (lam(2) - lam(1))
        assert t.entry(1, 1).is_zero and t.entry(2, 2).is_zero
        # oracle: substitute into [T, A0] with an independent 2x2 product
        a0 = lists(diag_matrix([lam(1), lam(2)]))
        t_rows = lists(t)
        # matmul works on CommPoly-like entries; RationalFunction supports + and *
        comm = [
            [
                matmul(t_rows, a0)[i][j] - matmul(a0, t_rows)[i][j]
                for j in range(2)
            ]
            for i in range(2)
        ]
        for i in range(2):
            for j in range(2):
                assert (comm[i][j] + rhs.rows[i][j]).is_zero

    def test_zero_rhs_gives_zero(self):
        rhs = mat((ZERO, ZERO), (ZERO, ZERO))
        t = solve_sylvester_diag([lam(1), lam(2)], rhs)
        assert t.is_zero

    def test_repeated_eigenvalue(self):
        rhs = mat((ZERO, ONE), (ONE, ZERO))
        with pytest.raises(RepeatedEigenvalue):
            solve_sylvester_diag([rf_const(1), rf_const(1)], rhs)

    def test_nonzero_diagonal_rhs(self):
        rhs = mat((ONE, ONE), (ONE, ZERO))
        with pytest.raises(NonzeroDiagonalRHS):
            solve_sylvester_diag([lam(1), lam(2)], rhs)


def series(coeff_matrices, order=None):
    order = len(coeff_matrices) - 1 if order is None else order
    zmat = GenericMatrix.zeros(coeff_matrices[0].n, QQ, RationalFunction)
    coeffs = list(coeff_matrices) + [zmat] * (order + 1 - len(coeff_matrices))
    return SeriesFieldMatrix(coeffs)


def random_ratfun(rng, n_lam=3):
    """0, or a random polynomial in lam_1..lam_n over up to two eigenvalue differences."""
    if rng.random() < 0.25:
        return ZERO
    lams = [Variable.aux("lam", i) for i in range(1, n_lam + 1)]
    num = random_commpoly(rng, lams, QQ, max_degree=2, max_terms=3)
    out = RationalFunction.from_poly(num)
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(1, n_lam + 1), 2))
        out = out / (lam(i) - lam(j))
    return out


def random_rf_matrix(rng, n):
    return GenericMatrix([[random_ratfun(rng) for _ in range(n)] for _ in range(n)])


class TestSeriesFieldMatrixProduct:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_is_the_convolution_of_matmul(self, n):
        # the dense Cauchy sum, zero coefficient matrices and diagonal ones included
        rng = random.Random(700 + n)
        order = 3
        zero = GenericMatrix.zeros(n, QQ, RationalFunction)

        def coefficient():
            kind = rng.choice(["zero", "diagonal", "full"])
            if kind == "zero":
                return zero
            if kind == "diagonal":
                return GenericMatrix.diagonal([random_ratfun(rng) for _ in range(n)])
            return random_rf_matrix(rng, n)

        for _ in range(3):
            a, b = (SeriesFieldMatrix([coefficient() for _ in range(order + 1)])
                    for _ in range(2))
            got = a * b
            for r in range(order + 1):
                want = matmul(lists(a.coeffs[0]), lists(b.coeffs[r]))
                for k in range(1, r + 1):
                    term = matmul(lists(a.coeffs[k]), lists(b.coeffs[r - k]))
                    want = [[x + y for x, y in zip(u, v)] for u, v in zip(want, term)]
                assert lists(got.coefficient(r)) == want

    def test_zero_coefficients_give_a_zero_matrix_over_the_same_ring(self):
        a = series([diag_matrix([lam(1), lam(2)])], order=2)
        prod = a * a
        assert prod.coefficient(0) == diag_matrix([lam(1) * lam(1), lam(2) * lam(2)])
        assert prod.coefficient(2) == GenericMatrix.zeros(2, QQ, RationalFunction)
        assert type(prod) is SeriesFieldMatrix and type(prod - a) is SeriesFieldMatrix


class TestDiagCommand:
    """``diag`` end to end: entries stay in k[lam][1/Δ], and no gcd is ever taken."""

    def test_diag_never_calls_the_gcd(self, capsys):
        with mock.patch.object(rings, "poly_gcd", side_effect=AssertionError("gcd called")):
            code = main(["diag", "--n", "3", "--order", "3"])
        assert code == 0
        assert "off-diagonal vanishes through h^3: PASS" in capsys.readouterr().out

    def test_n4_order3_is_verified(self, capsys):
        # 21 s with gcd-reduced fractions, 0.2 s without (2-core Xeon VM)
        code = main(["diag", "--n", "4", "--order", "3"])
        assert code == 0
        assert "off-diagonal vanishes through h^3: PASS" in capsys.readouterr().out

    def test_order_zero_reports_only_what_it_checks(self, capsys):
        # an order-1 series would carry an h-coefficient that the re-check never reads
        assert main(["diag", "--n", "2", "--order", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        for name in ("conjugator", "diagonal"):
            assert report[name]["order"] == 0
            assert len(report[name]["coeffs"]) == 1

    def test_every_denominator_is_a_product_of_eigenvalue_differences(self):
        a = series([diag_matrix([lam(1), lam(2), lam(3)]),
                    GenericMatrix([[ZERO if i == j else rf_const(i + 2 * j) for j in range(3)]
                                   for i in range(3)])], order=3)
        rep = successive_diagonalize(a)
        assert rep.verify(a) is True
        lams = {Variable.aux("lam", i) for i in range(1, 4)}
        for c in rep.conjugator.coeffs + rep.diagonal.coeffs:
            for row in c.rows:
                for x in row:
                    for (u, v), e in x.exps:
                        assert {u, v} <= lams and u < v and e > 0


class TestSuccessiveDiagonalize:
    def test_first_order_2x2(self):
        a = series([diag_matrix([lam(1), lam(2)]), mat((ZERO, ONE), (ONE, ZERO))])
        rep = successive_diagonalize(a)
        assert rep.diagonal.coefficient(0) == diag_matrix([lam(1), lam(2)])
        assert rep.diagonal.coefficient(1).is_zero
        # conjugate has zero off-diagonal through h^1 (checked again here)
        conj = rep.conjugator * a * inverse_unitriangular(rep.conjugator)
        assert all(c.is_diagonal() for c in conj.coeffs[:2])
        # U = E + h T
        assert (rep.conjugator.coefficient(0) - diag_matrix([ONE, ONE])).is_zero

    def test_diagonal_perturbation_is_kept(self):
        a = series(
            [diag_matrix([lam(1), lam(2)]), diag_matrix([rf_const(3), rf_const(-2)])]
        )
        rep = successive_diagonalize(a)
        e = series_identity(2, a.order, QQ)
        assert rep.conjugator == e
        assert rep.diagonal == a

    def test_already_diagonal_any_target(self):
        a = series(
            [
                diag_matrix([lam(1), lam(2), lam(3)]),
                diag_matrix([rf_const(1), rf_const(2), rf_const(3)]),
                diag_matrix([rf_const(-1), rf_const(0), rf_const(5)]),
            ]
        )
        rep = successive_diagonalize(a)
        assert rep.conjugator == series_identity(3, a.order, QQ)
        assert rep.diagonal == a

    def test_order_two_with_dense_integer_perturbation(self):
        rng = random.Random(1729)
        n = 3
        m = GenericMatrix([
            [rf_const(rng.randint(-5, 5)) if i != j else ZERO for j in range(n)]
            for i in range(n)
        ])
        a = series([diag_matrix([lam(1), lam(2), lam(3)]), m], order=2)
        rep = successive_diagonalize(a)
        conj = rep.conjugator * a * inverse_unitriangular(rep.conjugator)
        assert all(c.is_diagonal() for c in conj.coeffs[:3])
        assert rep.diagonal.coeffs[0].diagonal_entries() == [lam(1), lam(2), lam(3)]

    def test_rejects_nondiagonal_leading_term(self):
        a = series([mat((lam(1), ONE), (ZERO, lam(2)))])
        with pytest.raises(NotDiagonalLeadingTerm):
            successive_diagonalize(a)

    def test_rejects_repeated_leading_entries(self):
        a = series([diag_matrix([lam(1), lam(1)]), mat((ZERO, ONE), (ONE, ZERO))])
        with pytest.raises(RepeatedEigenvalue):
            successive_diagonalize(a)

    def test_determinism(self):
        a = series([diag_matrix([lam(1), lam(2)]), mat((ZERO, ONE), (rf_const(2), ZERO))])
        r1 = successive_diagonalize(a)
        r2 = successive_diagonalize(a)
        assert r1.conjugator == r2.conjugator
        assert r1.diagonal == r2.diagonal


def perturbed(n, order, field, seed, dense=False):
    """diag(lam) + h M as ``diag`` builds it, or with a full integer M_r at every order r."""
    rng = random.Random(seed)
    lams = [RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), field))
            for i in range(1, n + 1)]
    zero = GenericMatrix.zeros(n, field, RationalFunction)

    def draw():
        m = random_int_matrix(rng, n, field, zero_diagonal=not dense)
        return GenericMatrix([[RationalFunction.from_poly(e) for e in row] for row in m.rows])

    higher = [draw() for _ in range(order)] if dense else [draw()] + [zero] * (order - 1)
    return SeriesFieldMatrix([GenericMatrix.diagonal(lams)] + higher)


class TestAgainstWholeSeriesConjugation:
    """The order-r recurrence of u A = C u against conjugating the whole series per order."""

    @pytest.mark.parametrize(
        "field", [QQ, Field(5), Field(7), Field(32003)], ids=["q", "fp5", "fp7", "fp32003"]
    )
    @pytest.mark.parametrize("seed", [1, 97])
    def test_diag_perturbations(self, field, seed):
        # n = 4 stops at order 3: its order-4 oracle alone takes about 1 s
        for n, order in [(n, r) for n in (2, 3, 4) for r in range(1, 5) if (n, r) != (4, 4)]:
            a = perturbed(n, order, field, seed)
            rep = successive_diagonalize(a)
            assert rep.verify(a) is True
            assert (rep.conjugator, rep.diagonal) == diagonalize_by_conjugation(a), (n, order)

    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=["q", "fp7"])
    def test_dense_perturbations(self, field):
        # every order perturbed, diagonal included
        for n, order in [(2, 4), (3, 3)]:
            a = perturbed(n, order, field, 11, dense=True)
            rep = successive_diagonalize(a)
            assert rep.verify(a) is True
            assert (rep.conjugator, rep.diagonal) == diagonalize_by_conjugation(a)

    def test_no_series_inverse_and_two_series_products(self, capsys):
        products = 0
        real = SeriesFieldMatrix.__mul__

        def counted(*args):
            nonlocal products
            products += 1
            return real(*args)

        with mock.patch.object(SeriesFieldMatrix, "__mul__", counted):
            assert main(["diag", "--n", "3", "--order", "4"]) == 0
        capsys.readouterr()
        # the whole-series conjugation made 30 products and 4 series inverses
        assert products <= 2
        assert not hasattr(SeriesFieldMatrix, "inverse_unitriangular")
