"""Sylvester solves, order-by-order diagonalization, and the diagonal identity."""

import random
from unittest import mock

import pytest

from oracles import matmul
from nclab.errors import (
    NonzeroDiagonalRHS,
    NotDiagonalLeadingTerm,
    RepeatedEigenvalue,
)
from nclab.fields import QQ
from nclab.diagonalize import (
    SeriesFieldMatrix,
    eq1_diagonal_check,
    mat_is_zero,
    mat_sub,
    solve_sylvester_diag,
    successive_diagonalize,
)
from nclab.quantize import (
    FormalSeries,
    SeriesMatrix,
    StarContext,
    pairing_tensor,
    quantize_lift,
)
from nclab.genmat import GenericMatrix
from nclab import rings
from nclab.cli import main
from nclab.rings import CommPoly, RationalFunction, Variable

ZERO = RationalFunction.from_scalar(QQ.zero)
ONE = RationalFunction.from_scalar(QQ.one)


def lam(i):
    return RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))


def rf_const(v):
    return RationalFunction.from_scalar(QQ.scalar(v))


def diag_matrix(entries):
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else ZERO for j in range(n)) for i in range(n)
    )


class TestSylvester:
    def test_2x2_fraction_field(self):
        rhs = ((ZERO, ONE), (ONE, ZERO))
        t = solve_sylvester_diag([lam(1), lam(2)], rhs, ZERO)
        d = lam(1) - lam(2)
        assert t[0][1] == ONE / d
        assert t[1][0] == ONE / (lam(2) - lam(1))
        assert t[0][0].is_zero and t[1][1].is_zero
        # oracle: substitute into [T, A0] with an independent 2x2 product
        a0 = [list(r) for r in diag_matrix([lam(1), lam(2)])]
        t_rows = [list(r) for r in t]
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
                assert (comm[i][j] + rhs[i][j]).is_zero

    def test_zero_rhs_gives_zero(self):
        rhs = ((ZERO, ZERO), (ZERO, ZERO))
        t = solve_sylvester_diag([lam(1), lam(2)], rhs, ZERO)
        assert mat_is_zero(t)

    def test_repeated_eigenvalue(self):
        rhs = ((ZERO, ONE), (ONE, ZERO))
        with pytest.raises(RepeatedEigenvalue):
            solve_sylvester_diag([rf_const(1), rf_const(1)], rhs, ZERO)

    def test_nonzero_diagonal_rhs(self):
        rhs = ((ONE, ONE), (ONE, ZERO))
        with pytest.raises(NonzeroDiagonalRHS):
            solve_sylvester_diag([lam(1), lam(2)], rhs, ZERO)


def series(coeff_matrices, order=None):
    order = len(coeff_matrices) - 1 if order is None else order
    zmat = tuple(
        tuple(ZERO for _ in range(len(coeff_matrices[0]))) for _ in coeff_matrices[0]
    )
    coeffs = list(coeff_matrices) + [zmat] * (order + 1 - len(coeff_matrices))
    return SeriesFieldMatrix(coeffs, ZERO, ONE)


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

    def test_every_denominator_is_a_product_of_eigenvalue_differences(self):
        a = series([diag_matrix([lam(1), lam(2), lam(3)]),
                    tuple(tuple(ZERO if i == j else rf_const(i + 2 * j) for j in range(3))
                          for i in range(3))], order=3)
        rep = successive_diagonalize(a, 3)
        assert rep.verified is True
        lams = {Variable.aux("lam", i) for i in range(1, 4)}
        for c in rep.conjugator.coeffs + rep.diagonal.coeffs:
            for row in c:
                for x in row:
                    for (u, v), e in x.exps:
                        assert {u, v} <= lams and u < v and e > 0


class TestSuccessiveDiagonalize:
    def test_first_order_2x2(self):
        a = series([diag_matrix([lam(1), lam(2)]), ((ZERO, ONE), (ONE, ZERO))])
        rep = successive_diagonalize(a, 1)
        assert rep.diagonal.coefficient(0) == diag_matrix([lam(1), lam(2)])
        assert mat_is_zero(rep.diagonal.coefficient(1))
        # conjugate has zero off-diagonal through h^1 (checked again here)
        conj = rep.conjugator * a * rep.conjugator.inverse_unitriangular()
        assert conj.offdiag_is_zero_through(1)
        # U = E + h T
        assert mat_is_zero(mat_sub(rep.conjugator.coefficient(0), diag_matrix([ONE, ONE])))

    def test_diagonal_perturbation_is_kept(self):
        a = series(
            [diag_matrix([lam(1), lam(2)]), diag_matrix([rf_const(3), rf_const(-2)])]
        )
        rep = successive_diagonalize(a, 1)
        e = SeriesFieldMatrix.identity(2, a.order, ZERO, ONE)
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
        rep = successive_diagonalize(a, 2)
        assert rep.conjugator == SeriesFieldMatrix.identity(3, a.order, ZERO, ONE)
        assert rep.diagonal == a

    def test_order_two_with_dense_integer_perturbation(self):
        rng = random.Random(1729)
        n = 3
        m = tuple(
            tuple(
                rf_const(rng.randint(-5, 5)) if i != j else ZERO for j in range(n)
            )
            for i in range(n)
        )
        a = series([diag_matrix([lam(1), lam(2), lam(3)]), m, tuple(tuple(ZERO for _ in range(n)) for _ in range(n))])
        rep = successive_diagonalize(a, 2)
        conj = rep.conjugator * a * rep.conjugator.inverse_unitriangular()
        assert conj.offdiag_is_zero_through(2)
        assert rep.eigenvalues == [lam(1), lam(2), lam(3)]

    def test_rejects_nondiagonal_leading_term(self):
        a = series([((lam(1), ONE), (ZERO, lam(2)))])
        with pytest.raises(NotDiagonalLeadingTerm):
            successive_diagonalize(a, 0)

    def test_rejects_repeated_leading_entries(self):
        a = series([diag_matrix([lam(1), lam(1)]), ((ZERO, ONE), (ONE, ZERO))])
        with pytest.raises(RepeatedEigenvalue):
            successive_diagonalize(a, 1)

    def test_determinism(self):
        a = series([diag_matrix([lam(1), lam(2)]), ((ZERO, ONE), (rf_const(2), ZERO))])
        r1 = successive_diagonalize(a, 1)
        r2 = successive_diagonalize(a, 1)
        assert r1.conjugator == r2.conjugator
        assert r1.diagonal == r2.diagonal
        assert r1.eigenvalues == r2.eigenvalues


def aux_poly(name, i):
    return CommPoly.variable(Variable.aux(name, i), QQ)


def two_pairs():
    xs = [Variable.aux("x", i) for i in (1, 2)]
    ys = [Variable.aux("y", i) for i in (1, 2)]
    return xs, ys, pairing_tensor(xs, ys, QQ)


class TestEq1Diagonal:
    def test_pairing_diagonals(self):
        xs, ys, tensor = two_pairs()
        ctx = StarContext(tensor, 2)
        f = GenericMatrix.diagonal([aux_poly("x", 1), aux_poly("x", 2)])
        g = GenericMatrix.diagonal([aux_poly("y", 1), aux_poly("y", 2)])
        rep = eq1_diagonal_check(quantize_lift(f, ctx), quantize_lift(g, ctx), ctx)
        assert rep.all_equal and rep.nonvanishing
        assert rep.diagonal == [CommPoly.one(QQ), CommPoly.one(QQ)]

    def test_dependent_pair_vanishes(self):
        xs, ys, tensor = two_pairs()
        ctx = StarContext(tensor, 2)
        x1, x2 = aux_poly("x", 1), aux_poly("x", 2)
        f = GenericMatrix.diagonal([x1, x2])
        g = GenericMatrix.diagonal([x1 * x1, x2 * x2])
        rep = eq1_diagonal_check(quantize_lift(f, ctx), quantize_lift(g, ctx), ctx)
        assert rep.all_equal
        assert not rep.nonvanishing
        assert all(d.is_zero for d in rep.diagonal)

    def test_size_one(self):
        xs = [Variable.aux("x", 1)]
        ys = [Variable.aux("y", 1)]
        ctx = StarContext(pairing_tensor(xs, ys, QQ), 2)
        f = GenericMatrix.diagonal([aux_poly("x", 1)])
        g = GenericMatrix.diagonal([aux_poly("y", 1)])
        rep = eq1_diagonal_check(quantize_lift(f, ctx), quantize_lift(g, ctx), ctx)
        assert rep.diagonal == [CommPoly.one(QQ)]

    def test_offdiagonal_perturbations_leave_the_diagonal(self):
        # add h * (off-diagonal) blocks to both lifts: the order-h diagonal
        # must still equal the brackets of the leading diagonal entries, and
        # the full matrix is computed to see the cancellation
        xs, ys, tensor = two_pairs()
        ctx = StarContext(tensor, 2)
        zero = CommPoly.zero(QQ)

        def lift_with_offdiag(diag_polys, off):
            entries = []
            for i in range(2):
                row = []
                for j in range(2):
                    c0 = diag_polys[i] if i == j else zero
                    c1 = off if i != j else zero
                    row.append(FormalSeries(2, [c0, c1, zero]))
                entries.append(row)
            return SeriesMatrix(entries)

        f = lift_with_offdiag([aux_poly("x", 1), aux_poly("x", 2)], aux_poly("y", 1))
        g = lift_with_offdiag([aux_poly("y", 1), aux_poly("y", 2)], aux_poly("x", 2))
        rep = eq1_diagonal_check(f, g, ctx)
        assert rep.all_equal and rep.nonvanishing
        assert rep.diagonal == [CommPoly.one(QQ), CommPoly.one(QQ)]
        # the h-coefficient itself is not purely diagonal here
        assert not rep.linear_part.is_diagonal()

    def test_rejects_nondiagonal_leading(self):
        xs, ys, tensor = two_pairs()
        ctx = StarContext(tensor, 2)
        one = CommPoly.one(QQ)
        f = GenericMatrix([[aux_poly("x", 1), one], [CommPoly.zero(QQ), aux_poly("x", 2)]])
        g = GenericMatrix.diagonal([aux_poly("y", 1), aux_poly("y", 2)])
        with pytest.raises(NotDiagonalLeadingTerm):
            eq1_diagonal_check(quantize_lift(f, ctx), quantize_lift(g, ctx), ctx)
