"""The incremental sparse echelon against plain Gauss-Jordan oracles over Q and GF(p)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import kernel as oracle_kernel
from oracles import rank as oracle_rank
from nclab import linalg
from nclab.fields import GF, QQ

matrices = st.integers(1, 6).flatmap(
    lambda nrows: st.integers(1, 7).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
)


def _raw(x, p):
    return x % p if p else Fraction(x)


def _echelon_kernel(rows, p):
    """Absorb the columns of an integer matrix; return the kernel vectors as dense lists."""
    ncols = len(rows[0])
    echelon = linalg.Echelon(GF(p) if p else QQ)
    out = []
    for j in range(ncols):
        column = {i: _raw(r[j], p) for i, r in enumerate(rows) if _raw(r[j], p)}
        vec = echelon.absorb(column)
        if vec is not None:
            out.append([vec.get(k, 0) for k in range(ncols)])
    return out


def _check_kernel(rows, p):
    ncols = len(rows[0])
    ours = _echelon_kernel(rows, p)
    expected = oracle_kernel(rows, ncols, p)
    assert len(ours) == len(expected)
    for vec in ours:  # each vector really lies in the kernel
        for r in rows:
            total = sum(a * b for a, b in zip(r, vec))
            assert (total % p if p else total) == 0
    # same span: stacking the two bases adds no dimension
    assert oracle_rank(ours + expected, ncols, p) == len(expected)
    assert oracle_rank(ours, ncols, p) == len(ours)


@given(matrices)
def test_echelon_kernel_matches_fraction_oracle(rows):
    _check_kernel(rows, 0)


@given(matrices)
def test_echelon_kernel_matches_mod_7_oracle(rows):
    _check_kernel(rows, 7)


@given(matrices)
def test_echelon_kernel_matches_mod_32003_oracle(rows):
    _check_kernel(rows, 32003)


@given(matrices, st.lists(st.integers(-3, 3), min_size=6, max_size=6), st.sampled_from([0, 7]))
def test_solve_membership_agrees_with_the_oracle_rank(rows, target, p):
    field = GF(p) if p else QQ
    ncols = len(rows[0])
    target = target[: len(rows)]
    columns = [[field.scalar(r[j]) for r in rows] for j in range(ncols)]
    coeffs = linalg.solve_membership(columns, [field.scalar(x) for x in target], field)
    int_columns = [[r[j] for r in rows] for j in range(ncols)]
    member = oracle_rank(int_columns + [target], len(rows), p) == oracle_rank(int_columns, len(rows), p)
    assert (coeffs is not None) == member
    if coeffs is not None:
        for i in range(len(rows)):
            total = field.zero
            for j in range(ncols):
                total = total + coeffs[j] * columns[j][i]
            assert total == field.scalar(target[i])


@given(matrices)
def test_kernel_basis_is_the_reduced_kernel(rows):
    # one vector per dependent column: 1 there, other entries on earlier independent columns
    ncols = len(rows[0])
    basis = linalg.kernel_basis([[QQ.scalar(x) for x in r] for r in rows], ncols, QQ)
    expected = oracle_kernel(rows, ncols)
    assert [[x.value for x in vec] for vec in basis] == expected


def test_empty_matrix_kernel_is_every_unit_vector():
    assert linalg.kernel_basis([], 2, QQ) == [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]


def test_solve_over_no_columns():
    assert linalg.solve_membership([], [QQ.zero], QQ) == []
    assert linalg.solve_membership([], [QQ.one], QQ) is None


def test_dependent_column_gives_its_combination():
    echelon = linalg.Echelon(GF(5))
    assert echelon.absorb({0: 1, 1: 2}) is None
    assert echelon.absorb({0: 2, 1: 4}) == {1: 1, 0: 3}  # col1 - 2*col0, mod 5
    assert echelon.solve({0: 3, 1: 1}) == {0: 3}  # 3*col0 = (3, 6) = (3, 1) mod 5
    assert echelon.solve({1: 1}) is None


def test_integer_values_over_q_stay_exact():
    echelon = linalg.Echelon(QQ)
    assert echelon.absorb({0: 3, 1: 1}) is None
    assert echelon.absorb({0: 1, 1: 1}) is None
    assert echelon.solve({0: 1}) == {0: Fraction(1, 2), 1: Fraction(-1, 2)}
    assert all(isinstance(v, (int, Fraction)) for v in echelon.solve({0: 1}).values())


# unit entries as ints and as Fractions, next to non-unit ones that need a division
_pivot_entries = st.sampled_from(
    [0, 1, -1, Fraction(1), Fraction(-1), 2, -3, Fraction(1, 2), Fraction(-2, 3)]
)


@given(st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(_pivot_entries, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=5)
))
def test_unit_and_non_unit_pivots_give_the_fraction_kernel(rows):
    # a pivot of 1 or -1 is used as its own inverse; the oracle divides by every pivot
    echelon = linalg.Echelon(QQ)
    ours = []
    for j in range(len(rows[0])):
        vec = echelon.absorb({i: r[j] for i, r in enumerate(rows) if r[j]})
        if vec is not None:
            ours.append([vec.get(k, 0) for k in range(len(rows[0]))])
    assert ours == oracle_kernel(rows, len(rows[0]))


def test_a_minus_one_pivot_and_a_fraction_pivot():
    echelon = linalg.Echelon(QQ)
    assert echelon.absorb({0: Fraction(-1), 1: 2}) is None  # pivot -1 at row 0
    assert echelon.absorb({1: Fraction(2, 3)}) is None  # pivot 2/3 at row 1
    assert echelon.absorb({0: 3, 1: -4}) == {2: 1, 0: 3, 1: -3}  # col2 = -3 col0 + 3 col1
    # the inverse of the pivot Fraction(-1) is the int -1, so integral columns stay ints
    assert echelon.solve({0: 1, 1: -2}) == {0: -1}
    assert all(type(v) is int for v in echelon.solve({0: 1, 1: -2}).values())


@given(matrices)
def test_raw_kernel_vectors_are_reduced(rows):
    echelon = linalg.Echelon(QQ)
    kernel = [echelon.absorb({i: x for i, x in enumerate(col) if x}) for col in zip(*rows)]
    linalg.check_reduced([vec for vec in kernel if vec is not None])


@pytest.mark.parametrize(
    "kernel, message",
    [
        ([{0: 1, 1: 2}, {1: 1}], "share a leading column"),
        ([{0: 1}, {2: 2, 1: 1}], "column 2 is not reduced"),
        ([{0: 1}, {2: 1, 0: 3}], "column 2 is not reduced"),
    ],
    ids=["shared-lead", "lead-not-1", "entry-at-another-lead"],
)
def test_unreduced_kernels_are_refused(kernel, message):
    linalg.check_reduced([{0: 1}, {2: 1, 1: 5}])  # column 1 leads no vector
    with pytest.raises(ArithmeticError, match=message):
        linalg.check_reduced(kernel)
