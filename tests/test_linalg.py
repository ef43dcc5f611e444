"""The incremental sparse echelon against plain Gauss-Jordan oracles over Q and GF(p).

``rref``, the reduced row echelon form read off an echelon, is compared with
``sympy.Matrix.rref`` over Q and with the form its kernel determines mod 7.
"""

import random
from fractions import Fraction

import pytest
import sympy
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


def _sparse(vec, p):
    """An integer vector as a sparse raw column, the input of ``absorb``."""
    return {i: _raw(x, p) for i, x in enumerate(vec) if _raw(x, p)}


def _columns(rows, p):
    return [_sparse(col, p) for col in zip(*rows)]


def _echelon_kernel(rows, p):
    """Absorb the columns of an integer matrix; return the kernel vectors as dense lists."""
    ncols = len(rows[0])
    echelon = linalg.Echelon(GF(p) if p else QQ)
    kernel = [echelon.absorb(col) for col in _columns(rows, p)]
    return [[vec.get(k, 0) for k in range(ncols)] for vec in kernel if vec is not None]


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


@given(matrices, st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=1,
                          max_size=3), st.sampled_from([0, 7]))
def test_solve_membership_agrees_with_the_oracle_rank(rows, targets, p):
    ncols = len(rows[0])
    targets = [target[: len(rows)] for target in targets]
    columns = _columns(rows, p)
    # one call solves every target
    solved = linalg.solve_membership(columns, [_sparse(t, p) for t in targets], GF(p) if p else QQ)
    assert len(solved) == len(targets)
    int_columns = [[r[j] for r in rows] for j in range(ncols)]
    for target, coeffs in zip(targets, solved):
        member = (oracle_rank(int_columns + [target], len(rows), p)
                  == oracle_rank(int_columns, len(rows), p))
        assert (coeffs is not None) == member
        if coeffs is not None:
            for i in range(len(rows)):
                total = sum(coeffs.get(j, 0) * rows[i][j] for j in range(ncols))
                assert (total - target[i]) % p == 0 if p else (total == target[i])


@given(matrices)
def test_kernel_basis_is_the_reduced_kernel(rows):
    # one vector per dependent column: 1 there, other entries on earlier independent columns
    ncols = len(rows[0])
    basis = linalg.kernel_basis(iter(_columns(rows, 0)), QQ)
    expected = oracle_kernel(rows, ncols)
    assert [[vec.get(k, 0) for k in range(ncols)] for vec in basis] == expected


def test_kernel_basis_rechecks_its_vectors(monkeypatch):
    def refuse(kernel):
        raise ArithmeticError(f"{len(kernel)} vectors")

    monkeypatch.setattr(linalg, "check_reduced", refuse)
    with pytest.raises(ArithmeticError, match="1 vectors"):
        linalg.kernel_basis([{0: 1}, {0: 2}], QQ)


def test_empty_matrix_kernel_is_every_unit_vector():
    assert linalg.kernel_basis([{}, {}], QQ) == [{0: 1}, {1: 1}]


def test_solve_over_no_columns():
    assert linalg.solve_membership([], [{}], QQ) == [{}]
    assert linalg.solve_membership([], [{0: 1}], QQ) == [None]


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


def _seeded_matrices(seed, count):
    """Integer matrices up to 6 x 7, each with a zero row, a zero column or both."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.choice([0, 0, -2, -1, 1, 2, 3]) for _ in range(ncols)] for _ in range(nrows)]
        zero_row, zero_column = rng.choice([(True, False), (False, True), (True, True)])
        if zero_row:
            rows[rng.randrange(nrows)] = [0] * ncols
        if zero_column:
            k = rng.randrange(ncols)
            for r in rows:
                r[k] = 0
        yield rows


def _rref_values(rows, field):
    reduced, pivots = linalg.rref([[field.scalar(x) for x in r] for r in rows], field)
    assert all(x.field is field for r in reduced for x in r)
    return [[x.value for x in r] for r in reduced], pivots


def test_rref_matches_sympy_over_q():
    for rows in _seeded_matrices(1, 200):
        expected, pivots = sympy.Matrix(rows).rref()
        values = [[Fraction(int(x.p), int(x.q)) for x in r] for r in expected.tolist()]
        assert _rref_values(rows, QQ) == (values, list(pivots)), rows


def _reduced_from_kernel(rows, p):
    """The reduced row echelon form, and its pivots, that the oracle's kernel basis determines.

    A basis vector leads at its free column c (its last nonzero entry) and holds
    minus the entry of row i of the form at the i-th pivot column.
    """
    ncols = len(rows[0])
    free = {max(k for k, x in enumerate(vec) if x): vec for vec in oracle_kernel(rows, ncols, p)}
    pivots = [c for c in range(ncols) if c not in free]
    reduced = [[-free[c][pc] % p if c in free else int(c == pc) for c in range(ncols)]
               for pc in pivots]
    return reduced + [[0] * ncols for _ in rows[len(pivots):]], pivots


def test_rref_matches_the_kernel_oracle_mod_7():
    for rows in _seeded_matrices(2, 200):
        assert _rref_values(rows, GF(7)) == _reduced_from_kernel(rows, 7), rows


def test_rref_of_no_rows_and_of_no_columns():
    assert linalg.rref([], QQ) == ([], [])
    assert linalg.rref([[], []], GF(7)) == ([[], []], [])
