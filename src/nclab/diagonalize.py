"""Perturbative diagonalization of series matrices over an exact field.

Matrices here carry Scalar or RationalFunction entries, duck-typed through
``+ - * / .is_zero``.  A perturbation ``A = A0 + h A1 + ...`` with diagonal,
pairwise-distinct A0 is diagonalized order by order: at order r the
off-diagonal defect is cancelled by conjugating with E + h^r T where T solves
the Sylvester-type system ``t_ij (lambda_i - lambda_j) = defect_ij``, and the
diagonal defect is kept.

That solve is the only division; the series inverse of E + h^r T is a finite
geometric sum.  So for A0 = diag(lam1, ..., lamn) and a constant A1 every
entry lies in k[lam][1/Δ], Δ = prod_{i<j} (lam_i - lam_j), which is the ring
``RationalFunction`` implements without any gcd.

Conjugation uses the plain coefficientwise product of the series-matrix
ring, not a star product.  At first order the two choices agree: a star
correction to (E + hT) A (E - hT) enters at h^2, so the order-h Sylvester
equation is identical either way.
"""

from __future__ import annotations

from .errors import (
    NonzeroDiagonalRHS,
    NotDiagonalLeadingTerm,
    RepeatedEigenvalue,
    ShapeMismatch,
)
from .quantize import SeriesMatrix, StarContext, matrix_star_commutator, poisson_bracket
from .records import Record

Matrix = tuple  # tuple[tuple[element, ...], ...]


def mat_from_rows(rows) -> Matrix:
    rows = tuple(tuple(r) for r in rows)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ShapeMismatch("matrix must be square and nonempty")
    return rows


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, summing only the products of two nonzero entries."""
    cols = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = None
            for x, y in zip(row, col):
                if x.is_zero or y.is_zero:
                    continue
                acc = x * y if acc is None else acc + x * y
            # with no nonzero product, row[0] * col[0] is a zero of the ring
            out_row.append(row[0] * col[0] if acc is None else acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero for r in a for x in r)


def mat_diag_part(a: Matrix, zero) -> Matrix:
    n = len(a)
    return tuple(
        tuple(a[i][j] if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_offdiag_part(a: Matrix, zero) -> Matrix:
    n = len(a)
    return tuple(
        tuple(zero if i == j else a[i][j] for j in range(n)) for i in range(n)
    )


def solve_sylvester_diag(a0_diag, rhs: Matrix, zero) -> Matrix:
    """T with zero diagonal and [T, diag(a0)] = -rhs, entrywise division.

    Requires pairwise-distinct diagonal entries and a zero-diagonal rhs; the
    defining identity is re-checked exactly before returning.
    """
    lam = list(a0_diag)
    n = len(lam)
    if len(rhs) != n:
        raise ShapeMismatch("rhs size differs from the diagonal")
    for i in range(n):
        for j in range(i + 1, n):
            if (lam[i] - lam[j]).is_zero:
                raise RepeatedEigenvalue(f"diagonal entries {i+1} and {j+1} coincide")
    for i in range(n):
        if not rhs[i][i].is_zero:
            raise NonzeroDiagonalRHS("rhs must have zero diagonal")
    t = [
        [zero if i == j else rhs[i][j] / (lam[i] - lam[j]) for j in range(n)]
        for i in range(n)
    ]
    t = mat_from_rows(t)
    a0 = tuple(tuple(lam[i] if i == j else zero for j in range(n)) for i in range(n))
    check = mat_add(mat_sub(mat_mul(t, a0), mat_mul(a0, t)), rhs)
    if not mat_is_zero(check):
        raise ArithmeticError("Sylvester solve failed its defining identity")
    return t


class SeriesFieldMatrix:
    """Truncated series whose coefficients are matrices over an exact field."""

    __slots__ = ("n", "order", "coeffs", "zero", "one")

    def __init__(self, coeffs, zero, one):
        coeffs = tuple(mat_from_rows(c) for c in coeffs)
        n = len(coeffs[0])
        if any(len(c) != n for c in coeffs):
            raise ShapeMismatch("coefficient matrices of different sizes")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesFieldMatrix is immutable")

    @staticmethod
    def identity(n: int, order: int, zero, one) -> SeriesFieldMatrix:
        e = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        z = tuple(tuple(zero for _ in range(n)) for _ in range(n))
        return SeriesFieldMatrix([e] + [z] * order, zero, one)

    def zero_matrix(self) -> Matrix:
        return tuple(tuple(self.zero for _ in range(self.n)) for _ in range(self.n))

    def coefficient(self, r: int) -> Matrix:
        return self.coeffs[r]

    def _check(self, other) -> SeriesFieldMatrix:
        if not isinstance(other, SeriesFieldMatrix):
            raise TypeError("expected SeriesFieldMatrix")
        if other.n != self.n or other.order != self.order:
            raise ShapeMismatch("incompatible series matrices")
        return other

    def __add__(self, other):
        other = self._check(other)
        return SeriesFieldMatrix(
            [mat_add(a, b) for a, b in zip(self.coeffs, other.coeffs)], self.zero, self.one
        )

    def __sub__(self, other):
        other = self._check(other)
        return SeriesFieldMatrix(
            [mat_sub(a, b) for a, b in zip(self.coeffs, other.coeffs)], self.zero, self.one
        )

    def __mul__(self, other):
        other = self._check(other)
        out = []
        for r in range(self.order + 1):
            acc = self.zero_matrix()
            for k in range(r + 1):
                acc = mat_add(acc, mat_mul(self.coeffs[k], other.coeffs[r - k]))
            out.append(acc)
        return SeriesFieldMatrix(out, self.zero, self.one)

    def __eq__(self, other):
        # entries are in canonical form, so equal values have equal entries
        return isinstance(other, SeriesFieldMatrix) and self.coeffs == other.coeffs

    def inverse_unitriangular(self) -> SeriesFieldMatrix:
        """Inverse of E + (higher order): the finite geometric series."""
        e = SeriesFieldMatrix.identity(self.n, self.order, self.zero, self.one)
        v = self - e
        if not mat_is_zero(v.coeffs[0]):
            raise ShapeMismatch("inverse_unitriangular needs leading coefficient E")
        out = e
        power = e
        negate = True
        for _ in range(self.order):
            power = power * v
            out = out - power if negate else out + power
            negate = not negate
        return out

    def offdiag_is_zero_through(self, order: int) -> bool:
        return all(
            mat_is_zero(mat_offdiag_part(self.coeffs[r], self.zero))
            for r in range(order + 1)
        )


class DiagonalReport(Record):
    """Conjugator, diagonal form and eigenvalue data of one diagonalization.

    ``verified`` is the outcome of the from-scratch re-check (None for a
    report read back from JSON, which does not carry it), so it takes no part
    in equality.
    """

    __slots__ = ("conjugator", "diagonal", "achieved_order", "eigenvalues", "verified")
    _defaults = {"verified": None}
    _uncompared = ("verified",)


def successive_diagonalize(a: SeriesFieldMatrix, target: int) -> DiagonalReport:
    """Kill the off-diagonal defect order by order up to ``target``.

    At each order the diagonal part of the defect is absorbed into the
    diagonal form and the off-diagonal part is cancelled by a Sylvester
    solve.  The result is re-checked from scratch: ``verified`` holds when
    u A u^-1 agrees through ``target`` with the reported diagonal form D,
    tested as u A = D u on the input A.
    """
    if target > a.order:
        raise ShapeMismatch("target order exceeds the series truncation")
    zero, one = a.zero, a.one
    a0 = a.coeffs[0]
    if not mat_is_zero(mat_offdiag_part(a0, zero)):
        raise NotDiagonalLeadingTerm("leading coefficient must be diagonal")
    lam = [a0[i][i] for i in range(a.n)]
    for i in range(a.n):
        for j in range(i + 1, a.n):
            if (lam[i] - lam[j]).is_zero:
                raise RepeatedEigenvalue(f"leading entries {i+1} and {j+1} coincide")
    u = SeriesFieldMatrix.identity(a.n, a.order, zero, one)
    current = a
    for r in range(1, target + 1):
        off = mat_offdiag_part(current.coeffs[r], zero)
        if mat_is_zero(off):
            continue
        t = solve_sylvester_diag(lam, off, zero)
        b_coeffs = [u.coeffs[0]] + [
            t if k == r else u.zero_matrix() for k in range(1, a.order + 1)
        ]
        b = SeriesFieldMatrix(b_coeffs, zero, one)
        current = b * current * b.inverse_unitriangular()
        u = b * u
    diag = SeriesFieldMatrix(
        [mat_diag_part(c, zero) for c in current.coeffs], zero, one
    )
    # u A u^-1 = D through h^target exactly when u A = D u there (u_0 = E);
    # the second form needs no series inverse, the step that built D used one
    lhs, rhs = u * a, diag * u
    verified = all(
        mat_is_zero(mat_sub(lhs.coeffs[r], rhs.coeffs[r])) for r in range(target + 1)
    )
    return DiagonalReport(u, diag, target, lam, verified=verified)


class Eq1Report(Record):
    """Diagonal of the first-order star commutator vs the bracket of entries.

    ``diagonal`` holds the CommPoly entries of the h-coefficient's diagonal,
    ``expected`` the Poisson brackets of the leading diagonal entries.
    """

    __slots__ = (
        "n",
        "diagonal",
        "expected",
        "per_entry_equal",
        "all_equal",
        "nonvanishing",
        "linear_part",
    )


def eq1_diagonal_check(fhat: SeriesMatrix, ghat: SeriesMatrix, ctx: StarContext) -> Eq1Report:
    """Diagonal of (1/h)[fhat, ghat]_* mod h against the brackets of eigenvalues.

    Both inputs must have diagonal degree-0 coefficients; the full commutator
    matrix is computed so that off-diagonal cross terms are seen to
    contribute nothing to the diagonal.
    """
    fhat._check(ghat)
    f0, g0 = fhat.coefficient(0), ghat.coefficient(0)
    if not f0.is_diagonal() or not g0.is_diagonal():
        raise NotDiagonalLeadingTerm("degree-0 coefficients must be diagonal")
    comm = matrix_star_commutator(fhat, ghat, ctx)
    if not comm.coefficient(0).is_zero:
        raise ArithmeticError("degree-0 part of the star commutator must vanish")
    linear = comm.coefficient(1)
    diagonal = linear.diagonal_entries()
    expected = [
        poisson_bracket(f0.entry(i, i), g0.entry(i, i), ctx.tensor)
        for i in range(1, fhat.n + 1)
    ]
    per_entry = [d == e for d, e in zip(diagonal, expected)]
    nonvanishing = any(not d.is_zero for d in diagonal)
    return Eq1Report(
        fhat.n, diagonal, expected, per_entry, all(per_entry), nonvanishing, linear
    )
