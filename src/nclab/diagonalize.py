"""Perturbative diagonalization of series matrices over an exact field.

A series matrix is a ``FormalSeries`` whose coefficients are
``GenericMatrix`` values over ``RationalFunction``.  A perturbation
``A = A0 + h A1 + ...`` with diagonal, pairwise-distinct A0 is diagonalized
order by order: at order r the off-diagonal defect is cancelled by
conjugating with E + h^r T where T solves the Sylvester-type system
``t_ij (lambda_i - lambda_j) = defect_ij``, and the diagonal defect is kept.

That solve is the only division.  No series is inverted: the conjugator u
and C = u A u^-1 are built from the coefficients of u A = C u, one order at a
time.  So for A0 = diag(lam1, ..., lamn) and a constant A1 every entry lies
in k[lam][1/Δ], Δ = prod_{i<j} (lam_i - lam_j), which is the ring
``RationalFunction`` implements without any gcd.

Conjugation uses the plain product of matrices, not a star product.  At
first order the two choices agree: a star correction to (E + hT) A (E - hT)
enters at h^2, so the order-h Sylvester equation is identical either way.
"""

from __future__ import annotations

from .errors import (
    NonzeroDiagonalRHS,
    NotDiagonalLeadingTerm,
    RepeatedEigenvalue,
    ShapeMismatch,
)
from .genmat import FormalSeries, GenericMatrix
from .records import Record


def solve_sylvester_diag(a0_diag, rhs: GenericMatrix) -> GenericMatrix:
    """T with zero diagonal and [T, diag(a0)] = -rhs, entrywise division.

    Requires pairwise-distinct diagonal entries and a zero-diagonal rhs; the
    defining identity is re-checked exactly before returning.
    """
    lam = list(a0_diag)
    n = len(lam)
    if rhs.n != n:
        raise ShapeMismatch("rhs size differs from the diagonal")
    for i in range(n):
        for j in range(i + 1, n):
            if (lam[i] - lam[j]).is_zero:
                raise RepeatedEigenvalue(f"diagonal entries {i+1} and {j+1} coincide")
    if any(i == j for i, j in rhs.entries):
        raise NonzeroDiagonalRHS("rhs must have zero diagonal")
    t = rhs._like({(i, j): x / (lam[i] - lam[j]) for (i, j), x in rhs.entries.items()})
    a0 = GenericMatrix.diagonal(lam)
    if not (t * a0 - a0 * t + rhs).is_zero:
        raise ArithmeticError("Sylvester solve failed its defining identity")
    return t


class SeriesFieldMatrix(FormalSeries):
    """Series of matrices over RationalFunction, with the plain (Cauchy) product."""

    __slots__ = ()

    def __mul__(self, other):
        """Coefficient r is the sum of a_m b_k over ``nonzero_pairs`` with m + k = r."""
        out = [self.coeffs[0]._like({})] * len(self.coeffs)
        for m, k, x, y in self.nonzero_pairs(self._check(other)):
            out[m + k] = out[m + k] + x * y
        return SeriesFieldMatrix(out)


class DiagonalReport(Record):
    """Conjugator, diagonal form and eigenvalue data of one diagonalization."""

    __slots__ = ("conjugator", "diagonal")

    achieved_order = property(lambda self: self.conjugator.order)

    def verify(self, a: SeriesFieldMatrix) -> bool:
        """u A = D u on the input A, through its order, recomputed from scratch.

        With u_0 = E this holds exactly when u A u^-1 = D there.
        """
        return (self.conjugator * a - self.diagonal * self.conjugator).is_zero


def successive_diagonalize(a: SeriesFieldMatrix) -> DiagonalReport:
    """Kill the off-diagonal defect order by order, through the order of A.

    C = u A u^-1 is read off u A = C u (u_0 = E): C_r is the sum of u_k
    A_(r-k) over k <= r less that of C_(r-k) u_k over 1 <= k <= r.  At each
    order r > 0 a Sylvester solve T of C_r's off-diagonal part turns u into
    (E + h^r T) u and C_r into its diagonal, so C is D, the diagonal form;
    ``DiagonalReport.verify`` re-checks it against the input A.
    """
    a0 = a.coeffs[0]
    if not a0.is_diagonal():
        raise NotDiagonalLeadingTerm("leading coefficient must be diagonal")
    lam = a0.diagonal_entries()
    for i in range(a0.n):
        for j in range(i + 1, a0.n):
            if (lam[i] - lam[j]).is_zero:
                raise RepeatedEigenvalue(f"leading entries {i+1} and {j+1} coincide")
    u = [a0.identity_like()] + [a0._like({})] * a.order
    c = [a0]
    for r in range(1, a.order + 1):
        acc = a.coeffs[r]
        for k in range(1, r + 1):
            acc = acc + u[k] * a.coeffs[r - k] - c[r - k] * u[k]
        if not acc.is_diagonal():
            d = GenericMatrix.diagonal(acc.diagonal_entries())
            t = solve_sylvester_diag(lam, acc - d)
            u = u[:r] + [uk + t * u[k] for k, uk in enumerate(u[r:])]
            acc = d
        c.append(acc)
    return DiagonalReport(SeriesFieldMatrix(u), SeriesFieldMatrix(c))
