"""Generic matrices: reduction from the free algebra, identities, annihilators.

``make_generic(s, n, field)`` builds the matrices whose (i,j) entry is the
indeterminate ``x<l>[i,j]``; the subalgebra they generate is the universal
image of the free algebra satisfying all n x n matrix identities, and
``pi_reduce`` is the evaluation homomorphism onto it.  ``FormalSeries`` is
the one truncated series in h, with polynomial or matrix coefficients.
"""

from __future__ import annotations

from functools import cache

from . import freealg, linalg
from .errors import FieldMismatch, InvalidSize, NotCommuting, ShapeMismatch
from .fields import NEG_INF, Field, SparseSum, add_products
from .records import Frozen, Record
from .rings import CommPoly, RationalFunction, Variable, mono_mul


class GenericMatrix(Frozen):
    """Square matrix over one ring, CommPoly or RationalFunction; dense grid.

    The entry class is the ring: it supplies ``zero(field)`` and ``one(field)``.
    The product sums over ``nonzero_pairs``, so it costs one entry product per
    pair of nonzero factors: n for diagonal operands, n^3 for dense ones.
    """

    __slots__ = ("n", "field", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeMismatch("matrix must be square and nonempty")
        ring, field = type(rows[0][0]), rows[0][0].field
        if ring is not CommPoly and ring is not RationalFunction:
            raise TypeError("entries must be CommPoly or RationalFunction")
        for r in rows:
            for e in r:
                if type(e) is not ring:
                    raise TypeError("entries of one matrix must lie in one ring")
                if e.field is not field:
                    raise FieldMismatch("entries over different fields")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def identity(n: int, field: Field, ring=CommPoly) -> GenericMatrix:
        one, zero = ring.one(field), ring.zero(field)
        return GenericMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int, field: Field, ring=CommPoly) -> GenericMatrix:
        zero = ring.zero(field)
        return GenericMatrix([[zero] * n for _ in range(n)])

    @staticmethod
    def diagonal(entries) -> GenericMatrix:
        entries = list(entries)
        zero = type(entries[0]).zero(entries[0].field)
        n = len(entries)
        return GenericMatrix(
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def unit(n: int, i: int, j: int, field: Field) -> GenericMatrix:
        """Matrix unit E_ij (1-based)."""
        zero, one = CommPoly.zero(field), CommPoly.one(field)
        return GenericMatrix(
            [[one if (r, c) == (i - 1, j - 1) else zero for c in range(n)] for r in range(n)]
        )

    def identity_like(self) -> GenericMatrix:
        return GenericMatrix.identity(self.n, self.field, self.ring)

    # -- access ------------------------------------------------------------------

    @property
    def ring(self):
        """The entry class, CommPoly or RationalFunction."""
        return type(self.rows[0][0])

    def entry(self, i: int, j: int):
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def diagonal_entries(self):
        return [self.rows[i][i] for i in range(self.n)]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for r in self.rows for e in r)

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j].is_zero for i in range(self.n) for j in range(self.n) if i != j
        )

    # -- ring operations -----------------------------------------------------------

    def _check(self, other) -> GenericMatrix:
        if not isinstance(other, GenericMatrix):
            raise TypeError(f"expected GenericMatrix, got {other!r}")
        if other.n != self.n:
            raise ShapeMismatch(f"sizes {self.n} vs {other.n}")
        if other.field != self.field:
            raise FieldMismatch("matrices over different fields")
        if other.ring is not self.ring:
            raise TypeError("matrices over different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        return GenericMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        other = self._check(other)
        return GenericMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return GenericMatrix([[-e for e in r] for r in self.rows])

    def nonzero_pairs(self, other):
        """(i, j, a_il, b_lj) over the nonzero a_il and b_lj, row by row (Gustavson).

        At each (i, j) the l ascend, so a sum over them accumulates in index order.
        """
        right = [[(j, y) for j, y in enumerate(row) if not y.is_zero] for row in other.rows]
        for i, row in enumerate(self.rows):
            for x, rl in zip(row, right):
                if rl and not x.is_zero:
                    for j, y in rl:
                        yield i, j, x, y

    def __mul__(self, other):
        other = self._check(other)
        n, acc = self.n, {}
        if self.ring is CommPoly:
            for i, j, x, y in self.nonzero_pairs(other):
                add_products(acc.setdefault((i, j), {}), x.terms.items(), y.terms.items(), mono_mul)
            acc = {ij: CommPoly._of(self.field, terms) for ij, terms in acc.items()}
        else:
            for i, j, x, y in self.nonzero_pairs(other):
                s = acc.get((i, j))
                acc[i, j] = x * y if s is None else s + x * y
        zero = self.ring.zero(self.field)
        return GenericMatrix([[acc.get((i, j), zero) for j in range(n)] for i in range(n)])

    def scale(self, c) -> GenericMatrix:
        return GenericMatrix([[e.scale(c) for e in r] for r in self.rows])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"GenericMatrix({self})"


class FormalSeries(Frozen):
    """Truncated power series in h with CommPoly or GenericMatrix coefficients.

    All coefficients are of one kind.  The sum is coefficientwise; the star
    products ``quantize.star_mul`` and ``quantize.matrix_star`` need a
    context, so the class defines no ``*`` (``diagonalize.SeriesFieldMatrix``
    adds the plain one).  Both products walk ``nonzero_pairs``.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        kind, field = type(coeffs[0]), coeffs[0].field
        if kind is not CommPoly and kind is not GenericMatrix:
            raise TypeError("series coefficients must be CommPoly or GenericMatrix")
        for c in coeffs:
            if type(c) is not kind:
                raise TypeError("series coefficients of different kinds")
            if c.field != field:
                raise FieldMismatch("series coefficients over different fields")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def field(self) -> Field:
        return self.coeffs[0].field

    @classmethod
    def from_poly(cls, p, order: int) -> FormalSeries:
        """p + 0 h + ... + 0 h^order, for a CommPoly or a GenericMatrix p."""
        if isinstance(p, GenericMatrix):
            zero = GenericMatrix.zeros(p.n, p.field, p.ring)
        else:
            zero = CommPoly.zero(p.field)
        return cls(order, [p] + [zero] * order)

    def coefficient(self, r: int):
        return self.coeffs[r]

    def nonzero_pairs(self, other):
        """(m, k, a_m, b_k) over the nonzero a_m and b_k with m + k <= order, m then k ascending."""
        right = [(k, y) for k, y in enumerate(other.coeffs) if not y.is_zero]
        for m, x in enumerate(self.coeffs):
            right = [(k, y) for k, y in right if m + k <= self.order]
            if right and not x.is_zero:
                for k, y in right:
                    yield m, k, x, y

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _check(self, other) -> FormalSeries:
        if not isinstance(other, FormalSeries):
            raise TypeError(f"expected FormalSeries, got {other!r}")
        if other.order != self.order:
            raise ShapeMismatch("series with different truncation orders")
        if other.field != self.field:
            raise FieldMismatch("series over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return type(self)(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._check(other)
        return type(self)(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return type(self)(self.order, [-c for c in self.coeffs])

    def __str__(self):
        parts = []
        for r, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            h = "" if r == 0 else ("h" if r == 1 else f"h^{r}")
            parts.append(f"({c})" + (f"*{h}" if h else ""))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def make_generic(s: int, n: int, field: Field):
    """The s generic matrices of size n; all s*n^2 entry variables distinct."""
    if s < 1:
        raise InvalidSize("need at least one generator")
    if n < 1:
        raise InvalidSize("matrix size must be at least 1")
    out = []
    for l in range(1, s + 1):
        rows = [
            [CommPoly.variable(Variable.entry(l, i, j), field) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        out.append(GenericMatrix(rows))
    return out


def pi_reduce(f: freealg.FreePoly, n: int) -> GenericMatrix:
    """Evaluation homomorphism onto the generic matrices of size n."""
    if n < 1:
        raise InvalidSize("matrix size must be at least 1")
    return f.evaluate_in_matrices(make_generic(f.s, n, f.field))


def standard_identity(k: int, mats) -> GenericMatrix:
    """S_k(M_1,...,M_k) by expansion along the first factor.

    S_k = sum_i (-1)^(i-1) M_i * S_(k-1)(the others), cached on the tuple of
    indices still to place, so it forms fewer than k * 2^(k-1) products.
    """
    mats = list(mats)
    if k < 1 or len(mats) != k:
        raise ShapeMismatch(f"need exactly {k} matrices")
    first = mats[0]
    for m in mats:
        first._check(m)

    @cache
    def expand(rest):
        if len(rest) == 1:
            return mats[rest[0]]
        total = mats[rest[0]] * expand(rest[1:])
        for i in range(1, len(rest)):
            term = mats[rest[i]] * expand(rest[:i] + rest[i + 1:])
            total = total - term if i % 2 else total + term
        return total

    return expand(tuple(range(k)))


# ---------------------------------------------------------------------------
# Bivariate annihilating polynomials of commuting pairs
# ---------------------------------------------------------------------------


class BivariatePoly(SparseSum):
    """Polynomial in two commuting slots u, v: a sum of exponent pairs (a, b), no product."""

    __slots__ = ()

    _order = staticmethod(lambda k: (-k[0] - k[1], -k[0]))
    _key_str = staticmethod(
        lambda k: "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip("uv", k) if e) or "1"
    )

    _unit = (0, 0)

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(a + b for a, b in self.terms)


class AnnihilatorResult(Record):
    """Outcome of the minimal-annihilator search for one commuting pair."""

    __slots__ = ("found", "poly", "total_degree", "n", "searched_bound")

    def verify(self, f: GenericMatrix, g: GenericMatrix) -> bool:
        """Whether P(f, g) = 0, with P read as the free sum of c * x1^a * x2^b (f, g commute)."""
        if not self.found:
            return True
        words = {(1,) * a + (2,) * b: c for (a, b), c in self.poly.terms.items()}
        return freealg.FreePoly(2, self.poly.field, words).evaluate_in_matrices([f, g]).is_zero


def _monomial_layers(dmax: int):
    """Exponent pairs grouped by total degree, each layer in ascending u-power.

    The layers are made one at a time, so a search that stops early costs
    what it searched, not what ``dmax`` allows.
    """
    return ([(a, t - a) for a in range(t + 1)] for t in range(dmax + 1))


def find_annihilator(f: GenericMatrix, g: GenericMatrix, dmax: int) -> AnnihilatorResult:
    """Minimal-total-degree P with P(f, g) = 0, by exact kernel search.

    The monomials f^a g^b (a+b <= D) are flattened into coefficient vectors
    and D grows from 0 until the span first becomes linearly dependent, which
    gives minimality.  The result is the element of the reduced echelon
    basis of the kernel that is led by the graded-lex largest monomial, with
    leading coefficient 1.  Raises ``NotCommuting`` unless f*g = g*f.
    """
    f._check(g)
    fg = f * g
    if fg != g * f:
        raise NotCommuting("inputs do not commute; the monomials f^a g^b are ambiguous")
    field = f.field
    first = {(0, 0): f.identity_like(), (1, 0): f, (0, 1): g, (1, 1): fg}
    echelon = linalg.Echelon(field)
    monomials = []  # ascending graded order: column index -> (a, b)
    prev = {}
    for layer in _monomial_layers(dmax):
        kernel = []
        cur = {}
        for a, b in layer:
            # f and g commute, so f^a g^b is one product away from the previous layer
            if (a, b) in first:
                mat = first[(a, b)]
            elif a:
                mat = f * prev[(a - 1, b)]
            else:
                mat = g * prev[(0, b - 1)]
            cur[(a, b)] = mat
            col = {
                (i, j, mono): c
                for i, row in enumerate(mat.rows)
                for j, entry in enumerate(row)
                for mono, c in entry.terms.items()
            }
            monomials.append((a, b))
            vec = echelon.absorb(col)
            if vec is not None:
                kernel.append(vec)
        if kernel:
            # the first dependent layer: its kernel vectors are the reduced basis
            # of the whole kernel, the last one led by the largest monomial
            linalg.check_reduced(kernel)
            poly = BivariatePoly(field, {monomials[k]: v for k, v in kernel[-1].items()})
            result = AnnihilatorResult(True, poly, poly.total_degree(), f.n, dmax)
            if not result.verify(f, g):
                raise ArithmeticError("annihilator failed re-evaluation")
            return result
        prev = cur
    return AnnihilatorResult(False, None, None, f.n, dmax)


class StabilityReport(Record):
    """Annihilators of one commuting free pair across several matrix sizes.

    ``results`` holds one AnnihilatorResult per size.
    """

    __slots__ = ("f_text", "g_text", "sizes", "dmax", "results", "all_found", "identical")

    @staticmethod
    def of(f: freealg.FreePoly, g: freealg.FreePoly, sizes, dmax: int, results) -> StabilityReport:
        """The report of the annihilator results already found at ``sizes``."""
        found = [r for r in results if r.found]
        all_found = len(found) == len(results)
        identical = all_found and all(r.poly == found[0].poly for r in found)
        return StabilityReport(freealg.pretty(f), freealg.pretty(g), list(sizes), dmax,
                               list(results), all_found, identical)

    @property
    def unstable(self) -> bool:
        """Annihilators found at every size but not identical: a mathematical FAIL."""
        return self.all_found and not self.identical


def annihilator_stability(
    f: freealg.FreePoly, g: freealg.FreePoly, sizes, dmax: int
) -> StabilityReport:
    """Run the annihilator search on the size-n images for each n in sizes."""
    if not freealg.commutator(f, g).is_zero:
        raise NotCommuting("inputs do not commute in the free algebra")
    sizes = sorted(set(sizes))
    results = [find_annihilator(pi_reduce(f, n), pi_reduce(g, n), dmax) for n in sizes]
    return StabilityReport.of(f, g, sizes, dmax, results)
