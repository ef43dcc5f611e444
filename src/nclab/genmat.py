"""Generic matrices: reduction from the free algebra, identities, annihilators.

``make_generic(s, n, field)`` builds the matrices whose (i,j) entry is the
indeterminate ``x<l>[i,j]``; the subalgebra they generate is the universal
image of the free algebra satisfying all n x n matrix identities, and
``pi_reduce`` is the evaluation homomorphism onto it.  ``FormalSeries`` is
the one truncated series in h, with polynomial or matrix coefficients.
"""

from __future__ import annotations

from functools import cache
from math import comb

from . import freealg, linalg
from .errors import FieldMismatch, InvalidSize, NotCommuting, ShapeMismatch
from .fields import Field, SparseSum, add_products
from .records import Frozen, Record
from .rings import CommPoly, RationalFunction, Variable, mono_mul


class GenericMatrix(Frozen):
    """Square matrix over one ring, CommPoly or RationalFunction, kept sparse.

    ``entries`` maps each 0-based (i, j) of a nonzero entry to that entry.
    Every constructor and operation builds through ``_of``, which drops the
    zero entries, so no matrix holds a zero: ``is_zero`` is ``not entries``,
    equal matrices have equal entries, and ``rows`` is a dense view for
    rendering only.  The entry class is the ring: it supplies
    ``zero(field)`` and ``one(field)``.  The product sums over
    ``nonzero_pairs``, so it costs one entry product per pair of nonzero
    factors: n for diagonal operands, n^3 for dense ones.
    """

    __slots__ = ("n", "ring", "field", "entries")

    def __new__(cls, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ShapeMismatch("matrix must be square and nonempty")
        return cls._checked(n, {(i, j): e for i, r in enumerate(rows) for j, e in enumerate(r)})

    @staticmethod
    def _checked(n: int, cells) -> GenericMatrix:
        """``_of`` with the ring and field of the first of ``cells``, checked on all of them."""
        if not cells:
            raise ShapeMismatch("matrix must be square and nonempty")
        first = next(iter(cells.values()))
        ring, field = type(first), first.field
        if ring is not CommPoly and ring is not RationalFunction:
            raise TypeError("entries must be CommPoly or RationalFunction")
        for e in cells.values():
            if type(e) is not ring:
                raise TypeError("entries of one matrix must lie in one ring")
            if e.field is not field:
                raise FieldMismatch("entries over different fields")
        return GenericMatrix._of(n, ring, field, cells)

    @staticmethod
    def _of(n: int, ring, field: Field, cells) -> GenericMatrix:
        """The n x n matrix of the nonzero ``cells``, (i, j) -> entry of ``ring``, unchecked."""
        out = object.__new__(GenericMatrix)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "entries", {ij: e for ij, e in cells.items() if not e.is_zero})
        return out

    def _like(self, cells) -> GenericMatrix:
        return GenericMatrix._of(self.n, self.ring, self.field, cells)

    def __hash__(self):  # the entries are a dict
        return hash((self.n, self.ring, self.field, frozenset(self.entries.items())))

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def identity(n: int, field: Field, ring=CommPoly) -> GenericMatrix:
        one = ring.one(field)
        return GenericMatrix._of(n, ring, field, {(i, i): one for i in range(n)})

    @staticmethod
    def zeros(n: int, field: Field, ring=CommPoly) -> GenericMatrix:
        return GenericMatrix._of(n, ring, field, {})

    @staticmethod
    def diagonal(entries) -> GenericMatrix:
        cells = {(i, i): e for i, e in enumerate(entries)}
        return GenericMatrix._checked(len(cells), cells)

    @staticmethod
    def unit(n: int, i: int, j: int, field: Field) -> GenericMatrix:
        """Matrix unit E_ij (1-based)."""
        return GenericMatrix._of(n, CommPoly, field, {(i - 1, j - 1): CommPoly.one(field)})

    def identity_like(self) -> GenericMatrix:
        return GenericMatrix.identity(self.n, self.field, self.ring)

    def zeros_like(self) -> GenericMatrix:
        return self._like({})

    # -- access ------------------------------------------------------------------

    @property
    def rows(self):
        """The dense grid of entries, zeros included, for rendering."""
        zero, get = self.ring.zero(self.field), self.entries.get
        return tuple(tuple(get((i, j), zero) for j in range(self.n)) for i in range(self.n))

    def entry(self, i: int, j: int):
        """1-based entry access."""
        e = self.entries.get((i - 1, j - 1))
        return self.ring.zero(self.field) if e is None else e

    def diagonal_entries(self):
        return [self.entry(i, i) for i in range(1, self.n + 1)]

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def is_diagonal(self) -> bool:
        return all(i == j for i, j in self.entries)

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
        cells = dict(self.entries)
        for ij, y in self._check(other).entries.items():
            x = cells.get(ij)
            cells[ij] = y if x is None else x + y
        return self._like(cells)

    def __sub__(self, other):
        cells = dict(self.entries)
        for ij, y in self._check(other).entries.items():
            x = cells.get(ij)
            cells[ij] = (self.ring.zero(self.field) if x is None else x) - y
        return self._like(cells)

    def __neg__(self):
        return self._like({ij: -e for ij, e in self.entries.items()})

    def nonzero_pairs(self, other):
        """(i, j, a_il, b_lj) over the entries of both, row by row (Gustavson).

        At each (i, j) the l ascend, so a sum over them accumulates in index order.
        """
        right = {}
        for (l, j), y in sorted(other.entries.items()):
            right.setdefault(l, []).append((j, y))
        for (i, l), x in sorted(self.entries.items()):
            for j, y in right.get(l, ()):
                yield i, j, x, y

    def __mul__(self, other):
        other = self._check(other)
        acc = {}
        if self.ring is CommPoly:
            for i, j, x, y in self.nonzero_pairs(other):
                add_products(acc.setdefault((i, j), {}), x.terms.items(), y.terms.items(), mono_mul)
            acc = {ij: CommPoly._of(self.field, terms) for ij, terms in acc.items()}
        else:
            for i, j, x, y in self.nonzero_pairs(other):
                s = acc.get((i, j))
                acc[i, j] = x * y if s is None else s + x * y
        return self._like(acc)

    def scale(self, c) -> GenericMatrix:
        return self._like({ij: e.scale(c) for ij, e in self.entries.items()})

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"GenericMatrix({self})"


class FormalSeries(Frozen):
    """Truncated power series in h with CommPoly or GenericMatrix coefficients.

    A series is its coefficients, all of one kind; its order is their count
    less one.  The sum is coefficientwise and builds through ``_like``, which a
    subclass with more state overrides.  The star products
    ``quantize.star_mul`` and ``quantize.matrix_star`` need a context, so the
    class defines no ``*`` (``diagonalize.SeriesFieldMatrix`` adds the plain
    one, ``quantize.StarSeries`` the star one).  Both products walk
    ``nonzero_pairs``.  A zero matrix coefficient holds no entries, so it costs
    nothing to keep, to zero-test or to skip, and a sum keeps the coefficient
    it adds a zero to.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        kind, field = type(coeffs[0]), coeffs[0].field
        if kind is not CommPoly and kind is not GenericMatrix:
            raise TypeError("series coefficients must be CommPoly or GenericMatrix")
        for c in coeffs:
            if type(c) is not kind:
                raise TypeError("series coefficients of different kinds")
            if c.field != field:
                raise FieldMismatch("series coefficients over different fields")
        object.__setattr__(self, "coeffs", coeffs)

    order = property(lambda self: len(self.coeffs) - 1)

    @property
    def field(self) -> Field:
        return self.coeffs[0].field

    @classmethod
    def from_poly(cls, p, order: int) -> FormalSeries:
        """p + 0 h + ... + 0 h^order, for a CommPoly or a GenericMatrix p."""
        return cls([p] + [p._like({})] * order)

    def _like(self, coeffs) -> FormalSeries:
        """A series of this class with the given coefficients."""
        return type(self)(coeffs)

    def coefficient(self, r: int):
        return self.coeffs[r]

    def nonzero_pairs(self, other):
        """(m, k, a_m, b_k) over the nonzero a_m and b_k with m + k <= order, m then k ascending."""
        order, right = self.order, [(k, y) for k, y in enumerate(other.coeffs) if not y.is_zero]
        for m, x in enumerate(self.coeffs):
            if not x.is_zero:
                for k, y in right:
                    if m + k > order:
                        break
                    yield m, k, x, y

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def _check(self, other) -> FormalSeries:
        if not isinstance(other, FormalSeries):
            raise TypeError(f"expected FormalSeries, got {other!r}")
        if len(other.coeffs) != len(self.coeffs):
            raise ShapeMismatch("series with different truncation orders")
        if other.field != self.field:
            raise FieldMismatch("series over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return self._like([a if b.is_zero else a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._check(other)
        return self._like([a if b.is_zero else a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

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
    return f.evaluate_in_matrices(make_generic(f.s, n, f.field))


def standard_identity(mats) -> GenericMatrix:
    """S_k(M_1,...,M_k) for the k = len(mats) matrices, by expansion along the first factor.

    S_k = sum_i (-1)^(i-1) M_i * S_(k-1)(the others), cached on the tuple of
    indices still to place, so it forms fewer than k * 2^(k-1) products.
    """
    mats = list(mats)
    if not mats:
        raise ShapeMismatch("need at least one matrix")
    for m in mats:
        mats[0]._check(m)

    @cache
    def expand(rest):
        if len(rest) == 1:
            return mats[rest[0]]
        total = mats[rest[0]] * expand(rest[1:])
        for i in range(1, len(rest)):
            term = mats[rest[i]] * expand(rest[:i] + rest[i + 1:])
            total = total - term if i % 2 else total + term
        return total

    return expand(tuple(range(len(mats))))


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


class AnnihilatorResult(Record):
    """Outcome of the minimal-annihilator search for one commuting pair."""

    __slots__ = ("poly", "n", "searched_bound")

    found = property(lambda self: self.poly is not None)
    total_degree = property(lambda self: self.poly.degree() if self.found else None)

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


def _power_layers(f: GenericMatrix, g: GenericMatrix, fg: GenericMatrix, dmax: int):
    """The columns f^a g^b of the search, a dict (a, b) -> matrix per ``_monomial_layers``
    layer; f and g commute, so each is f or g times one of the layer before (fg is f g)."""
    first, prev = {(0, 0): f.identity_like(), (1, 0): f, (0, 1): g, (1, 1): fg}, {}
    for layer in _monomial_layers(dmax):
        prev = {(a, b): first[a, b] if (a, b) in first
                else f * prev[a - 1, b] if a else g * prev[0, b - 1] for a, b in layer}
        yield prev


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
    echelon = linalg.Echelon(field)
    monomials = []  # ascending graded order: column index -> (a, b)
    for layer in _power_layers(f, g, fg, dmax):
        kernel = []
        for (a, b), mat in layer.items():
            col = {(i, j, mono): c for (i, j), entry in mat.entries.items()
                   for mono, c in entry.terms.items()}
            monomials.append((a, b))
            vec = echelon.absorb(col)
            if vec is not None:
                kernel.append(vec)
        if kernel:
            # the first dependent layer: its kernel vectors are the reduced basis
            # of the whole kernel, the last one led by the largest monomial
            linalg.check_reduced(kernel)
            poly = BivariatePoly(field, {monomials[k]: v for k, v in kernel[-1].items()})
            result = AnnihilatorResult(poly, f.n, dmax)
            if not result.verify(f, g):
                raise ArithmeticError("annihilator failed re-evaluation")
            return result
    return AnnihilatorResult(None, f.n, dmax)


def _entry_sizes(m: GenericMatrix):
    """(T, S, R): the most terms of an entry of m, its distinct monomials over all entries
    (at least 1, so that C(S + a - 1, a) is defined) and the most nonzero entries in a row."""
    terms, per_row = [e.terms for e in m.entries.values()], {}
    for i, _ in m.entries:
        per_row[i] = per_row.get(i, 0) + 1
    return (max(map(len, terms), default=0), max(len(set().union(*terms)), 1),
            max(per_row.values(), default=0))


def _probe_search_terms(f: GenericMatrix, g: GenericMatrix, dmax: int, most=None) -> int:
    """A bound on the terms of f g, g f and the columns of ``find_annihilator(f, g, dmax)``.

    Let R be the most nonzero entries in a row of f or g.  A product of k of
    them then has at most min(n^2, n R^k) nonzero entries, each a sum over at
    most R^(k-1) index paths: at most R^(k-1) T_f^a T_g^b terms for a factors
    f and b factors g.  Each of its monomials is a product of a monomials of
    f's entries and b of g's, so there are at most C(S_f + a - 1, a)
    C(S_g + b - 1, b) of them.  The sum follows the search: f g and g f, which
    test commutation, then each layer of ``_monomial_layers``.  It stops at the
    first layer that takes it past ``most``, or that has a zero column (bound
    0), the search's last: that column is a kernel vector.
    """
    (tf, sf, rf), (tg, sg, rg) = _entry_sizes(f), _entry_sizes(g)
    n, r = f.n, max(rf, rg)
    total = 2 * min(n * n, n * r * r) * min(r * tf * tg, sf * sg)  # f g and g f
    for d, layer in enumerate(_monomial_layers(dmax)):
        cells = min(n * n, n * r**d)
        bounds = [cells * min(r ** max(d - 1, 0) * tf**a * tg**b,
                              comb(sf + a - 1, a) * comb(sg + b - 1, b)) for a, b in layer]
        total += sum(bounds)
        if 0 in bounds or most is not None and total > most:
            break
    return total


class StabilityReport(Record):
    """Annihilators of one commuting free pair across several matrix sizes.

    ``results`` holds one AnnihilatorResult per size 1, 2, ...
    """

    __slots__ = ("f_text", "g_text", "results")

    all_found = property(lambda self: all(r.found for r in self.results))
    identical = property(lambda self: self.all_found
                         and all(r.poly == self.results[0].poly for r in self.results))

    @property
    def unstable(self) -> bool:
        """Annihilators found at every size but not identical: a mathematical FAIL."""
        return self.all_found and not self.identical


def annihilator_stability(
    f: freealg.FreePoly, g: freealg.FreePoly, nmax: int, dmax: int
) -> StabilityReport:
    """Run the annihilator search on the size-n images for each n from 1 to nmax."""
    if not freealg.commutator(f, g).is_zero:
        raise NotCommuting("inputs do not commute in the free algebra")
    results = [find_annihilator(pi_reduce(f, n), pi_reduce(g, n), dmax)
               for n in range(1, nmax + 1)]
    return StabilityReport(str(f), str(g), results)
