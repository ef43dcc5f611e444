"""Formal deformation quantization for constant antisymmetric Poisson tensors.

The star product implemented here is the Moyal product

    a * b = sum_r  h^r / (2^r r!) *
            sum    T(i1,j1)...T(ir,jr) (d_{i1}..d_{ir} a)(d_{j1}..d_{jr} b)

truncated at a fixed order N.  For constant tensors this is associative at
every order, the degree-0 coefficient of a*b is the commutative product ab,
and the h-coefficient of the star commutator is exactly the Poisson bracket.
In characteristic p the coefficients divide by r! and 2^r, so contexts
require N < p (and N = 0 when p = 2).  The terms of the Poisson operator's
pass are keyed by the operands' own monomials, which ``rings`` lowers and
multiplies; no variable is renumbered.  ``StarContext._moyal_terms`` is that
pass, and ``StarContext.bilinear_map`` reads one B_r off it.

The series are ``genmat.FormalSeries``.  The one star product is
``matrix_star`` on series of GenericMatrix: the row-column product whose
entry products are star products, over the pairs of nonzero coefficients
whose h-degrees sum to at most N.  ``star_mul`` multiplies two series of
CommPoly as series of 1 x 1 matrices.

Every lift is a ``StarSeries``, whose ``*`` is ``matrix_star``, so a star
commutator is ``a * b - b * a``.  A free element f is lifted by evaluating
it at ``star_generic``, the generic matrices as star series.  That product
is associative, so the lift f -> f(X^_1, ..., X^_s) is an algebra
homomorphism: it carries [f, g] = 0 to [f^, g^]_* = 0 at every order, and
its h^0 coefficient is the image pi_n(f).  ``quantize_lift``, the canonical
lift a + 0 h + ..., is for a matrix pair with no free preimage.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import (
    BadTensorFile,
    CharacteristicTooSmall,
    ShapeMismatch,
    UnknownVariable,
)
from .fields import Field, add_products
from .genmat import FormalSeries, GenericMatrix, make_generic
from .records import Frozen, Record
from .rings import CommPoly, Variable, mono_mul, mono_partials, parse_variable_name


class PoissonTensor(Frozen):
    """Constant antisymmetric tensor on an ordered variable list.

    ``entries`` maps (i, j), i < j, to the raw T(i, j) != 0; T(j, i) = -T(i, j).
    """

    __slots__ = ("variables", "entries", "field", "_variable_set")

    def __init__(self, variables, entries, field: Field):
        variables = tuple(variables)
        variable_set = frozenset(variables)
        if len(variable_set) != len(variables):
            raise BadTensorFile("duplicate variables in tensor")
        clean = {}
        for (i, j), c in entries.items():
            if not 0 <= i < j < len(variables):
                raise BadTensorFile(f"entry ({i},{j}) is not in the upper triangle "
                                    f"0 <= i < j < {len(variables)}")
            c = field.raw(c)  # refuses a Scalar of another field
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_variable_set", variable_set)

    def check_variables(self, polys):
        for p in polys:
            extra = p.variables() - self._variable_set
            if extra:
                raise UnknownVariable(f"{min(extra)} is not a tensor variable")

    @staticmethod
    def from_dict(obj, field: Field) -> PoissonTensor:
        """The tensor of a file object; its rows [i, j, "c"] name each pair once by integers."""
        try:
            variables = [parse_variable_name(t) for t in obj["variables"]]
            entries = {}
            for i, j, c in obj["entries"]:
                if type(i) is not int or type(j) is not int:
                    raise BadTensorFile(f"entry index ({i},{j}) is not a pair of integers")
                if (i, j) in entries:
                    raise BadTensorFile(f"duplicate entry ({i},{j})")
                entries[i, j] = field.raw(str(c))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise BadTensorFile(f"malformed tensor object: {exc}") from exc
        return PoissonTensor(variables, entries, field)

    @staticmethod
    def load(path, field: Field) -> PoissonTensor:
        import json  # only a tensor file needs the parser

        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise BadTensorFile(f"not valid JSON: {exc}") from exc
        return PoissonTensor.from_dict(obj, field)


def pairing_tensor(first_vars, second_vars, field: Field) -> PoissonTensor:
    """{a_k, b_k} = 1 for the paired lists, every other bracket zero."""
    first_vars, second_vars = list(first_vars), list(second_vars)
    if len(first_vars) != len(second_vars):
        raise BadTensorFile("pairing needs two variable lists of equal length")
    m = len(first_vars)
    return PoissonTensor(first_vars + second_vars, {(k, m + k): 1 for k in range(m)}, field)


def entry_pairing_tensor(s: int, n: int, field: Field) -> PoissonTensor:
    """The default "pairing" tensor on the entries of s generic n x n matrices.

    Pairs the entries of consecutive generators: {x<2k-1>[i,j], x<2k>[i,j]} = 1.
    Every other bracket is zero, so for odd s those of x<s> all vanish.
    """
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    first = [Variable.entry(l, i, j) for l in range(1, s + 1, 2) for i, j in cells]
    second = [Variable.entry(l, i, j) for l in range(2, s + 1, 2) for i, j in cells]
    entries = {(k, len(first) + k): 1 for k in range(len(second))}
    return PoissonTensor(first + second, entries, field)


def poisson_bracket(a: CommPoly, b: CommPoly, tensor: PoissonTensor) -> CommPoly:
    """{a, b} for the constant tensor: sum T(i,j) (da/dv_i)(db/dv_j)."""
    tensor.check_variables([a, b])
    acc = CommPoly.zero(a.field)
    for (i, j), c in tensor.entries.items():
        vi, vj = tensor.variables[i], tensor.variables[j]
        term = a.diff(vi) * b.diff(vj) - a.diff(vj) * b.diff(vi)
        acc = acc + term.scale(c)
    return acc


class StarContext(Frozen):
    """A Poisson tensor plus a truncation order for the star product."""

    __slots__ = ("tensor", "order", "field", "_partners")

    def __init__(self, tensor: PoissonTensor, order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        p = tensor.field.p
        if p and (order >= p or (p == 2 and order >= 1)):
            raise CharacteristicTooSmall(
                f"order {order} star product needs 2^r * r! invertible for r <= {order}, "
                f"impossible in characteristic {p}"
            )
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "field", tensor.field)
        partners, names = {}, tensor.variables  # v_i -> [(v_j, raw T(i,j))], both orientations
        for (i, j), c in sorted(tensor.entries.items()):
            partners.setdefault(names[i], []).append((names[j], c))
            partners.setdefault(names[j], []).append((names[i], self.field.reduce(-c)))
        object.__setattr__(self, "_partners", partners)

    def bilinear_map(self, r: int, a: CommPoly, b: CommPoly) -> CommPoly:
        """B_r(a, b): the commutative product at r = 0, else the r-th term of ``_moyal_terms``."""
        if r == 0:
            return a * b
        return CommPoly._of(self.field, dict(enumerate(self._moyal_terms(a, b, r), 1)).get(r, {}))

    def _moyal_terms(self, a: CommPoly, b: CommPoly, rmax: int):
        """The raw terms {monomial: value} of B_1(a, b), B_2(a, b), ..., up to B_rmax.

        W_0 = a (x) b is a dict {(m_a, m_b): c_a c_b} on raw values, keyed by
        the operands' own monomials, and W_r = P(W_{r-1}) with P = sum T(i,j)
        d_i (x) d_j over ordered pairs.  Derivatives commute, so P^r is the sum
        over ordered r-tuples of pairs in the Moyal formula, and B_r =
        weight_r * (product of the two sides of W_r).  The terms end early,
        where W_r vanishes; none is formed when no variable of a is paired
        with one of b.
        """
        partners, in_b = self._partners, b.variables()
        if rmax < 1 or not any(vj in in_b for v in a.variables() for vj, _ in partners.get(v, ())):
            return
        w = {(ma, mb): ca * cb for ma, ca in a.terms.items() for mb, cb in b.terms.items()}
        for r in range(1, rmax + 1):
            w = _poisson_step(w, partners, self.field)
            if not w:
                return
            terms = {}
            for (ma, mb), c in w.items():
                m = mono_mul(ma, mb)
                s = terms.get(m)
                terms[m] = c if s is None else s + c
            weight = _weight(self.field, r)
            yield {m: c * weight for m, c in terms.items()}


@lru_cache(maxsize=None)
def _weight(field: Field, r: int):
    """The raw 1 / (2^r r!) of B_r, formed once per field, when a product first reaches h^r."""
    return field.inverse(2**r * factorial(r))


def _poisson_step(w: dict, partners: dict, field: Field) -> dict:
    """P(W) for P = sum T(i,j) d_i (x) d_j on raw values; zero terms dropped.

    ``partners`` maps v_i to its [(v_j, raw T(i,j))]; a term of W meets only
    the pairs with v_i in m_a and v_j in m_b.
    """
    out = {}
    for (ma, mb), c in w.items():
        db = None
        for vi, (ei, da) in mono_partials(ma).items():
            row = partners.get(vi)
            if row is None:
                continue
            if db is None:
                db = mono_partials(mb)
            cai = c * ei
            for vj, t in row:
                hit = db.get(vj)
                if hit is not None:
                    key = (da, hit[1])
                    v = cai * hit[0] * t
                    s = out.get(key)
                    out[key] = v if s is None else s + v
    return field.reduced(out)


def matrix_star(a: FormalSeries, b: FormalSeries, ctx: StarContext) -> FormalSeries:
    """Row-column product of two series of matrices, each entry product the star product.

    Coefficient r is the sum over m + k + s = r and over l of
    B_s(a_m[i, l], b_k[l, j]), walked as ``FormalSeries.nonzero_pairs`` of
    coefficients and, inside each, ``GenericMatrix.nonzero_pairs`` of
    entries.  B_0 and the Moyal terms that ``StarContext._moyal_terms`` forms
    are added on raw values into one dict per entry and coefficient, so a
    product whose Moyal terms vanish past h^0 costs what the plain product
    does, plus one test per entry pair.  The tensor variables are checked
    once on the entries.
    """
    a._check(b)
    for c in (a.coeffs[0], b.coeffs[0]):
        if type(c) is not GenericMatrix or c.ring is not CommPoly:
            raise TypeError("expected series of matrices over CommPoly")
    if a.order != ctx.order:
        raise ShapeMismatch("series order differs from context order")
    ctx.tensor.check_variables([e for c in a.coeffs + b.coeffs for e in c.entries.values()])
    order, field = ctx.order, ctx.field
    cells = [{} for _ in range(order + 1)]  # r -> (i, j) -> raw terms of coefficient r there
    for m, k, am, bk in a.nonzero_pairs(b):
        for i, j, x, y in am.nonzero_pairs(bk):
            add_products(cells[m + k].setdefault((i, j), {}), x.terms.items(), y.terms.items(),
                         mono_mul)
            for r, terms in enumerate(ctx._moyal_terms(x, y, order - m - k), m + k + 1):
                acc = cells[r].setdefault((i, j), {})
                for mono, c in terms.items():
                    s = acc.get(mono)
                    acc[mono] = c if s is None else s + c
    zero = a.coeffs[0]._like({})  # one shared empty matrix for every coefficient with no terms
    return a._like([zero._like({ij: CommPoly._of(field, acc) for ij, acc in c.items()})
                    if c else zero for c in cells])


def star_mul(a: FormalSeries, b: FormalSeries, ctx: StarContext) -> FormalSeries:
    """Star product of two series of polynomials: ``matrix_star`` on 1 x 1 matrices."""
    a, b = (FormalSeries(s.order, [GenericMatrix([[c]]) for c in s.coeffs]) for s in (a, b))
    return FormalSeries(ctx.order, [c.entry(1, 1) for c in matrix_star(a, b, ctx).coeffs])


class CorrespondenceReport(Record):
    """Comparison of the h-coefficient of a star commutator with the bracket."""

    __slots__ = ("holds", "star_linear_part", "bracket")


def verify_correspondence(
    a: CommPoly, b: CommPoly, ctx: StarContext, comm: FormalSeries
) -> CorrespondenceReport:
    """Check that the h-coefficient of ``comm`` = [a, b]_* equals {a, b} exactly.

    The caller forms the star commutator; the bracket side is computed here,
    independently of the star product.  Coefficient r of a product truncated
    at N does not depend on N once N >= r, so any order >= 1 will do.
    """
    if ctx.order < 1:
        raise ValueError("correspondence check needs truncation order >= 1")
    bracket = poisson_bracket(a, b, ctx.tensor)
    linear = comm.coefficient(1)
    return CorrespondenceReport(linear == bracket, linear, bracket)


class StarSeries(FormalSeries):
    """A series of matrices truncated at ``ctx.order`` whose ``*`` is ``matrix_star`` in ``ctx``.

    It offers what ``FreePoly.evaluate_in_matrices`` asks of an image, so that
    loop, prefix cache included, evaluates a free element at these series.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: StarContext, coeffs):
        super().__init__(ctx.order, coeffs)
        object.__setattr__(self, "ctx", ctx)

    @staticmethod
    def constant(a: GenericMatrix, ctx: StarContext) -> StarSeries:
        """a + 0 h + ... + 0 h^N, truncated at ``ctx.order``."""
        return StarSeries(ctx, [a] + [a.zeros_like()] * ctx.order)

    def _like(self, coeffs) -> StarSeries:
        return StarSeries(self.ctx, coeffs)

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    def zeros_like(self) -> StarSeries:
        return StarSeries.constant(self.coeffs[0].zeros_like(), self.ctx)

    def identity_like(self) -> StarSeries:
        return StarSeries.constant(self.coeffs[0].identity_like(), self.ctx)

    def scale(self, c) -> StarSeries:
        return self._like([x if x.is_zero else x.scale(c) for x in self.coeffs])

    def __mul__(self, other) -> StarSeries:
        return matrix_star(self, other, self.ctx)


def quantize_lift(a: GenericMatrix, ctx: StarContext) -> StarSeries:
    """The canonical lift a + 0 h + ... + 0 h^N of a matrix over CommPoly."""
    return StarSeries.constant(a, ctx)


def star_generic(s: int, n: int, ctx: StarContext) -> list:
    """The s generic n x n matrices X_l as star series X^_l = X_l + 0 h + ... + 0 h^N.

    ``f.evaluate_in_matrices(star_generic(f.s, n, ctx))`` is the lift f^ of f.
    """
    return [StarSeries.constant(x, ctx) for x in make_generic(s, n, ctx.field)]
