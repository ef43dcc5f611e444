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
multiplies; no variable is renumbered.

The series are ``genmat.FormalSeries``: a series of CommPoly is multiplied
by ``star_mul``, a series of GenericMatrix by ``matrix_star`` (the
row-column product whose entry products are star products).
``quantize_lift`` makes the series of matrices of a matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BadTensorFile,
    CharacteristicTooSmall,
    ShapeMismatch,
    UnknownVariable,
)
from .fields import Field
from .genmat import FormalSeries, GenericMatrix
from .records import Frozen, Record
from .rings import CommPoly, Variable, mono_mul, mono_partials, parse_variable_name


class PoissonTensor(Frozen):
    """Constant antisymmetric tensor on an ordered variable list."""

    __slots__ = ("variables", "entries", "field")

    def __init__(self, variables, entries, field: Field):
        variables = tuple(variables)
        index = {v: k for k, v in enumerate(variables)}
        if len(index) != len(variables):
            raise BadTensorFile("duplicate variables in tensor")
        clean = {}
        for (i, j), c in entries.items():
            if not (0 <= i < len(variables) and 0 <= j < len(variables)):
                raise BadTensorFile(f"entry index ({i},{j}) out of range")
            if i >= j:
                raise BadTensorFile("entries must list the upper triangle only (i < j)")
            c = field.scalar(c)  # refuses a Scalar of another field
            if (i, j) in clean:
                raise BadTensorFile(f"duplicate entry ({i},{j})")
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "field", field)

    def check_variables(self, polys):
        allowed = set(self.variables)
        for p in polys:
            extra = p.variables() - allowed
            if extra:
                name = min(extra)
                raise UnknownVariable(f"{name} is not a tensor variable")

    def ordered_pairs(self):
        """All ordered (vi, vj, weight) with nonzero weight, both orientations."""
        out = []
        for (i, j), c in sorted(self.entries.items()):
            out.append((self.variables[i], self.variables[j], c))
            out.append((self.variables[j], self.variables[i], -c))
        return out

    @staticmethod
    def from_dict(obj, field: Field) -> PoissonTensor:
        try:
            variables = [parse_variable_name(t) for t in obj["variables"]]
            entries = {(int(i), int(j)): field.scalar(str(c)) for i, j, c in obj["entries"]}
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
    variables = first_vars + second_vars
    m = len(first_vars)
    entries = {(k, m + k): field.one for k in range(m)}
    return PoissonTensor(variables, entries, field)


def entry_pairing_tensor(s: int, n: int, field: Field) -> PoissonTensor:
    """The default "pairing" tensor on matrix-entry variables.

    Pairs the entries of consecutive generators: {x<2k-1>[i,j], x<2k>[i,j]} = 1.
    """
    first, second = [], []
    for l in range(1, s + 1, 2):
        if l + 1 > s:
            break
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                first.append(Variable.entry(l, i, j))
                second.append(Variable.entry(l + 1, i, j))
    if not first:
        # single-generator universe: all brackets vanish
        variables = [Variable.entry(1, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        return PoissonTensor(variables, {}, field)
    return pairing_tensor(first, second, field)


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

    __slots__ = ("tensor", "order", "field", "_weights", "_partners")

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
        weights, denom = [], 1  # denom = 2^r * r!, a running product
        for r in range(1, order + 2):
            weights.append(self.field.scalar(Fraction(1, denom)))
            denom *= 2 * r
        object.__setattr__(self, "_weights", tuple(weights))
        partners = {}  # v_i -> [(v_j, raw T(i,j))] over both orientations
        for vi, vj, w in tensor.ordered_pairs():
            partners.setdefault(vi, []).append((vj, w.value))
        object.__setattr__(self, "_partners", partners)

    def bilinear_map(self, r: int, a: CommPoly, b: CommPoly) -> CommPoly:
        """B_r(a, b); B_0 is the commutative product."""
        return self.bilinear_maps(a, b, r)[r]

    def bilinear_maps(self, a: CommPoly, b: CommPoly, rmax: int) -> list:
        """[B_0(a, b), ..., B_rmax(a, b)] from one pass of the Poisson operator.

        W_0 = a (x) b is a dict {(m_a, m_b): c_a c_b} on raw values, keyed by
        the operands' own monomials, and W_r = P(W_{r-1}) with
        P = sum T(i,j) d_i (x) d_j over ordered pairs.  Derivatives commute, so
        P^r is the sum over ordered r-tuples of pairs in the Moyal formula, and
        B_r = weight_r * (product of the two sides of W_r).
        """
        out, zero = [a * b], CommPoly.zero(self.field)
        partners, in_b = self._partners, b.variables()
        if not any(vj in in_b for v in a.variables() for vj, _ in partners.get(v, ())):
            return out + [zero] * rmax
        p = self.field.p
        w = {(ma, mb): ca * cb for ma, ca in a.terms.items() for mb, cb in b.terms.items()}
        for r in range(1, rmax + 1):
            w = _poisson_step(w, partners, p)
            if not w:
                return out + [zero] * (rmax - r + 1)
            terms = {}
            for (ma, mb), c in w.items():
                m = mono_mul(ma, mb)
                s = terms.get(m)
                terms[m] = c if s is None else s + c
            weight = self._weights[r].value
            out.append(CommPoly._of(self.field, {m: c * weight for m, c in terms.items()}))
        return out


def _poisson_step(w: dict, partners: dict, p: int) -> dict:
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
    if p:
        return {key: v % p for key, v in out.items() if v % p}
    return {key: v for key, v in out.items() if v}


def _star_into(out: list, base: int, x: CommPoly, y: CommPoly, ctx: StarContext) -> None:
    """out[base + j] += B_j(x, y) for each j the truncation keeps; nothing for a zero factor."""
    if x.is_zero or y.is_zero:
        return
    for j, term in enumerate(ctx.bilinear_maps(x, y, ctx.order - base), base):
        if not term.is_zero:
            out[j] = out[j] + term


def _check_star_operands(a: FormalSeries, b: FormalSeries, ctx: StarContext, kind) -> None:
    """Both are series of ``kind`` at the context order, over the tensor variables only."""
    a._check(b)
    if type(a.coeffs[0]) is not kind or type(b.coeffs[0]) is not kind:
        raise TypeError(f"expected series of {kind.__name__}")
    if kind is GenericMatrix and (a.coeffs[0].ring, b.coeffs[0].ring) != (CommPoly, CommPoly):
        raise TypeError("expected series of matrices over CommPoly")
    if a.order != ctx.order:
        raise ShapeMismatch("series order differs from context order")
    polys = a.coeffs + b.coeffs
    if kind is GenericMatrix:
        polys = [e for c in polys for row in c.rows for e in row]
    ctx.tensor.check_variables(polys)


def star_mul(a: FormalSeries, b: FormalSeries, ctx: StarContext) -> FormalSeries:
    """Star product of two series, truncated at the context order."""
    _check_star_operands(a, b, ctx, CommPoly)
    out = [CommPoly.zero(ctx.field)] * (ctx.order + 1)
    for m, am in enumerate(a.coeffs):
        for k, bk in enumerate(b.coeffs[: ctx.order + 1 - m]):
            _star_into(out, m + k, am, bk, ctx)
    return FormalSeries(ctx.order, out)


def star_commutator(a: FormalSeries, b: FormalSeries, ctx: StarContext) -> FormalSeries:
    return star_mul(a, b, ctx) - star_mul(b, a, ctx)


class CorrespondenceReport(Record):
    """Comparison of the h-coefficient of a star commutator with the bracket."""

    __slots__ = ("holds", "star_linear_part", "bracket")


def verify_correspondence(
    a: CommPoly, b: CommPoly, ctx: StarContext, comm: FormalSeries
) -> CorrespondenceReport:
    """Check that the h-coefficient of ``comm`` = [a, b]_* equals {a, b} exactly.

    The caller forms the star commutator; the bracket side is computed here,
    independently of the star product.
    """
    if ctx.order < 2:
        raise ValueError("correspondence check needs truncation order >= 2")
    bracket = poisson_bracket(a, b, ctx.tensor)
    linear = comm.coefficient(1)
    return CorrespondenceReport(linear == bracket, linear, bracket)


def matrix_star(a: FormalSeries, b: FormalSeries, ctx: StarContext) -> FormalSeries:
    """Row-column product of two series of matrices, each entry product the star product.

    Coefficient r is the sum over m + k + s = r and over l of
    B_s(a_m[i, l], b_k[l, j]).  The tensor variables are checked once per
    operand, and zero entries are skipped.
    """
    _check_star_operands(a, b, ctx, GenericMatrix)
    zero = CommPoly.zero(ctx.field)
    cells = [[[zero] * (ctx.order + 1) for _ in row] for row in a.coeffs[0].rows]
    for m, am in enumerate(a.coeffs):
        for k, bk in enumerate(b.coeffs[: ctx.order + 1 - m]):
            for out_row, a_row in zip(cells, am.rows):
                for x, b_row in zip(a_row, bk.rows):
                    if not x.is_zero:
                        for out, y in zip(out_row, b_row):
                            _star_into(out, m + k, x, y, ctx)
    return FormalSeries(
        ctx.order,
        [GenericMatrix([[out[r] for out in row] for row in cells]) for r in range(ctx.order + 1)],
    )


def matrix_star_commutator(a: FormalSeries, b: FormalSeries, ctx: StarContext) -> FormalSeries:
    return matrix_star(a, b, ctx) - matrix_star(b, a, ctx)


def quantize_lift(a: GenericMatrix, ctx: StarContext) -> FormalSeries:
    """Canonical lift: the series of matrices with degree-0 coefficient a, all higher zero."""
    ctx.tensor.check_variables([e for row in a.rows for e in row])
    return FormalSeries.from_poly(a, ctx.order)
