"""Sparse multivariate polynomials over an exact field, and their fractions.

Variables are either matrix-entry symbols ``x<l>[<i>,<j>]`` (the entries of
the generic matrices) or auxiliary symbols like ``lam1``; as tagged tuples
they are totally ordered (matrix entries first, then auxiliaries, each
lexicographically), which makes every canonical form deterministic.  Monomials
are sorted tuples of ``(Variable, exponent)`` pairs, ordered graded lex by the
one sort key ``CommPoly._order``.  This module alone builds, multiplies and
differentiates them (``mono_from_dict``, ``mono_mul``, ``mono_partials``);
the Moyal pass of ``quantize`` keys its terms by them as they are, with no
renumbering.  A polynomial maps monomials to raw coefficients (see ``fields``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement

from . import linalg
from .errors import DivisionByZero, FieldMismatch, UnassignedVariable, UnsupportedDenominator
from .fields import Field, Scalar, SparseSum
from .records import Frozen

_AUX_NAME = re.compile(r"[A-Za-z_]+")
_ENTRY_FORM = re.compile(r"x([0-9]+)\[([0-9]+),([0-9]+)\]")
_AUX_FORM = re.compile(r"([A-Za-z_]+)([0-9]+)")


class Variable(tuple):
    """A commutative indeterminate: a generic-matrix entry or an auxiliary symbol.

    An entry is ``(0, gen, row, col)`` and an auxiliary symbol ``(1, name, index)``.
    Hashing, equality and order (entries first, each kind lexicographically)
    are tuple's own and run in C; a Variable equals the plain tuple of its items.
    """

    __slots__ = ()

    @staticmethod
    def entry(gen: int, row: int, col: int) -> Variable:
        if gen < 1 or row < 1 or col < 1:
            raise ValueError("entry variable indices are 1-based and positive")
        return tuple.__new__(Variable, (0, gen, row, col))

    @staticmethod
    def aux(name: str, index: int) -> Variable:
        if not _AUX_NAME.fullmatch(name) or index < 1:
            raise ValueError(f"bad auxiliary variable {name!r}/{index}")
        return tuple.__new__(Variable, (1, name, index))

    def __str__(self):
        if self[0] == 0:
            return f"x{self[1]}[{self[2]},{self[3]}]"
        return f"{self[1]}{self[2]}"

    def __repr__(self):
        return f"Variable.{'aux' if self[0] else 'entry'}{self[1:]!r}"


def parse_variable_name(text: str) -> Variable:
    """Inverse of ``str(Variable)``; used by tensor files and report loading."""
    m = _ENTRY_FORM.fullmatch(text)
    if m:
        return Variable.entry(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _AUX_FORM.fullmatch(text)
    if m:
        return Variable.aux(m.group(1), int(m.group(2)))
    raise ValueError(f"unrecognized variable name {text!r}")


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (Variable, positive exponent)
# ---------------------------------------------------------------------------

Mono = tuple  # tuple[tuple[Variable, int], ...]

EMPTY_MONO: Mono = ()


def mono_from_dict(exps: dict) -> Mono:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_partials(m: Mono) -> dict:
    """{v: (e, m with e lowered by one)} over the variables v of m: the first derivatives of m."""
    return {v: (e, m[:k] + m[k + 1:] if e == 1 else m[:k] + ((v, e - 1),) + m[k + 1:])
            for k, (v, e) in enumerate(m)}


# ---------------------------------------------------------------------------
# CommPoly
# ---------------------------------------------------------------------------


class CommPoly(SparseSum):
    """Sparse commutative polynomial: a sum of monomials, canonical."""

    __slots__ = ()

    def _key_mul(self):
        return mono_mul  # looked up per product, so a rebinding of rings.mono_mul is seen

    @staticmethod
    def _order(m: Mono):
        """Descending graded lex, the one monomial order.

        At equal degree no item tuple is a proper prefix of another, so the
        earlier variable, then the larger exponent, sorts first.
        """
        return (-mono_degree(m), tuple((v, -e) for v, e in m))

    @staticmethod
    def _key_str(m: Mono) -> str:
        if not m:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in m)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> CommPoly:
        return CommPoly(field)

    @staticmethod
    def one(field: Field) -> CommPoly:
        return CommPoly(field, {EMPTY_MONO: 1})

    @staticmethod
    def variable(v: Variable, field: Field) -> CommPoly:
        return CommPoly(field, {((v, 1),): 1})

    # -- structure -----------------------------------------------------------

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def leading_term(self):
        """(monomial, coefficient) of the graded-lex largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=self._order)
        return m, Scalar(self.field, self.terms[m])

    # -- calculus / evaluation -------------------------------------------------

    def diff(self, v: Variable) -> CommPoly:
        """Formal partial derivative with respect to ``v``."""
        terms = {}
        for m, c in self.terms.items():
            hit = mono_partials(m).get(v)
            if hit is not None:
                e, nm = hit
                s = terms.get(nm)
                terms[nm] = c * e if s is None else s + c * e
        return self._like(terms)  # drops exponents divisible by the characteristic

    def evaluate(self, point: dict) -> Scalar:
        """Evaluate at a full assignment Variable -> Scalar."""
        raw = self.field.raw
        total = 0
        for m, c in self.terms.items():
            for v, e in m:
                if v not in point:
                    raise UnassignedVariable(f"no value for {v}")
                c = c * raw(point[v]) ** e
            total += c
        return Scalar(self.field, self.field.reduce(total))


# ---------------------------------------------------------------------------
# gcd, read off one echelon.  Nothing in nclab calls poly_gcd; the benchmark's
# tracer (perfbench/tracing.py) wraps it by name.
# ---------------------------------------------------------------------------


def _monic(p: CommPoly) -> CommPoly:
    if p.is_zero:
        return p
    _, lc = p.leading_term()
    return p.scale(p.field.inverse(lc.value))


def _monomials(variables, degree: int) -> list:
    """Every monomial of degree at most ``degree`` in ``variables``, in ascending degree."""
    variables = sorted(variables)
    return [mono_from_dict({v: c.count(v) for v in c})
            for d in range(degree + 1) for c in combinations_with_replacement(variables, d)]


def _times(p: CommPoly, m: Mono) -> dict:
    """The raw terms of p * m, a column of the echelon."""
    return {mono_mul(k, m): c for k, c in p.terms.items()}


def poly_gcd(a: CommPoly, b: CommPoly) -> CommPoly:
    """gcd over a field, normalized to graded-lex leading coefficient 1.

    One ``linalg.Echelon`` takes the columns b*m (deg m <= deg a, m in the
    variables of a) and then a*m (deg m <= deg b, in the variables of b) in
    ascending degree.  The solutions of a*u = b*v are u = t b/g, v = t a/g,
    so the first a-column that depends on the earlier ones gives u of least
    degree, where t is a constant c.  Then g/c solves (g/c)*v = a.
    """
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    a._check(b)
    field = a.field
    ma = _monomials(a.variables(), a.degree())
    echelon = linalg.Echelon(field)
    for m in ma:
        echelon.absorb(_times(b, m))
    mb = _monomials(b.variables(), b.degree())
    vec = next(filter(None, (echelon.absorb(_times(a, m)) for m in mb)))
    v = CommPoly._of(field, {ma[k]: c for k, c in vec.items() if k < len(ma)})
    top = a.degree() - v.degree()
    cols = [m for m in ma if mono_degree(m) <= top]
    coeffs = linalg.solve_membership([_times(v, m) for m in cols], [a.terms], field)[0]
    return _monic(CommPoly._of(field, {cols[k]: c for k, c in coeffs.items()}))


# ---------------------------------------------------------------------------
# RationalFunction: polynomials with the differences of variables inverted
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)  # diag's sums and quotients ask for the same few powers again and again
def _factor_power(field: Field, pair, k: int) -> CommPoly:
    """(u - v)^k for the pair (u, v), expanded once per (field, pair, k)."""
    u, v = pair
    f = CommPoly(field, {((u, 1),): 1, ((v, 1),): -1})
    return f ** k


@lru_cache(maxsize=256)  # a diag run meets tens of denominators; a library process, any number
def _expand_denominator(field: Field, exps: tuple) -> CommPoly:
    """prod (u - v)^k over the ((u, v), k) of ``exps``, expanded once per (field, exps)."""
    out = CommPoly.one(field)
    for pair, k in exps:
        out = out * _factor_power(field, pair, k)
    return out


def _divide_out(num: CommPoly, pair):
    """num / (u - v) when u - v divides num, else None.

    u - v divides num exactly when num(u := v) = 0.  Then a term c u^a v^b r
    (r free of u and v) contributes c r v^b (u^a - v^a) / (u - v), and the
    parts c r v^(a+b) that this leaves out sum to num(u := v) = 0.
    """
    u, v = pair
    split, image = [], {}
    for m, c in num.terms.items():
        rest, a, b = [], 0, 0
        for w, e in m:
            if w == u:
                a = e
            elif w == v:
                b = e
            else:
                rest.append((w, e))
        rest = tuple(rest)
        split.append((rest, a, b, c))
        image[rest, a + b] = image.get((rest, a + b), 0) + c
    if num.field.reduced(image):
        return None
    terms = {}
    for rest, a, b, c in split:
        for i in range(a):
            j = a - 1 - i + b
            m = mono_mul(rest, (((u, i),) if i else ()) + (((v, j),) if j else ()))
            terms[m] = c if m not in terms else terms[m] + c
    return CommPoly._of(num.field, terms)


def _cancel(num: CommPoly, exps: dict, pairs) -> CommPoly:
    """num divided by each factor of ``pairs`` while it divides and ``exps`` (lowered) allows."""
    for pair in pairs:
        while exps.get(pair):
            q = _divide_out(num, pair)
            if q is None:
                break
            num = q
            exps[pair] -= 1
    return num


def _factor_denominator(den: CommPoly):
    """(c, exps) with den = c * prod (u - v)^exps[(u, v)] and c raw, by trial division."""
    if den.is_zero:
        raise DivisionByZero("rational function with zero denominator")
    variables = sorted(den.variables())
    pairs = [(u, v) for i, u in enumerate(variables) for v in variables[i + 1:]]
    room = dict.fromkeys(pairs, den.degree())
    rest = _cancel(den, room, pairs)
    if not rest.is_constant:  # the factors are irreducible
        raise UnsupportedDenominator(
            "denominator is not a scalar times a product of differences of variables"
        )
    return rest.terms[EMPTY_MONO], {pair: den.degree() - k for pair, k in room.items()}


def _fill(out, num: CommPoly, exps: dict):
    object.__setattr__(out, "num", num)
    kept = () if num.is_zero else sorted((pair, e) for pair, e in exps.items() if e)
    object.__setattr__(out, "exps", tuple(kept))
    return out


class RationalFunction(Frozen):
    """num / prod (u - v)^e over pairs of variables u < v, in lowest terms.

    ``exps`` is the sorted tuple of ((u, v), e) with e > 0, and no such u - v
    divides ``num``.  In ``diag`` the factors are the lam_i - lam_j.  They are
    distinct, irreducible and monic under graded lex in every characteristic,
    so the form is unique and ``den``, their expanded product, is the monic
    reduced denominator.  No gcd is taken: a sum raises both sides to the
    larger exponent of each factor, a product adds exponents, and a factor is
    divided out only where it can divide the result.  A denominator or
    divisor that is not a nonzero scalar times such factors is refused.
    """

    __slots__ = ("num", "exps")

    def __init__(self, num: CommPoly, den: CommPoly):
        num._check(den)
        c, exps = _factor_denominator(den)
        _fill(self, _cancel(num.scale(den.field.inverse(c)), exps, sorted(exps)), exps)

    @staticmethod
    def _of(num: CommPoly, exps: dict) -> RationalFunction:
        """num / prod (u - v)^exps, already in lowest terms."""
        return _fill(object.__new__(RationalFunction), num, exps)

    @staticmethod
    def zero(field: Field) -> RationalFunction:
        return RationalFunction._of(CommPoly.zero(field), {})

    @staticmethod
    def one(field: Field) -> RationalFunction:
        return RationalFunction._of(CommPoly.one(field), {})

    @staticmethod
    def from_poly(p: CommPoly) -> RationalFunction:
        return RationalFunction._of(p, {})

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def den(self) -> CommPoly:
        """The expanded denominator, monic under graded lex."""
        return _expand_denominator(self.field, self.exps)

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    @property
    def is_one(self) -> bool:
        c = self.num.terms.get(EMPTY_MONO)
        return len(self.num.terms) == 1 and c == 1 and not self.exps

    def __add__(self, other):
        other = self._check(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        field, exps, rest = self.field, dict(self.exps), dict(self.exps)
        c1 = c2 = CommPoly.one(field)  # raise each side to the common denominator
        equal = []
        for pair, k2 in other.exps:
            k1 = rest.pop(pair, 0)
            if k1 < k2:
                c1 = c1 * _factor_power(field, pair, k2 - k1)
                exps[pair] = k2
            elif k1 > k2:
                c2 = c2 * _factor_power(field, pair, k1 - k2)
            else:
                equal.append(pair)
        for pair, k1 in rest.items():
            c2 = c2 * _factor_power(field, pair, k1)
        # where one side's exponent is larger, the other side's term carries the
        # factor, so modulo it the sum is that side's numerator times other
        # factors, none divisible by it: only equal exponents can cancel
        num = (self.num if c1.is_constant else self.num * c1) + (
            other.num if c2.is_constant else other.num * c2)
        return RationalFunction._of(_cancel(num, exps, equal), exps)

    def __sub__(self, other):
        return self + -self._check(other)

    def __mul__(self, other):
        other = self._check(other)
        if self.is_zero or other.is_one:
            return self
        if other.is_zero or self.is_one:
            return other
        e1, e2 = dict(self.exps), dict(other.exps)
        # a factor of one denominator can divide only the other side's numerator
        n1 = _cancel(self.num, e2, [pair for pair in e2 if pair not in e1])
        n2 = _cancel(other.num, e1, [pair for pair in e1 if pair not in e2])
        for pair, k in e2.items():
            e1[pair] = e1.get(pair, 0) + k
        return RationalFunction._of(n1 * n2, e1)

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero:
            raise DivisionByZero("division by the zero rational function")
        # positional: the benchmark's tracer wraps __init__(self, num, den)
        return self * RationalFunction(other.den, other.num)

    def __neg__(self):
        return RationalFunction._of(-self.num, dict(self.exps))

    def scale(self, c) -> RationalFunction:
        """This fraction times a Scalar of its field or an int or Fraction."""
        return RationalFunction._of(self.num.scale(c), dict(self.exps))

    def _check(self, other) -> RationalFunction:
        if type(other) is not RationalFunction:
            raise TypeError(f"cannot combine RationalFunction with {other!r}")
        if other.num.field is not self.num.field:
            # the fast paths form no product that would catch it
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __str__(self):
        if not self.exps:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"
