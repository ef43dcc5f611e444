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

from .errors import DivisionByZero, FieldMismatch, UnassignedVariable, UnsupportedDenominator
from .fields import NEG_INF, Field, Scalar, SparseSum
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


def mono_div(m1: Mono, m2: Mono):
    """m1 / m2, or None when m2 does not divide m1."""
    exps = dict(m1)
    for v, e in m2:
        r = exps.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            exps.pop(v, None)
        else:
            exps[v] = r
    return mono_from_dict(exps)


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
    def constant(c: Scalar) -> CommPoly:
        return CommPoly(c.field, {EMPTY_MONO: c})

    @staticmethod
    def variable(v: Variable, field: Field) -> CommPoly:
        return CommPoly(field, {((v, 1),): 1})

    # -- structure -----------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(mono_degree(m) for m in self.terms)

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
# Division and gcd (primitive PRS).  Nothing in nclab calls poly_gcd; the
# benchmark's tracer (perfbench/tracing.py) wraps it by name.
# ---------------------------------------------------------------------------


def poly_divmod(a: CommPoly, b: CommPoly):
    """Multivariate division by a single divisor under graded lex."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    a._check(b)
    lm, lc = b.leading_term()
    inv = lc.inverse().value
    quot: dict = {}
    rem: dict = {}
    work = dict(a.terms)
    while work:
        m = min(work, key=CommPoly._order)
        c = work.pop(m)
        mq = mono_div(m, lm)
        if mq is None:
            rem[m] = c
            continue
        qc = a.field.reduce(c * inv)
        quot[mq] = quot.get(mq, 0) + qc
        for mb, cb in b.terms.items():
            if mb == lm:
                continue  # already cancelled by popping the leading term
            mt = mono_mul(mq, mb)
            s = a.field.reduce(work.get(mt, 0) - qc * cb)
            if s:
                work[mt] = s
            else:
                work.pop(mt, None)
    return CommPoly._of(a.field, quot), CommPoly._of(a.field, rem)


def poly_divexact(a: CommPoly, b: CommPoly) -> CommPoly:
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError("exact polynomial division left a remainder")
    return q


def _monic(p: CommPoly) -> CommPoly:
    if p.is_zero:
        return p
    _, lc = p.leading_term()
    return p.scale(lc.inverse())


def _to_univ(p: CommPoly, v: Variable):
    """Dense coefficient list in ``v``: index = exponent, entries CommPoly."""
    deg = 0
    for m in p.terms:
        deg = max(deg, dict(m).get(v, 0))
    coeffs = [dict() for _ in range(deg + 1)]
    for m, c in p.terms.items():
        exps = dict(m)
        e = exps.pop(v, 0)
        coeffs[e][mono_from_dict(exps)] = c
    return [CommPoly(p.field, d) for d in coeffs]


def _from_univ(coeffs, v: Variable, field: Field) -> CommPoly:
    terms = {}
    for e, c in enumerate(coeffs):
        vm = ((v, e),) if e else EMPTY_MONO
        for m, s in c.terms.items():
            terms[mono_mul(m, vm)] = s
    return CommPoly(field, terms)


def _trim(coeffs):
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _prem(A, B, field):
    """Pseudo-remainder of dense univariate lists with CommPoly coefficients."""
    R = _trim(list(A))
    dB = len(B) - 1
    lb = B[-1]
    while R and len(R) - 1 >= dB:
        lr = R[-1]
        shift = len(R) - 1 - dB
        R = [c * lb for c in R]
        for i, cb in enumerate(B):
            R[i + shift] = R[i + shift] - lr * cb
        R.pop()  # leading coefficient cancels exactly
        R = _trim(R)
    return R if R else [CommPoly.zero(field)]


def _content(coeffs, field) -> CommPoly:
    g = CommPoly.zero(field)
    for c in coeffs:
        if not c.is_zero:
            g = poly_gcd(g, c)
    return g


def poly_gcd(a: CommPoly, b: CommPoly) -> CommPoly:
    """gcd over a field, normalized to graded-lex leading coefficient 1.

    Computed by the primitive PRS (pseudo-remainder sequence) in the largest
    variable, with the contents' gcd taken recursively.
    """
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    a._check(b)
    if a.is_constant or b.is_constant:
        return CommPoly.one(a.field)
    v = max(a.variables() | b.variables())
    if v not in a.variables():
        return poly_gcd(a, _content(_to_univ(b, v), b.field))
    if v not in b.variables():
        return poly_gcd(_content(_to_univ(a, v), a.field), b)
    ua, ub = _to_univ(a, v), _to_univ(b, v)
    ca, cb = _content(ua, a.field), _content(ub, b.field)
    cg = poly_gcd(ca, cb)
    pa = [poly_divexact(c, ca) for c in ua]
    pb = [poly_divexact(c, cb) for c in ub]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while True:
        if len(pb) == 1 and pb[0].is_zero:
            break
        if len(pb) == 1:  # nonzero constant in v: gcd of primitive parts is content-level
            pa = [pb[0]]
            break
        r = _prem(pa, pb, a.field)
        if len(r) == 1 and r[0].is_zero:
            pa = pb
            break
        cr = _content(r, a.field)
        pa, pb = pb, [poly_divexact(c, cr) for c in r]
    prim = _from_univ(pa, v, a.field) if len(pa) > 1 else pa[0]
    if prim.is_constant:
        return _monic(cg)
    return _monic(prim * cg)


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
    p = num.field.p
    if any(x % p if p else x for x in image.values()):
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
    """(c, exps) with den = c * prod (u - v)^exps[(u, v)], by trial division."""
    if den.is_zero:
        raise DivisionByZero("rational function with zero denominator")
    variables = sorted(den.variables())
    pairs = [(u, v) for i, u in enumerate(variables) for v in variables[i + 1:]]
    room = dict.fromkeys(pairs, den.total_degree())
    rest = _cancel(den, room, pairs)
    if not rest.is_constant:  # the factors are irreducible
        raise UnsupportedDenominator(
            "denominator is not a scalar times a product of differences of variables"
        )
    return rest.constant_value(), {pair: den.total_degree() - k for pair, k in room.items()}


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
        _fill(self, _cancel(num.scale(c.inverse()), exps, sorted(exps)), exps)

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
        other = self._coerce(other)
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
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
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
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZero("division by the zero rational function")
        c, exps = _factor_denominator(other.num)
        num = CommPoly.constant(c.inverse())
        for pair, k in other.exps:
            num = num * _factor_power(self.field, pair, k)
        return self * RationalFunction._of(num, exps)

    def __neg__(self):
        return RationalFunction._of(-self.num, dict(self.exps))

    def scale(self, c) -> RationalFunction:
        """This fraction times a Scalar of its field or an int or Fraction."""
        return RationalFunction._of(self.num.scale(c), dict(self.exps))

    def _coerce(self, other) -> RationalFunction:
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
