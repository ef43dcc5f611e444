"""Sparse multivariate polynomials over an exact field, and their fractions.

Variables are either matrix-entry symbols ``x<l>[<i>,<j>]`` (the entries of
the generic matrices) or auxiliary symbols like ``lam1``; a fixed total order
on variables (matrix entries first, then auxiliaries, each lexicographically)
makes every canonical form deterministic.  Monomials are sorted tuples of
``(Variable, exponent)`` pairs and the monomial order is graded lex.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key

from .errors import DivisionByZero, FieldMismatch, UnassignedVariable
from .fields import NEG_INF, Field, Scalar, signed_sum
from .records import FrozenRecord

_AUX_NAME = re.compile(r"^[A-Za-z_]+$")
_ENTRY_FORM = re.compile(r"^x(\d+)\[(\d+),(\d+)\]$")
_AUX_FORM = re.compile(r"^([A-Za-z_]+)(\d+)$")


class Variable(FrozenRecord):
    """A commutative indeterminate: a generic-matrix entry or an auxiliary symbol.

    ``kind`` is ``"entry"`` (with ``gen``, ``row``, ``col``) or ``"aux"``
    (with ``name``, ``index``).
    """

    __slots__ = ("kind", "gen", "row", "col", "name", "index", "_key", "_hash")
    _defaults = {"gen": 0, "row": 0, "col": 0, "name": "", "index": 0}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.kind == "entry":
            key = (0, self.gen, self.row, self.col)
        else:
            key = (1, self.name, self.index)
        object.__setattr__(self, "_key", key)
        # hashed once: monomial dict lookups hash every variable of every key
        fields = (self.kind, self.gen, self.row, self.col, self.name, self.index)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    @staticmethod
    def entry(gen: int, row: int, col: int) -> Variable:
        if gen < 1 or row < 1 or col < 1:
            raise ValueError("entry variable indices are 1-based and positive")
        return Variable("entry", gen=gen, row=row, col=col)

    @staticmethod
    def aux(name: str, index: int) -> Variable:
        if not _AUX_NAME.match(name) or index < 1:
            raise ValueError(f"bad auxiliary variable {name!r}/{index}")
        return Variable("aux", name=name, index=index)

    def sort_key(self):
        return self._key

    def __lt__(self, other: Variable):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if self.kind == "entry":
            return f"x{self.gen}[{self.row},{self.col}]"
        return f"{self.name}{self.index}"


def parse_variable_name(text: str) -> Variable:
    """Inverse of ``str(Variable)``; used by tensor files and report loading."""
    m = _ENTRY_FORM.match(text)
    if m:
        return Variable.entry(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _AUX_FORM.match(text)
    if m:
        return Variable.aux(m.group(1), int(m.group(2)))
    raise ValueError(f"unrecognized variable name {text!r}")


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (Variable, positive exponent)
# ---------------------------------------------------------------------------

Mono = tuple  # tuple[tuple[Variable, int], ...]

EMPTY_MONO: Mono = ()


def mono_from_dict(exps: dict) -> Mono:
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda p: p[0].sort_key()))


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
        k1, k2 = v1._key, v2._key
        if k1 == k2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif k1 < k2:
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


def _lex_cmp(m1: Mono, m2: Mono) -> int:
    """Lexicographic order where the smallest variable is most significant."""
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        k1, k2 = v1._key, v2._key
        if k1 == k2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif k1 < k2:
            return 1  # m1 has a positive power on an earlier variable
        else:
            return -1
    if i < len(m1):
        return 1
    if j < len(m2):
        return -1
    return 0


def mono_cmp(m1: Mono, m2: Mono) -> int:
    """Graded lex comparison; returns -1/0/1."""
    d1, d2 = mono_degree(m1), mono_degree(m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    return _lex_cmp(m1, m2)


_MONO_KEY = cmp_to_key(mono_cmp)


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in m)


# ---------------------------------------------------------------------------
# CommPoly
# ---------------------------------------------------------------------------


class CommPoly:
    """Sparse commutative polynomial; canonical (no zero coefficients stored)."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        object.__setattr__(self, "field", field)
        clean = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, Scalar):
                c = field.scalar(c)
            elif c.field != field:
                raise FieldMismatch("coefficient from a different field")
            if c:
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CommPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> CommPoly:
        return CommPoly(field)

    @staticmethod
    def one(field: Field) -> CommPoly:
        return CommPoly.constant(field.one)

    @staticmethod
    def constant(c: Scalar) -> CommPoly:
        return CommPoly(c.field, {EMPTY_MONO: c})

    @staticmethod
    def variable(v: Variable, field: Field) -> CommPoly:
        return CommPoly(field, {((v, 1),): field.one})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def constant_value(self) -> Scalar:
        return self.terms.get(EMPTY_MONO, self.field.zero)

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

    def coefficient(self, m: Mono) -> Scalar:
        return self.terms.get(m, self.field.zero)

    def leading_term(self):
        """(monomial, coefficient) of the graded-lex largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_MONO_KEY)
        return m, self.terms[m]

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: _MONO_KEY(t[0]), reverse=reverse)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other) -> CommPoly:
        if not isinstance(other, CommPoly):
            raise TypeError(f"expected CommPoly, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = c if s is None else s + c
        return CommPoly(self.field, terms)

    def __sub__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            terms[m] = -c if s is None else s - c
        return CommPoly(self.field, terms)

    def __neg__(self):
        return CommPoly(self.field, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                s = terms.get(m)
                terms[m] = c if s is None else s + c
        return CommPoly(self.field, terms)

    def scale(self, c: Scalar) -> CommPoly:
        return CommPoly(self.field, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = CommPoly.one(self.field)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CommPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    # -- calculus / evaluation -------------------------------------------------

    def diff(self, v: Variable) -> CommPoly:
        """Formal partial derivative with respect to ``v``."""
        terms = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(v, 0)
            if not e:
                continue
            coeff = c * self.field.scalar(e)
            if not coeff:
                continue  # exponent divisible by the characteristic
            if e == 1:
                exps.pop(v)
            else:
                exps[v] = e - 1
            nm = mono_from_dict(exps)
            s = terms.get(nm)
            terms[nm] = coeff if s is None else s + coeff
        return CommPoly(self.field, terms)

    def evaluate(self, point: dict) -> Scalar:
        """Evaluate at a full assignment Variable -> Scalar."""
        total = self.field.zero
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                if v not in point:
                    raise UnassignedVariable(f"no value for {v}")
                val = val * point[v] ** e
            total = total + val
        return total

    # -- display ----------------------------------------------------------------

    def __str__(self):
        return signed_sum((mono_str(m), c) for m, c in self.sorted_terms())

    def __repr__(self):
        return f"CommPoly({self})"


# ---------------------------------------------------------------------------
# Division and gcd (primitive PRS), used for fraction-field normalization
# ---------------------------------------------------------------------------


def poly_divmod(a: CommPoly, b: CommPoly):
    """Multivariate division by a single divisor under graded lex."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    a._check(b)
    lm, lc = b.leading_term()
    quot: dict = {}
    rem: dict = {}
    work = dict(a.terms)
    while work:
        m = max(work, key=_MONO_KEY)
        c = work.pop(m)
        mq = mono_div(m, lm)
        if mq is None:
            rem[m] = c
            continue
        qc = c / lc
        quot[mq] = quot.get(mq, a.field.zero) + qc
        for mb, cb in b.terms.items():
            if mb == lm:
                continue  # already cancelled by popping the leading term
            mt = mono_mul(mq, mb)
            s = work.get(mt, a.field.zero) - qc * cb
            if s:
                work[mt] = s
            else:
                work.pop(mt, None)
    return CommPoly(a.field, quot), CommPoly(a.field, rem)


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


# Coprimality pre-test: a few deterministic evaluation points per variable,
# spread over [0, 10007) (reduced mod p) by a multiplicative hash.
_TRIALS = 3


def _trial_value(trial: int, index: int, p: int) -> int:
    x = (2654435761 * (64 * trial + index + 1)) % 10007
    return x % p if p else x - 5003


def _image(terms, k: int, xs, p: int) -> list:
    """Dense coefficients in variable ``k`` with every other variable ``i`` set to ``xs[i]``."""
    acc = {}
    for c, mono in terms:
        ek = 0
        for i, e in mono:
            if i == k:
                ek = e
            elif p:
                c = c * pow(xs[i], e, p) % p
            else:
                c = c * xs[i] ** e
        acc[ek] = acc.get(ek, 0) + c
    return [acc.get(e, 0) % p if p else acc.get(e, 0) for e in range(max(acc) + 1)]


def _urem(f: list, g: list, p: int) -> list:
    """Remainder of dense univariate f by g (nonzero leading entry) over Q or F_p."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p) if p else 1 / Fraction(g[-1])
    while len(r) > dg:
        q = r[-1] * inv
        s = len(r) - 1 - dg
        for i in range(dg):
            r[s + i] = (r[s + i] - q * g[i]) % p if p else r[s + i] - q * g[i]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _udeg_gcd(f: list, g: list, p: int) -> int:
    """Degree of gcd(f, g) for nonzero dense univariate polynomials."""
    while True:
        if not g:
            return len(f) - 1
        if len(g) == 1:
            return 0
        f, g = g, _urem(f, g, p)


def _coprime_by_images(a: CommPoly, b: CommPoly) -> bool:
    """True when univariate images prove gcd(a, b) = 1; False when they do not decide.

    For each variable v, the other variables are set to field values at which
    the leading coefficients of a and b in v stay nonzero.  The image of
    G = gcd(a, b) then keeps its degree in v and divides both images, so the
    degree of the images' gcd bounds deg_v G.  If every bound is 0, G is a
    constant.  A variable with no admissible point among the trials (possible
    over a small field) leaves the question open.
    """
    p = a.field.p
    variables = sorted(a.variables() | b.variables(), key=Variable.sort_key)
    index = {v: i for i, v in enumerate(variables)}
    ta = [(c.value, tuple((index[v], e) for v, e in m)) for m, c in a.terms.items()]
    tb = [(c.value, tuple((index[v], e) for v, e in m)) for m, c in b.terms.items()]
    for k in range(len(variables)):
        for t in range(_TRIALS):
            xs = [_trial_value(t, i, p) for i in range(len(variables))]
            ia, ib = _image(ta, k, xs, p), _image(tb, k, xs, p)
            if ia[-1] and ib[-1]:
                break
        else:
            return False
        if _udeg_gcd(ia, ib, p):
            return False
    return True


def poly_gcd(a: CommPoly, b: CommPoly) -> CommPoly:
    """gcd over a field, normalized to graded-lex leading coefficient 1.

    ``_coprime_by_images`` settles most coprime pairs without the primitive
    PRS; every other pair goes through the PRS in the largest variable.
    """
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    a._check(b)
    if a.is_constant or b.is_constant:
        return CommPoly.one(a.field)
    if _coprime_by_images(a, b):
        return CommPoly.one(a.field)
    common = sorted(a.variables() | b.variables(), key=lambda v: v.sort_key())
    v = common[-1]
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
        return _monic(CommPoly.constant(a.field.one) * cg)
    return _monic(prim * cg)


def _cancel(num: CommPoly, den: CommPoly):
    """num and the monic den with their gcd divided out; den stays monic."""
    if num.is_zero:
        return num, CommPoly.one(num.field)
    if den.is_constant:  # monic, so den = 1
        return num, den
    g = poly_gcd(num, den)
    if g.is_constant:
        return num, den
    return poly_divexact(num, g), poly_divexact(den, g)


# ---------------------------------------------------------------------------
# RationalFunction
# ---------------------------------------------------------------------------


class RationalFunction:
    """Reduced fraction of CommPoly; denominator monic under graded lex.

    The constructor reduces any pair by its full gcd.  Arithmetic reduces
    only where cancellation can happen (Henrici 1956) and builds its results
    through ``_reduced``; a reduced fraction with a monic denominator is
    unique, so both routes give the same value.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CommPoly, den: CommPoly):
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        num._check(den)
        if num.is_zero:
            den = CommPoly.one(num.field)
        else:
            g = poly_gcd(num, den)
            if not (g.is_constant and g.constant_value() == num.field.one):
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            _, lc = den.leading_term()
            if lc != num.field.one:
                inv = lc.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _reduced(num: CommPoly, den: CommPoly) -> RationalFunction:
        """The fraction num/den of a coprime pair with monic den, as it stands."""
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def from_poly(p: CommPoly) -> RationalFunction:
        return RationalFunction._reduced(p, CommPoly.one(p.field))

    @staticmethod
    def from_scalar(c: Scalar) -> RationalFunction:
        return RationalFunction.from_poly(CommPoly.constant(c))

    @property
    def field(self) -> Field:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        c = self.num.terms.get(EMPTY_MONO)
        return len(self.num.terms) == 1 and c is not None and c.value == 1 and self.den.is_constant

    def __add__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            num, den = _cancel(n1 + n2, d1)
            return RationalFunction._reduced(num, den)
        # d1 = g d1', d2 = g d2': the sum is (n1 d2' + n2 d1') / (d1' d2' g), and
        # its numerator is coprime to d1' d2', so only gcd(num, g) can cancel.
        g = poly_gcd(d1, d2)
        if g.is_constant:
            return RationalFunction._reduced(n1 * d2 + n2 * d1, d1 * d2)
        c1, c2 = poly_divexact(d1, g), poly_divexact(d2, g)
        num, g = _cancel(n1 * c2 + n2 * c1, g)
        return RationalFunction._reduced(num, c1 * c2 * g)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_one:
            return self
        if other.is_zero or self.is_one:
            return other
        # cancel across: n1/d2 and n2/d1; the cofactor product is then reduced
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZero("division by the zero rational function")
        _, lc = other.num.leading_term()
        inv = lc.inverse()
        return self * RationalFunction._reduced(other.den.scale(inv), other.num.scale(inv))

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def _coerce(self, other) -> RationalFunction:
        if isinstance(other, CommPoly):
            other = RationalFunction.from_poly(other)
        elif isinstance(other, Scalar):
            other = RationalFunction.from_scalar(other)
        elif not isinstance(other, RationalFunction):
            raise TypeError(f"cannot combine RationalFunction with {other!r}")
        if other.field != self.field:  # the fast paths form no product that would catch it
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_constant and self.den.constant_value() == self.field.one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"
