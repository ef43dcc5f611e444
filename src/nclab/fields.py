"""Exact ground fields: arbitrary-precision rationals and prime fields F_p.

A ``Field`` is a lightweight descriptor (characteristic 0 for the rationals,
otherwise a prime modulus).  Inside the engine a field element is a *raw*
value: an int in ``[0, p)`` over F_p; over Q an int when it is integral and
a lowest-terms ``Fraction`` otherwise.  ``Field.reduce``, ``reduced`` and
``inverse`` are the one raw arithmetic (``linalg.Echelon`` reduces inline).
A ``Scalar``, a raw value tagged with its field, crosses the API, and
``SparseSum``, the base of the polynomial classes, stores raw values.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, InvalidField
from .records import Frozen

#: Degree of the zero polynomial: a totally-ordered sentinel below every int.
NEG_INF = float("-inf")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_13, the least odd composite that is a strong pseudoprime to every base
#: in ``_MR_BASES`` (Sorenson and Webster 2015); ``is_prime`` is proven below it.
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for every n < PRIMALITY_BOUND (about 3.3e24).

    At or above the bound a composite can pass; ``Field`` refuses such moduli.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Frozen):
    """Ground field tag: ``Field(0)`` is Q, ``Field(p)`` is F_p for prime p.

    There is one instance per characteristic, so fields compare by identity.
    """

    __slots__ = ("p",)
    __eq__, __hash__ = object.__eq__, object.__hash__
    _interned = {}

    def __new__(cls, p: int = 0):
        field = cls._interned.get(p)
        if field is None:
            if p >= PRIMALITY_BOUND:
                raise InvalidField(
                    f"modulus {p} is at least {PRIMALITY_BOUND}, where primality is not proven"
                )
            if p != 0 and not is_prime(p):
                raise InvalidField(f"modulus {p} is not prime")
            field = cls._interned[p] = object.__new__(cls)
            object.__setattr__(field, "p", p)
        return field

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"

    # -- element construction ------------------------------------------------

    def raw(self, value):
        """The raw value of an int, Fraction, Scalar of this field or literal string."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch(f"cannot coerce {value!r} into {self!r}")
            return value.value
        if isinstance(value, str):
            text = value.strip()
            num, slash, den = text.partition("/")
            value = Fraction(int(num), int(den)) if slash else int(text)
        if isinstance(value, Fraction):
            return self.reduce(value.numerator * self.inverse(value.denominator))
        if isinstance(value, int):
            return value % self.p if self.p else value
        raise TypeError(f"cannot build a scalar from {value!r}")

    def scalar(self, value) -> Scalar:
        """Coerce an int, Fraction, Scalar or literal string into this field."""
        return Scalar(self, self.raw(value))

    def reduce(self, value):
        """The raw value of an exact sum or product of raw values."""
        return value % self.p if self.p else rational(value)

    def reduced(self, acc: dict) -> dict:
        """The normal form of a dict of exact sums and products of raw values: zeros dropped."""
        p = self.p
        if p:
            return {k: v for k, c in acc.items() if (v := c % p)}
        return {k: c if type(c) is int or c.denominator != 1 else c.numerator
                for k, c in acc.items() if c}

    def inverse(self, value):
        """The raw inverse of an exact sum or product of raw values."""
        p = self.p
        if not (value % p if p else value):
            raise DivisionByZero(f"{value} has no inverse in {self!r}")
        if p:
            return pow(value, -1, p)
        # 1 and -1 are their own inverses, as ints: a pivot of either keeps a column integral
        return int(value) if value in (1, -1) else rational(Fraction(1) / value)  # 1 / int is a float

    def to_dict(self):
        if self.p == 0:
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @staticmethod
    def from_dict(obj) -> Field:
        return Field(0 if obj.get("kind") == "rational" else int(obj["p"]))


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


@contextmanager
def int_digits(limit: int = 0):
    """Python's bound on the digits of an int <-> str conversion, set to ``limit`` (0:
    none) inside the block and restored after it, whatever the process's own bound."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def rational(value):
    """The raw rational of an int or Fraction: an int when it is integral."""
    return value if type(value) is int or value.denominator != 1 else value.numerator


class Scalar(Frozen):
    """Immutable exact field element: a raw value tagged with its field.

    Over Q the value is an int when it is integral and a lowest-terms
    ``Fraction`` otherwise; over F_p it is the residue in ``[0, p)``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def _check(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {other!r}")
        if other.field is not self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        return Scalar(self.field, self.field.reduce(self.value + self._check(other).value))

    def __sub__(self, other):
        return Scalar(self.field, self.field.reduce(self.value - self._check(other).value))

    def __mul__(self, other):
        return Scalar(self.field, self.field.reduce(self.value * self._check(other).value))

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __neg__(self):
        return Scalar(self.field, self.field.reduce(-self.value))

    def inverse(self) -> Scalar:
        return Scalar(self.field, self.field.inverse(self.value))

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.p == 0:
            return Scalar(self.field, rational(self.value**exponent))
        return Scalar(self.field, pow(self.value, exponent, self.field.p))

    def __bool__(self):
        return self.value != 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.field!r}, {self.value})"


def signed_sum(terms, p: int) -> str:
    """Render (monomial text, raw coefficient) pairs over Q (p = 0) or F_p as ``x1^2 - 2/3*x2 + 1``.

    The monomial text ``"1"`` is the constant term.  Over Q a negative
    coefficient prints as a minus sign before its magnitude; a magnitude of
    one before a monomial is left out.  No terms render as ``0``.
    """
    parts = []
    for mono, c in terms:
        negative = p == 0 and c < 0
        mag = -c if negative else c
        if mono == "1":
            chunk = str(mag)
        elif mag == 1:
            chunk = mono
        else:
            chunk = f"{mag}*{mono}"
        if parts:
            parts.append(f"- {chunk}" if negative else f"+ {chunk}")
        else:
            parts.append(f"-{chunk}" if negative else chunk)
    return " ".join(parts) or "0"


def add_products(acc: dict, left, right, key_mul) -> None:
    """acc[key_mul(k1, k2)] += c1 * c2 for every (k1, c1) in left and (k2, c2) in right."""
    for k1, c1 in left:
        for k2, c2 in right:
            k = key_mul(k1, k2)
            s = acc.get(k)
            acc[k] = c1 * c2 if s is None else s + c1 * c2


class SparseSum(Frozen):
    """Immutable finite sum key -> nonzero raw value over one field, canonical.

    A subclass gives its key product ``_key_mul()`` (None: no product), the
    graded printing order ``_order`` (whose first component is minus the key's
    degree) and text ``_key_str`` of its keys, and, when it
    takes more constructor arguments than the field, ``_ring()``: those
    arguments, on which every operand must agree.  An operand of another
    class is refused with ``TypeError``.  Only the constructor coerces; the
    arithmetic builds its results with ``_of``, which only reduces.
    """

    __slots__ = ("field", "terms")

    #: Key of the constant term (the unit of every key product).
    _unit = ()

    def __init__(self, field: Field, terms=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", {k: v for k, c in (terms or {}).items() if (v := field.raw(c))})

    @classmethod
    def _of(cls, field: Field, acc: dict):
        """The sum of ``acc``, exact sums and products of raw values, with nothing coerced."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "terms", field.reduced(acc))
        return out

    def _ring(self):
        return (self.field,)

    def _like(self, acc):
        return self._of(self.field, acc)

    def _key_mul(self):
        return None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        """True when the sum lies in the ground field (including 0)."""
        return not self.terms or (len(self.terms) == 1 and self._unit in self.terms)

    def constant_value(self) -> Scalar:
        return Scalar(self.field, self.terms.get(self._unit, 0))

    def degree(self):
        """The largest degree of a key, read off ``_order``; ``NEG_INF`` for 0."""
        if not self.terms:
            return NEG_INF
        return -min(map(self._order, self.terms))[0]

    def sorted_terms(self):
        """(key, raw coefficient) pairs in printing order."""
        order = self._order
        return sorted(self.terms.items(), key=lambda t: order(t[0]))

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {other!r}")
        if other._ring() != self._ring():
            raise FieldMismatch(f"{type(self).__name__} over {self._ring()} vs {other._ring()}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            terms[k] = c if s is None else s + c
        return self._like(terms)

    def __sub__(self, other):
        other = self._check(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            terms[k] = -c if s is None else s - c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """This sum times a Scalar of its field or an int or Fraction."""
        c = self.field.raw(c)
        return self._like({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._check(other)
        key_mul = self._key_mul()
        if key_mul is None:
            raise TypeError(f"{type(self).__name__} has no product")
        terms = {}
        add_products(terms, self.terms.items(), other.terms.items(), key_mul)
        return self._like(terms)

    def __pow__(self, n: int):
        if self._key_mul() is None:
            raise TypeError(f"{type(self).__name__} has no product")
        if n < 0:
            raise ValueError("negative power")
        # by repeated squaring: the powers of one element commute, so any grouping is exact
        out, square = self._like({self._unit: 1}), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __hash__(self):  # the terms are a dict
        return hash((self._ring(), frozenset(self.terms.items())))

    def __str__(self):
        key_str = self._key_str
        return signed_sum(((key_str(k), c) for k, c in self.sorted_terms()), self.field.p)

    def __repr__(self):
        return f"{type(self).__name__}({self})"
