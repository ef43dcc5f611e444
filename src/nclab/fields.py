"""Exact ground fields: arbitrary-precision rationals and prime fields F_p.

A ``Field`` is a lightweight descriptor (characteristic 0 for the rationals,
otherwise a prime modulus).  A ``Scalar`` is an immutable field element; all
arithmetic is exact and no floating point appears anywhere in the engine.
``SparseSum`` is the base of the polynomial classes of the other modules.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, InvalidField

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


class Field:
    """Ground field tag: ``Field(0)`` is Q, ``Field(p)`` is F_p for prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p >= PRIMALITY_BOUND:
            raise InvalidField(
                f"modulus {p} is at least {PRIMALITY_BOUND}, where primality is not proven"
            )
        if p != 0 and not is_prime(p):
            raise InvalidField(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def characteristic(self) -> int:
        return self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"

    # -- element construction ------------------------------------------------

    def scalar(self, value) -> Scalar:
        """Coerce an int, Fraction, Scalar or literal string into this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"cannot coerce {value!r} into {self!r}")
            return value
        if isinstance(value, str):
            return self._from_str(value)
        if isinstance(value, Fraction):
            if self.p == 0:
                return Scalar(self, value)
            num = value.numerator % self.p
            den = value.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {self.p}")
            return Scalar(self, num * pow(den, -1, self.p) % self.p)
        if isinstance(value, int):
            return Scalar(self, Fraction(value) if self.p == 0 else value % self.p)
        raise TypeError(f"cannot build a scalar from {value!r}")

    def _from_str(self, text: str) -> Scalar:
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return self.scalar(Fraction(int(num), int(den)))
        return self.scalar(int(text))

    @property
    def zero(self) -> Scalar:
        return self.scalar(0)

    @property
    def one(self) -> Scalar:
        return self.scalar(1)

    def to_dict(self):
        if self.p == 0:
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @staticmethod
    def from_dict(obj) -> Field:
        if obj.get("kind") == "rational":
            return QQ
        return Field(int(obj["p"]))


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


class Scalar:
    """Immutable exact field element.

    Over Q the value is a ``Fraction`` (always in lowest terms with positive
    denominator); over F_p it is the residue in ``[0, p)``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _check(self, other) -> Scalar:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {other!r}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        v = self.value + other.value
        return Scalar(self.field, v if self.field.p == 0 else v % self.field.p)

    def __sub__(self, other):
        other = self._check(other)
        v = self.value - other.value
        return Scalar(self.field, v if self.field.p == 0 else v % self.field.p)

    def __mul__(self, other):
        other = self._check(other)
        v = self.value * other.value
        return Scalar(self.field, v if self.field.p == 0 else v % self.field.p)

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __neg__(self):
        v = -self.value
        return Scalar(self.field, v if self.field.p == 0 else v % self.field.p)

    def inverse(self) -> Scalar:
        if not self:
            raise DivisionByZero("scalar division by zero")
        if self.field.p == 0:
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.p == 0:
            return Scalar(self.field, self.value**exponent)
        return Scalar(self.field, pow(self.value, exponent, self.field.p))

    def __bool__(self):
        return self.value != 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Scalar({self.field!r}, {self.value})"


def signed_sum(terms) -> str:
    """Render (monomial text, coefficient) pairs as ``x1^2 - 2/3*x2 + 1``.

    The monomial text ``"1"`` is the constant term.  Over Q a negative
    coefficient prints as a minus sign before its magnitude; a magnitude of
    one before a monomial is left out.  No terms render as ``0``.
    """
    parts = []
    for mono, c in terms:
        negative = c.field.p == 0 and c.value < 0
        mag = -c if negative else c
        if mono == "1":
            chunk = str(mag)
        elif mag.value == 1:
            chunk = mono
        else:
            chunk = f"{mag}*{mono}"
        if parts:
            parts.append(f"- {chunk}" if negative else f"+ {chunk}")
        else:
            parts.append(f"-{chunk}" if negative else chunk)
    return " ".join(parts) or "0"


class SparseSum:
    """Immutable finite sum key -> nonzero scalar over one field, canonical.

    A subclass gives its key product ``_key_mul()`` (None: no product), the
    printing order ``_order`` and text ``_key_str`` of its keys, and, when it
    takes more constructor arguments than the field, ``_ring()``: those
    arguments, on which every operand must agree.  An operand of another
    class is refused with ``TypeError``.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        object.__setattr__(self, "field", field)
        clean = {}
        for k, c in (terms or {}).items():
            if not isinstance(c, Scalar):
                c = field.scalar(c)
            elif c.field != field:
                raise FieldMismatch("coefficient from a different field")
            if c:
                clean[k] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _ring(self):
        return (self.field,)

    def _like(self, terms):
        return type(self)(*self._ring(), terms)

    def _key_mul(self):
        return None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> Scalar:
        return self.terms.get(key, self.field.zero)

    def sorted_terms(self):
        """(key, coefficient) pairs in printing order."""
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
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            terms[k] = c if s is None else s + c
        return self._like(terms)

    def __sub__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            terms[k] = -c if s is None else s - c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar):
        return self._like({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        other = self._check(other)
        key_mul = self._key_mul()
        if key_mul is None:
            raise TypeError(f"{type(self).__name__} has no product")
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                c = c1 * c2
                s = terms.get(k)
                terms[k] = c if s is None else s + c
        return self._like(terms)

    def __pow__(self, n: int):
        if self._key_mul() is None:
            raise TypeError(f"{type(self).__name__} has no product")
        if n < 0:
            raise ValueError("negative power")
        out = self._like({(): self.field.one})  # () is the unit key of every product
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self._ring() == other._ring() and self.terms == other.terms

    def __hash__(self):
        return hash((self._ring(), frozenset(self.terms.items())))

    def __str__(self):
        key_str = self._key_str
        return signed_sum((key_str(k), c) for k, c in self.sorted_terms())

    def __repr__(self):
        return f"{type(self).__name__}({self})"
