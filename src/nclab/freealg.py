"""The free associative algebra k<x1,...,xs>.

Monomials are words: tuples of generator indices in [1, s].  Concatenation is
the monoid product and nothing commutes except the scalars.  The module also
owns the expression grammar shared with the CLI:

    expr    := term (("+" | "-") term)*
    term    := signed (("*")? signed)*
    signed  := ("-")? factor
    factor  := atom ("^" NAT)?
    atom    := GEN | RATIONAL | "(" expr ")"
    GEN     := "x" NAT        RATIONAL := NAT ("/" NAT)?

Juxtaposition and "*" both mean the noncommutative product; "^" binds tighter
than products, products tighter than sums.  NAT digits are ASCII, at most
4300 of them (int's default limit, whatever the process's own), and whitespace
is what ``str.isspace`` accepts.  ``_Parser`` reads the tokens of one compiled
pattern.  These bounds are for outside input: ``read_text`` reads ``str`` of an
element back whatever its powers and digits, to ``MAX_CENTRALIZER_LETTERS`` letters.
"""

from __future__ import annotations

import re
import sys
from itertools import groupby
from operator import concat

from .errors import (
    FieldMismatch,
    ParseError,
    PowerTooLarge,
    ShapeMismatch,
    UnknownGenerator,
)
from .fields import Field, Scalar, SparseSum, int_digits

Word = tuple  # tuple[int, ...]

EMPTY_WORD: Word = ()


def word_key(w: Word):
    """Graded-lex sort key: longer words first, then by generator indices."""
    return (-len(w), w)


class FreePoly(SparseSum):
    """Element of the free algebra: a sum of words in s generators, canonical.

    Its ``str`` is text of the grammar; ``read_text`` reads it back to an equal element.
    """

    __slots__ = ("s",)

    _order = staticmethod(word_key)

    def __init__(self, s: int, field: Field, terms=None):
        if s < 1:
            raise ValueError("generator count must be at least 1")
        for w in terms or ():
            if any(g < 1 or g > s for g in w):
                raise UnknownGenerator(f"word {w} uses a generator outside [1,{s}]")
        object.__setattr__(self, "s", s)
        super().__init__(field, terms)

    def _ring(self):
        return (self.s, self.field)

    def _like(self, acc):
        out = self._of(self.field, acc)
        object.__setattr__(out, "s", self.s)
        return out

    def _key_mul(self):
        return concat

    @staticmethod
    def _key_str(w: Word) -> str:
        if not w:
            return "1"
        runs = ((g, sum(1 for _ in run)) for g, run in groupby(w))
        return "*".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in runs)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def one(s: int, field: Field) -> FreePoly:
        return FreePoly(s, field, {EMPTY_WORD: 1})

    @staticmethod
    def constant(c: Scalar, s: int) -> FreePoly:
        return FreePoly(s, c.field, {EMPTY_WORD: c})

    # -- evaluation ----------------------------------------------------------------

    def evaluate_in_matrices(self, images):
        """Apply the algebra homomorphism x_l -> images[l-1].

        The images are square matrices, or series of them under a product such
        as ``quantize.StarSeries``: each offers ``n``, ``field``, ``+``, ``*``,
        ``scale``, ``zeros_like`` and ``identity_like``.
        """
        if len(images) != self.s:
            raise ShapeMismatch(f"need {self.s} matrices, got {len(images)}")
        first = images[0]
        for m in images:
            if m.n != first.n:
                raise ShapeMismatch("matrices must share one size")
            if m.field != self.field:
                raise FieldMismatch("matrix ring over a different field")
        out = first.zeros_like()
        cache = {EMPTY_WORD: first.identity_like()}
        cache.update(((g,), m) for g, m in enumerate(images, 1))
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            prod = cache.get(w)
            if prod is None:
                prefix = w[:-1]
                base = cache.get(prefix)
                if base is None:
                    base = images[prefix[0] - 1]
                    for g in prefix[1:]:
                        base = base * images[g - 1]
                    cache[prefix] = base
                prod = base * images[w[-1] - 1]
                cache[w] = prod
            out = out + prod.scale(self.terms[w])
        return out


#: ``centralizer`` makes one column of every word of length <= d in s letters,
#: at about 11 us a column, and holds all of the words at once, at about 0.34 us
#: a letter.  A run has at most the 2^19 - 1 words of s = 2, d = 18 (8.9 s) and
#: at most their total length, this.  Letters bound s = 1, where d + 1 words
#: have d(d + 1)/2 letters (--d 4000 took 2.7 s); words bound d = 2, where
#: --s 1000 has 2,001,000 letters and took 13.6 s (whole process, 2-core VM).
#: ``read_text`` reads no text of more letters, since it holds them before any check.
MAX_CENTRALIZER_LETTERS = 17 * 2**19 + 2


def read_text(text: str, s: int, field: Field) -> FreePoly:
    """The element whose ``str`` is ``text``: terms split on " + " and " - ", factors on
    "*", and a run ``x<g>^<e>`` is e copies of g, so no power is formed.  Other text reads
    as an element whose ``str`` differs, or raises ``UnknownGenerator``, ``ZeroDivisionError``
    or ``ValueError`` (also past the letter bound).  Numbers convert under the caller's bound."""
    parts = re.split(r" ([-+]) ", text)
    terms, letters = {}, 0
    for sign, chunk in zip(["+", *parts[1::2]], parts[::2]):
        if chunk.startswith("-"):
            sign, chunk = "-", chunk[1:]
        factors = chunk.split("*")
        c = field.raw("1" if factors[0].startswith("x") else factors.pop(0))
        word = []
        for g, _, e in (factor[1:].partition("^") for factor in factors):
            e = int(e or 1)
            letters += max(e, 0)
            if letters > MAX_CENTRALIZER_LETTERS:
                raise ValueError(f"free text of more than {MAX_CENTRALIZER_LETTERS} letters")
            word += [int(g)] * e
        terms[tuple(word)] = -c if sign == "-" else c
    return FreePoly(s, field, terms)


def commutator(a: FreePoly, b: FreePoly) -> FreePoly:
    """a*b - b*a."""
    return a * b - b * a


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


#: One token per match: a generator, a NAT, an operator, a run of whitespace or
#: any other character.  NAT digits are ASCII only (``\d`` and str.isdigit also
#: take '²' and '٣'); ``\s`` matches exactly what str.isspace accepts.
_TOKEN = re.compile(r"x(?P<gen>[0-9]+)|(?P<nat>[0-9]+)|(?P<op>[-+*^()/])|(?P<space>\s+)|(?P<bad>.)",
                    re.DOTALL)


def _tokens(text: str) -> list:
    """The (kind, value, position) tokens of ``text``, closed by ("end", None, len(text));
    a NAT of more than int's default 4300 digits is refused."""
    digits = sys.int_info.default_max_str_digits
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, lexeme, pos = m.lastgroup, m[m.lastgroup], m.start()
        if kind == "gen" or kind == "nat":
            if len(lexeme) > digits:
                raise ParseError(f"number longer than {digits} digits", m.start(kind))
            tokens.append((kind, int(lexeme), pos))
        elif kind == "op":
            tokens.append((lexeme, None, pos))
        elif kind == "bad":
            if lexeme == "x":
                raise ParseError("generator needs an index, e.g. x1", pos)
            raise ParseError(f"unexpected character {lexeme!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


#: Deepest parenthesis nesting the recursive-descent parser accepts; each
#: level costs five Python frames, so this stays far below the recursion limit.
MAX_NESTING = 100

#: Limits on one ``^``, ``*``, ``+`` or ``-`` in an expression, checked before any
#: product or sum is formed.  A power's degree is estimated as the base's degree
#: times the exponent (a constant counts as degree 1), its term count as the base's
#: term count to the power, and, over Q, its coefficient size as the exponent
#: times the bits of the base's largest numerator or denominator.  A power is
#: formed by repeated squaring, so no factor on the way is larger than the power,
#: and a sum in one dict.  A product's term count is estimated as the product of
#: its operands' term counts, so a chain of accepted factors cannot grow past
#: ``MAX_POWER_TERMS`` either, and its degree as the sum of theirs.
MAX_POWER_DEGREE = 1000
MAX_POWER_TERMS = 10_000
MAX_POWER_BITS = 10_000
#: A product of degree past this is refused: unbounded, a chain of 2,000
#: ``x1^1000`` factors took 48 s to parse and 2,048 balanced ones 21 s.
MAX_PRODUCT_DEGREE = 2 * MAX_POWER_DEGREE
#: The letters of an element are the lengths of its words added up: those of
#: A B are at most |B| L(A) + |A| L(B), for |A| terms of L(A) letters, those of
#: A^n at most n |A|^(n - 1) L(A), and those of a sum the sum of its terms'.
#: None may pass MAX_CENTRALIZER_LETTERS, the most ``read_text`` reads, so every
#: element ``parse_free`` returns reads back.  The largest taken in one step,
#: the square of a sum of 100 words of 445 letters (8,900,000 letters), took
#: 0.65 s to parse and 1.0 s to read back (2-core VM, in process).


def _letters(p: FreePoly) -> int:
    return sum(map(len, p.terms))


def _check_letters(letters: int, what: str, pos: int) -> None:
    if letters > MAX_CENTRALIZER_LETTERS:
        raise PowerTooLarge(f"{what} of up to {letters} letters exceeds "
                            f"{MAX_CENTRALIZER_LETTERS} letters", pos)


def _check_power(base: FreePoly, n: int, pos: int) -> None:
    """Refuse base^n when its estimated size exceeds a MAX_POWER_* limit."""
    degree = max(base.degree(), 0)
    if n * max(degree, 1) > MAX_POWER_DEGREE:
        raise PowerTooLarge(
            f"exponent {n} on a base of degree {degree} exceeds degree {MAX_POWER_DEGREE}", pos
        )
    if len(base.terms) ** n > MAX_POWER_TERMS:
        raise PowerTooLarge(
            f"exponent {n} on a base of {len(base.terms)} terms exceeds {MAX_POWER_TERMS} terms", pos
        )
    if base.field.p == 0:
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for c in base.terms.values()),
            default=0,
        )
        if n * bits > MAX_POWER_BITS:
            raise PowerTooLarge(
                f"exponent {n} on {bits}-bit coefficients exceeds {MAX_POWER_BITS} bits",
                pos,
            )
    _check_letters(n * len(base.terms) ** max(n - 1, 0) * _letters(base), "a power", pos)


class _Parser:
    def __init__(self, text: str, s: int, field: Field):
        self.tokens = _tokens(text)
        self.cursor = 0
        self.s = s
        self.field = field
        self.depth = 0

    def _peek(self):
        return self.tokens[self.cursor]

    def _next(self):
        self.cursor += 1
        return self.tokens[self.cursor - 1]

    def parse(self) -> FreePoly:
        value = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {kind!r}", pos)
        return value

    def _expr(self) -> FreePoly:
        """A sum, formed once in one dict of exact sums, reduced at the end."""
        value = self._term()
        kind, _, pos = self._peek()
        if kind not in ("+", "-"):
            return value
        acc, letters = dict(value.terms), _letters(value)
        while kind in ("+", "-"):
            self._next()
            term = self._term()
            letters += _letters(term)
            _check_letters(letters, "a sum", pos)
            for w, c in term.terms.items():
                acc[w] = acc.get(w, 0) + (c if kind == "+" else -c)
            kind, _, pos = self._peek()
        return value._like(acc)

    def _term(self) -> FreePoly:
        value = self._signed()
        while True:
            kind, _, pos = self._peek()
            if kind == "*":
                self._next()
            elif kind not in ("gen", "nat", "("):
                return value
            other = self._signed()
            if len(value.terms) * len(other.terms) > MAX_POWER_TERMS:
                raise PowerTooLarge(
                    f"a product of {len(value.terms)} and {len(other.terms)} terms"
                    f" exceeds {MAX_POWER_TERMS} terms",
                    pos,
                )
            degrees = [max(p.degree(), 0) for p in (value, other)]
            if sum(degrees) > MAX_PRODUCT_DEGREE:
                raise PowerTooLarge(f"a product of degree {degrees[0]} and {degrees[1]}"
                                    f" exceeds degree {MAX_PRODUCT_DEGREE}", pos)
            _check_letters(len(other.terms) * _letters(value) + len(value.terms) * _letters(other),
                           "a product", pos)
            value = value * other

    def _signed(self) -> FreePoly:
        kind, _, _ = self._peek()
        if kind == "-":
            self._next()
            return -self._factor()
        return self._factor()

    def _factor(self) -> FreePoly:
        value = self._atom()
        kind, _, _ = self._peek()
        if kind == "^":
            self._next()
            nk, n, pos = self._next()
            if nk != "nat":
                raise ParseError("exponent must be a natural number", pos)
            _check_power(value, n, pos)
            value = value**n
        return value

    def _atom(self) -> FreePoly:
        kind, val, pos = self._next()
        if kind == "gen":
            if val < 1 or val > self.s:
                raise UnknownGenerator(f"x{val} (only {self.s} generators declared)")
            return FreePoly(self.s, self.field, {(val,): 1})
        if kind == "nat":
            if self._peek()[0] == "/":
                self._next()
                dk, den, dpos = self._next()
                if dk != "nat":
                    raise ParseError("denominator must be a natural number", dpos)
                if den == 0:
                    raise ParseError("denominator must be nonzero", dpos)
                return FreePoly.constant(self.field.scalar(f"{val}/{den}"), self.s)
            return FreePoly.constant(self.field.scalar(val), self.s)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            ck, _, cpos = self._next()
            if ck != ")":
                raise ParseError("expected ')'", cpos)
            return value
        raise ParseError(f"expected a generator, number or '('", pos)


def parse_free(text: str, s: int, field: Field) -> FreePoly:
    """Parse an expression string into a canonical FreePoly.

    A NAT has at most 4300 digits, whatever the process's own bound.
    """
    with int_digits():
        return _Parser(text, s, field).parse()
