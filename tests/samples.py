"""Seeded random test data: scalars, polynomials and integer matrices.

Everything random takes an explicit ``random.Random`` so that the randomized
suites are reproducible from a single integer seed.  ``lifted_commutator``
forms the star commutator that ``verify_correspondence`` checks.
"""

import random
from fractions import Fraction

from nclab import rings
from nclab.fields import Field, Scalar
from nclab.freealg import FreePoly
from nclab.genmat import FormalSeries, GenericMatrix
from nclab.quantize import StarContext, star_mul


def random_scalar(rng: random.Random, field: Field, span: int = 6) -> Scalar:
    if field.p:
        return field.scalar(rng.randrange(field.p))
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return field.scalar(Fraction(num, den))


def random_commpoly(
    rng: random.Random, variables, field: Field, max_degree: int = 3, max_terms: int = 4
) -> rings.CommPoly:
    variables = list(variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        exps = {}
        for _ in range(deg):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        terms[rings.mono_from_dict(exps)] = random_scalar(rng, field)
    return rings.CommPoly(field, terms)


def random_freepoly(
    rng: random.Random, s: int, field: Field, max_degree: int = 3, max_terms: int = 4
) -> FreePoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randint(1, s) for _ in range(length))
        terms[word] = random_scalar(rng, field)
    return FreePoly(s, field, terms)


def random_int_matrix(
    rng: random.Random, n: int, field: Field, lo: int = -5, hi: int = 5, zero_diagonal=False
) -> GenericMatrix:
    """Constant CommPoly entries drawn from [lo, hi] row by row (the diagonal skipped if zero)."""
    zero = rings.CommPoly.zero(field)
    return GenericMatrix(
        [
            [
                zero if zero_diagonal and i == j
                else rings.CommPoly.constant(field.scalar(rng.randint(lo, hi)))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def lifted_commutator(a: rings.CommPoly, b: rings.CommPoly, ctx: StarContext) -> FormalSeries:
    """[a, b]_* = a * b - b * a of the polynomials lifted to series truncated at ``ctx.order``."""
    a, b = (FormalSeries.from_poly(x, ctx.order) for x in (a, b))
    return star_mul(a, b, ctx) - star_mul(b, a, ctx)
