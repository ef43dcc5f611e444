"""RationalFunction against its constructor and sympy; poly_gcd against sympy.

A fraction's denominator is a nonzero scalar times a product of differences
t_i - t_j.  Every operation is compared with two references: the unreduced
numerator and denominator put through the constructor (which factors the
denominator by trial division), and ``sympy.cancel`` (a test-only oracle).
A quotient by an element whose numerator is not such a product is refused,
and sympy's factorization decides which quotients those are.  ``poly_gcd``,
which fractions no longer use, reads the gcd off one echelon of monomial
multiples and is compared with ``sympy.gcd`` over Q and over fields as small
as GF(2), and on the sums of fractions where the primitive PRS it replaced
ran for seconds.
"""

import itertools
import random
import signal
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nclab import rings
from nclab.errors import DivisionByZero, FieldMismatch, UnsupportedDenominator
from nclab.fields import GF, QQ
from nclab.rings import CommPoly, RationalFunction, Variable, mono_from_dict, poly_gcd

VARS = tuple(Variable.aux("t", i) for i in range(1, 5))
SYMS = sympy.symbols("t1 t2 t3 t4")
FRACTION_FIELDS = [QQ, GF(7), GF(32003)]
GCD_FIELDS = [QQ, GF(2), GF(3), GF(7), GF(32003)]
KINDS = ("zero", "one", "equal_den", "any_den", "shared_factor", "cancelling", "unit")
PAIRS = [(0, 1), (0, 2), (1, 2)]


def _poly(field, exps_to_coeff) -> CommPoly:
    terms = {}
    for exps, c in exps_to_coeff.items():
        m = mono_from_dict(dict(zip(VARS, exps)))
        terms[m] = terms.get(m, 0) + c
    return CommPoly(field, {m: field.scalar(c) for m, c in terms.items()})


def _var(field, i) -> CommPoly:
    return CommPoly.variable(VARS[i], field)


# 1, t1, t2, t3 and the quadratic monomials in t1, t2.
MONOS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)]


def polys(field, nonzero=False, max_terms=3):
    mono = st.sampled_from(MONOS)
    out = st.dictionaries(mono, st.integers(-3, 3), max_size=max_terms).map(
        lambda d: _poly(field, d)
    )
    return out.filter(lambda p: not p.is_zero) if nonzero else out


def dens(field):
    """A nonzero scalar times a product of up to three factors t_i - t_j."""
    scalar = st.integers(-3, 3).filter(lambda c: c % (field.p or 7))
    factors = st.lists(st.sampled_from(PAIRS), max_size=3)

    def build(c, pairs):
        out = CommPoly.constant(field.scalar(c))
        for i, j in pairs:
            out = out * (_var(field, i) - _var(field, j))
        return out

    return st.builds(build, scalar, factors)


@st.composite
def operand_pairs(draw, field):
    p, q = polys(field), dens(field)
    kind = draw(st.sampled_from(KINDS))
    a = RationalFunction(draw(p), draw(q))
    if kind == "zero":
        b = RationalFunction.from_poly(CommPoly.constant(field.scalar(0)))
    elif kind == "one":
        b = RationalFunction.from_poly(CommPoly.constant(field.scalar(1)))
    elif kind == "equal_den":
        b = RationalFunction(draw(p), a.den)
    elif kind == "any_den":
        b = RationalFunction(draw(p), draw(q))
    elif kind == "shared_factor":
        c = draw(q)
        a = RationalFunction(draw(p) * c, c * draw(q))
        b = RationalFunction(draw(p), c * draw(q))
    elif kind == "cancelling":  # a + b = k/e: the sum's numerator shares the factor c
        c, e, n1, k = draw(q), draw(q), draw(p), draw(p)
        a = RationalFunction(n1, c)
        b = RationalFunction(k * c - n1 * e, c * e)
    else:  # a unit of the ring, so a / b is defined
        b = RationalFunction(draw(q), draw(q))
    if draw(st.booleans()):
        a, b = b, a
    return a, b


def _to_sympy(p: CommPoly):
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        coeff = sympy.Rational(c.numerator, c.denominator) if p.field.p == 0 else sympy.Integer(c)
        for var, e in m:
            coeff = coeff * sympy.Symbol(str(var)) ** e
        total += coeff
    return total


def _from_sympy(expr, field, variables=VARS) -> CommPoly:
    """Rational coefficients (sympy's results mod p may carry them) mapped into ``field``."""
    poly = sympy.Poly(expr, *[sympy.Symbol(str(v)) for v in variables], domain="QQ")
    terms = {}
    for exps, c in poly.terms():
        m = mono_from_dict(dict(zip(variables, exps)))
        terms[m] = field.scalar(Fraction(int(c.p), int(c.q)))
    return CommPoly(field, terms)


def _sympy_value(r: RationalFunction):
    return _to_sympy(r.num) / _to_sympy(r.den)


def _sympy_reduced(expr, field, variables=VARS):
    """(num, den) of ``sympy.cancel(expr)``, scaled so that den is monic under graded lex."""
    kw = {"modulus": field.p} if field.p else {}
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr), **kw))
    num, den = _from_sympy(num, field, variables), _from_sympy(den, field, variables)
    inv = den.leading_term()[1].inverse()
    return num.scale(inv), den.scale(inv)


def _is_unit(r: RationalFunction) -> bool:
    """sympy's verdict: the numerator is a scalar times differences of variables.

    (sympy factors no multivariate polynomial over GF(p), so this divides.)
    """
    if r.is_zero:
        return False
    gens = [sympy.Symbol(str(v)) for v in VARS]
    kw = {"modulus": r.field.p} if r.field.p else {"domain": "QQ"}
    num = sympy.Poly(_to_sympy(r.num), *gens, **kw)
    for i, j in itertools.combinations(range(len(gens)), 2):
        diff = sympy.Poly(gens[i] - gens[j], *gens, **kw)
        q, rem = num.div(diff)
        while rem.is_zero:
            num = q
            q, rem = num.div(diff)
    return num.is_ground


# (fast operation, unreduced (num, den) through the constructor, sympy value)
OPS = {
    "add": (lambda a, b: a + b, lambda a, b: (a.num * b.den + b.num * a.den, a.den * b.den),
            lambda x, y: x + y),
    "sub": (lambda a, b: a - b, lambda a, b: (a.num * b.den - b.num * a.den, a.den * b.den),
            lambda x, y: x - y),
    "mul": (lambda a, b: a * b, lambda a, b: (a.num * b.num, a.den * b.den),
            lambda x, y: x * y),
    "div": (lambda a, b: a / b, lambda a, b: (a.num * b.den, a.den * b.num),
            lambda x, y: x / y),
}


def _check_ops(field, a, b):
    for name, (fast, unreduced, symbolic) in OPS.items():
        if name == "div" and b.is_zero:
            with pytest.raises(DivisionByZero):
                fast(a, b)
            continue
        if name == "div" and not _is_unit(b):
            with pytest.raises(UnsupportedDenominator):
                fast(a, b)
            continue
        got = fast(a, b)
        slow = RationalFunction(*unreduced(a, b))
        assert (got.num, got.den) == (slow.num, slow.den), (name, a, b, got, slow)
        oracle = _sympy_reduced(symbolic(_sympy_value(a), _sympy_value(b)), field)
        assert (got.num, got.den) == oracle, (name, a, b, got, oracle)


@pytest.mark.parametrize("field", FRACTION_FIELDS, ids=repr)
@given(data=st.data())
def test_fraction_ops_match_constructor_and_sympy(field, data):
    a, b = data.draw(operand_pairs(field))
    _check_ops(field, a, b)


@pytest.mark.parametrize("field", FRACTION_FIELDS, ids=repr)
def test_sum_cancelling_into_the_common_factor(field):
    """The numerator t2 - t3 of a sum over (t1 - t2)(t2 - t3) cancels the common factor."""
    one = CommPoly.one(field)
    t1, t2, t3 = (_var(field, i) for i in range(3))
    den = (t1 - t2) * (t2 - t3)
    a = RationalFunction(one, den)
    b = RationalFunction(t2 - t3 - one, den)
    assert a + b == RationalFunction(one, t1 - t2)
    # unequal denominators: (t1 - t3)/((t1 - t2)(t2 - t3)) - 1/((t1 - t2)(t1 - t3))
    c = RationalFunction(t1 - t3, den)
    d = RationalFunction(one, (t1 - t2) * (t1 - t3))
    _check_ops(field, c, d)
    _check_ops(field, a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("field", FRACTION_FIELDS, ids=repr)
def test_seeded_chains_match_sympy(field, n):
    """Chains of +, -, x and / (lam_i - lam_j), each step checked against sympy.cancel.

    A chain starts at lam1 and mixes in random polynomials in lam1..lamn, so
    sums and products pile up factors that must be cancelled as they appear.
    """
    lams = [Variable.aux("lam", i) for i in range(1, n + 1)]
    rng = random.Random(1000 * n + field.p)
    for _ in range(4):
        x = RationalFunction.from_poly(CommPoly.variable(lams[0], field))
        for _ in range(8):
            op = rng.choice(("add", "sub", "mul", "div"))
            if op == "div":
                i, j = rng.sample(range(n), 2)
                y = RationalFunction.from_poly(
                    CommPoly.variable(lams[i], field) - CommPoly.variable(lams[j], field)
                )
            else:
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    exps = {v: rng.randint(0, 1) for v in rng.sample(lams, 2)}
                    terms[mono_from_dict(exps)] = field.scalar(rng.randint(-3, 3))
                y = RationalFunction.from_poly(CommPoly(field, terms))
                if op == "mul" and y.is_zero:
                    continue
            fast, _, symbolic = OPS[op]
            got = fast(x, y)
            oracle = _sympy_reduced(symbolic(_sympy_value(x), _sympy_value(y)), field, lams)
            assert (got.num, got.den) == oracle, (op, x, y, got)
            x = got


def test_fast_paths_return_operands():
    t1, t2 = _var(QQ, 0), _var(QQ, 1)
    x = RationalFunction(t1, t1 - t2)
    zero = RationalFunction.from_poly(CommPoly.constant(QQ.scalar(0)))
    one = RationalFunction.from_poly(CommPoly.constant(QQ.scalar(1)))
    with mock.patch.object(rings, "poly_gcd", side_effect=AssertionError("gcd called")):
        assert x + zero is x and zero + x is x and x - zero is x
        assert x * one is x and one * x is x
        assert (x * zero).is_zero and (zero * x).is_zero
        assert (zero - x) == -x


def test_fields_must_agree_on_the_fast_paths():
    zero7 = RationalFunction.from_poly(CommPoly.constant(GF(7).scalar(0)))
    x = RationalFunction.from_poly(_poly(QQ, {(1, 0, 0): 1}))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(FieldMismatch):
            op(x, zero7)
        with pytest.raises(FieldMismatch):
            op(zero7, x)


def test_denominators_outside_the_ring_are_refused():
    t1, t2 = _var(QQ, 0), _var(QQ, 1)
    one = CommPoly.one(QQ)
    for den in (t1, t2, t1 + t2, t1 * t2, (t1 - t2) * (t1 + t2)):
        with pytest.raises(UnsupportedDenominator):
            RationalFunction(one, den)
        with pytest.raises(UnsupportedDenominator):
            RationalFunction.from_poly(t1 - t2) / RationalFunction.from_poly(den)


# ---------------------------------------------------------------------------
# poly_gcd against sympy.gcd
# ---------------------------------------------------------------------------


def _sympy_gcd(a, b, field):
    kw = {"modulus": field.p} if field.p else {"domain": "QQ"}
    g = sympy.Poly(_to_sympy(a), *SYMS, **kw).gcd(sympy.Poly(_to_sympy(b), *SYMS, **kw))
    g = _from_sympy(g.as_expr(), field)
    return g.scale(g.leading_term()[1].inverse())


def _check_gcd(field, a, b):
    assert poly_gcd(a, b) == _sympy_gcd(a, b, field), (a, b)


@pytest.mark.parametrize("field", GCD_FIELDS, ids=repr)
@given(data=st.data())
def test_gcd_matches_prs_and_sympy(field, data):
    """poly_gcd against sympy.gcd, on products that share a factor or not."""
    q = polys(field, nonzero=True)
    c = data.draw(q) if data.draw(st.booleans()) else CommPoly.one(field)
    _check_gcd(field, c * data.draw(q), c * data.draw(q))


# every monomial of degree at most 2 in t1, t2, t3
DENSE_MONOS = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
# the seeds below 1,200 on which the primitive PRS (poly_gcd's earlier algorithm) ran past 3 s
PRS_SLOW_SEEDS = [17, 90, 152, 169, 249, 287, 305, 310, 319, 322, 351, 490, 540, 573, 685, 726,
                  774, 792, 851, 881, 916, 963, 1010, 1055]


def _sum_of_fractions(seed):
    """n1 d2 + n2 d1 and d1 d2 over Q, each factor of up to 3 terms on DENSE_MONOS."""
    rng = random.Random(seed)

    def factor():
        return _poly(QQ, {rng.choice(DENSE_MONOS): rng.choice([-3, -2, -1, 1, 2, 3])
                          for _ in range(rng.randint(1, 3))})

    n1, d1, n2, d2 = (factor() for _ in range(4))
    return n1 * d2 + n2 * d1, d1 * d2


def _within(seconds, fn, *args):
    """fn(*args), cut by SIGALRM with a TimeoutError once it has run ``seconds``."""
    def late(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", PRS_SLOW_SEEDS + list(range(20)))
def test_gcd_of_a_sum_of_fractions_matches_sympy_in_time(seed):
    # the slowest of 1,200 such pairs took 0.3 to 0.4 s; the PRS ran past 3 s on each slow seed
    a, b = _sum_of_fractions(seed)
    assert _within(2.0, poly_gcd, a, b) == _sympy_gcd(a, b, QQ), seed


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_gcd_where_every_point_kills_a_leading_coefficient(field):
    """lc in t2 of G is t1^p - t1, which vanishes at every point of GF(p)."""
    p = field.p
    g = _poly(field, {(p, 1, 0): 1, (1, 1, 0): -1, (0, 0, 0): 1})  # (t1^p - t1) t2 + 1
    t2 = _poly(field, {(0, 1, 0): 1})
    a, b = g * (t2 + CommPoly.one(field)), g * t2
    assert poly_gcd(a, b) == g
    _check_gcd(field, a, b)

