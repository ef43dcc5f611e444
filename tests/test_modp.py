"""Reduction mod p as a checked homomorphism: F_p runs are fixed by Q runs.

Reduction Z_(p) -> F_p is a ring homomorphism and every engine computes with
ring operations, so for integer inputs the F_p result is the Q result
reduced mod p, for every p that divides no denominator of it.  The two runs
share no raw arithmetic (``Fraction`` against ints mod p).

diag: the seeded perturbation M has the same integers over both fields, so
the Q report's conjugator u and diagonal D, reduced entry by entry, equal
the F_p report.  A case whose denominator p divides is skipped, and pytest
counts the skips.

centralizer: each dimension is the nullity of an integer matrix, the
commutator map on words, and a rank can only drop mod p, so the dims over
F_p are at least the dims over Q, degree by degree.

annihilator: the minimal P over Q, cleared to a primitive integer
polynomial, reduces to a nonzero P mod p that annihilates the F_p images, so
the minimal degree over F_p is at most the degree over Q.

eval, pi, al: the canonical form of an integer f and its image pi_n(f)
reduce to the F_p ones, with the degree and term count of the reduced f,
and al's verdicts hold over every field.

star, poisson: the Moyal weights 1/(2^r r!) are p-integral for r < p, so
below the characteristic limit the Q star product, star commutator and
Poisson bracket of integer inputs reduce to the F_p ones, and so does the
lift of a free element at the star-generic matrices.
"""

import contextlib
import io
import random
from functools import lru_cache

import pytest

from nclab import serialize
from nclab.centralizer import bergman_check
from nclab.cli import main
from nclab.errors import DivisionByZero
from nclab.fields import QQ, Field
from nclab.freealg import FreePoly, parse_free
from nclab.genmat import FormalSeries, GenericMatrix, find_annihilator, pi_reduce
from nclab.quantize import (
    PoissonTensor,
    StarContext,
    entry_pairing_tensor,
    poisson_bracket,
    star_generic,
    star_mul,
)
from nclab.rings import CommPoly, RationalFunction, Variable, mono_from_dict
from nclab.serialize import EvalReport, PiReport

PRIMES = (5, 7, 11, 32003)


@lru_cache(maxsize=None)
def report(*argv):
    """The decoded report of ``nclab argv --json``, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--json"])
    assert code == 0, argv
    return serialize.loads(buf.getvalue())[1]


def diag_report(n: int, order: int, seed: int, field: str):
    """The decoded report of ``diag --n n --order order --seed seed --field field``."""
    return report("diag", "--n", str(n), "--order", str(order), "--seed", str(seed),
                  "--field", field)


def reduce_mod(r: RationalFunction, field: Field) -> RationalFunction:
    """r over Q with its coefficients reduced into F_p; DivisionByZero where p divides one."""
    return RationalFunction(CommPoly(field, r.num.terms), CommPoly(field, r.den.terms))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n, order", [(2, 3), (3, 3), (3, 4), (4, 3)])
def test_diag_over_q_reduces_to_diag_over_fp(n, order, seed, p):
    q, fp, field = diag_report(n, order, seed, "q"), diag_report(n, order, seed, f"fp:{p}"), Field(p)
    assert (q.achieved_order, fp.achieved_order) == (order, order)
    for name in ("conjugator", "diagonal"):
        ours, theirs = getattr(q, name), getattr(fp, name)
        for r, (a, b) in enumerate(zip(ours.coeffs, theirs.coeffs, strict=True)):
            for i, (row_a, row_b) in enumerate(zip(a.rows, b.rows, strict=True)):
                for j, (x, y) in enumerate(zip(row_a, row_b, strict=True)):
                    try:
                        reduced = reduce_mod(x, field)
                    except DivisionByZero:
                        pytest.skip(f"{p} divides a denominator of {name} h^{r} [{i},{j}]")
                    assert reduced == y, f"{name} h^{r} [{i},{j}] mod {p}"


def seeded_integer_f(seed: int) -> dict:
    """Up to four words of length 1 to 3 in x1, x2 with integer coefficients, the first 1.

    The coefficient 1 keeps f nonconstant mod every p.
    """
    rng = random.Random(seed)
    words = [tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 4))]
    return {w: 1 if k == 0 else rng.choice([-3, -2, -1, 1, 2, 3]) for k, w in enumerate(words)}


@pytest.mark.parametrize("seed", range(1, 9))
def test_centralizer_dims_mod_p_are_at_least_the_dims_over_q(seed):
    terms = seeded_integer_f(seed)
    over_q = bergman_check(FreePoly(2, QQ, terms), 6).dims
    for p in (2, 3, 32003):
        dims = bergman_check(FreePoly(2, Field(p), terms), 6).dims
        assert len(dims) == len(over_q)
        assert all(a >= b for a, b in zip(dims, over_q)), (p, dims, over_q)


def free_text(terms: dict) -> str:
    """The expression of the free element sum c w over the (word w, coefficient c) of ``terms``."""
    return " + ".join(f"({c})*" + "*".join(f"x{g}" for g in w) for w, c in terms.items())


#: the integer inputs of the eval and pi goldens, then seeded integer f
FREE_INPUTS = ["7*x1^3-x2", "2x1 - x2^2", "x1*x2-x2*x1", "x1^2+x2", "x1*x2",
               *(free_text(seeded_integer_f(seed)) for seed in range(1, 9))]
FIELD_PRIMES = (2, 3, 5, 7, 32003)


def reduce_free(f: FreePoly, field: Field) -> FreePoly:
    return FreePoly(f.s, field, f.terms)


@pytest.mark.parametrize("f", FREE_INPUTS)
def test_eval_over_q_reduces_to_eval_over_fp(f):
    over_q = report("eval", "--f", f)
    for p in FIELD_PRIMES:
        g = reduce_free(over_q.poly, Field(p))
        expected = EvalReport(g, "-inf" if g.is_zero else str(g.degree()), len(g.terms))
        assert report("eval", "--f", f, "--field", f"fp:{p}") == expected, p


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("f", FREE_INPUTS)
def test_pi_over_q_reduces_to_pi_over_fp(f, n):
    over_q = report("pi", "--f", f, "--n", str(n))
    for p in FIELD_PRIMES:
        field = Field(p)
        image = GenericMatrix._of(n, CommPoly, field, {
            ij: CommPoly(field, e.terms) for ij, e in over_q.image.entries.items()})
        expected = PiReport(reduce_free(over_q.f, field), n, image)
        assert report("pi", "--f", f, "--n", str(n), "--field", f"fp:{p}") == expected, p


@pytest.mark.parametrize("n", [1, 2])
def test_al_over_q_is_al_over_fp(n):
    # S_2n vanishes over Z and the staircase product is a unit matrix E_1n, so
    # both verdicts hold mod every p; al --n 3 takes seconds and is in the goldens
    over_q = report("al", "--n", str(n))
    assert over_q.standard_vanishes and over_q.sharpness_nonzero
    for p in FIELD_PRIMES:
        assert report("al", "--n", str(n), "--field", f"fp:{p}") == over_q, p


#: the f, g of the pipeline jobs of the benchmark's seed-1 pass
PIPELINE_PAIRS = [
    ("-(x2) + 1", "-2*(x2)^2 + 2*(x2) + 1"),
    ("(x2*x2 + 2*x2)", "(x2*x2 + 2*x2)^2 + (x2*x2 + 2*x2) + 2"),
    ("-2*(x1 - x2) + 2", "(x1 - x2)^2 + (x1 - x2) + 2"),
    ("-2*(x1*x2 - 2*x2) + 2", "-(x1*x2 - 2*x2)^2 - (x1*x2 - 2*x2) + 2"),
]


def annihilator(f: str, g: str, n: int, field: Field, dmax: int):
    images = (pi_reduce(parse_free(text, 2, field), n) for text in (f, g))
    return find_annihilator(*images, dmax)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("f, g", PIPELINE_PAIRS, ids=["x2", "x2sq", "x1-x2", "x1x2"])
def test_annihilator_degree_mod_p_is_at_most_the_degree_over_q(f, g, n):
    over_q = annihilator(f, g, n, QQ, 2)
    assert over_q.found
    for p in (5, 7, 32003):
        result = annihilator(f, g, n, Field(p), over_q.total_degree)
        assert result.found and result.total_degree <= over_q.total_degree, p


#: the order of the Q star products; inputs of degree <= 3 have B_r = 0 past
#: r = 3, so every coefficient past it is 0 and this order covers every order
STAR_ORDER = 6
STAR_VARIABLES = [Variable.aux(name, i) for name in "xy" for i in (1, 2)]


def integer_terms(rng: random.Random) -> dict:
    """Up to four monomials of degree <= 3 in ``STAR_VARIABLES``, integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(STAR_VARIABLES)
            exps[v] = exps.get(v, 0) + 1
        terms[mono_from_dict(exps)] = rng.randint(-5, 5)
    return terms


def reduce_poly(a: CommPoly, field: Field) -> CommPoly:
    return CommPoly(field, a.terms)


def reduce_entries(m, field: Field) -> dict:
    """The nonzero entries of a matrix over Q with their coefficients reduced into F_p."""
    cells = {ij: reduce_poly(e, field) for ij, e in m.entries.items()}
    return {ij: e for ij, e in cells.items() if not e.is_zero}


# seeds whose star product reaches h^2: the others stop at h^0 or h^1
@pytest.mark.parametrize("seed", [3, 4, 5, 6, 10, 11])
def test_star_and_poisson_over_q_reduce_to_fp(seed):
    rng = random.Random(seed)
    a_terms, b_terms = integer_terms(rng), integer_terms(rng)
    tensor_entries = {(i, j): rng.choice([-2, -1, 1, 3]) for i in range(4) for j in range(i + 1, 4)}

    def run(field, order):
        ctx = StarContext(PoissonTensor(STAR_VARIABLES, tensor_entries, field), order)
        a, b = (FormalSeries.from_poly(CommPoly(field, t), order) for t in (a_terms, b_terms))
        product = star_mul(a, b, ctx)
        return (product, product - star_mul(b, a, ctx),
                poisson_bracket(a.coefficient(0), b.coefficient(0), ctx.tensor))

    product, commutator, bracket = run(QQ, STAR_ORDER)
    assert not product.coefficient(2).is_zero
    for p in (5, 7, 32003):
        field = Field(p)
        order = min(p - 1, STAR_ORDER)
        theirs = run(field, order)
        for ours, series in zip((product, commutator), theirs):
            for r in range(order + 1):
                assert reduce_poly(ours.coefficient(r), field) == series.coefficient(r), (p, r)
        assert reduce_poly(bracket, field) == theirs[2], p


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("f, g", PIPELINE_PAIRS, ids=["x2", "x2sq", "x1-x2", "x1x2"])
def test_lifts_at_the_star_generic_matrices_over_q_reduce_to_fp(f, g, n):
    def lifts(field, order):
        ctx = StarContext(entry_pairing_tensor(2, n, field), order)
        xs = star_generic(2, n, ctx)
        fhat, ghat = (parse_free(text, 2, field).evaluate_in_matrices(xs) for text in (f, g))
        assert (fhat * ghat - ghat * fhat).is_zero
        return fhat, ghat

    over_q = lifts(QQ, 4)
    for p in (5, 7, 32003):
        field = Field(p)
        for ours, theirs in zip(over_q, lifts(field, 4)):
            for a, b in zip(ours.coeffs, theirs.coeffs, strict=True):
                assert reduce_entries(a, field) == b.entries, p
