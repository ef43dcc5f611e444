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
from nclab.genmat import find_annihilator, pi_reduce
from nclab.rings import CommPoly, RationalFunction

PRIMES = (5, 7, 11, 32003)


@lru_cache(maxsize=None)
def diag_report(n: int, order: int, seed: int, field: str):
    """The decoded report of ``diag --n n --order order --seed seed --field field``."""
    argv = ["diag", "--n", str(n), "--order", str(order), "--seed", str(seed),
            "--field", field, "--json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return serialize.loads(buf.getvalue())[1]


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
