"""Reduction mod p as a checked homomorphism: F_p runs are fixed by Q runs.

Reduction Z_(p) -> F_p is a ring homomorphism and every engine computes with
ring operations, so for integer inputs the F_p result is the Q result
reduced mod p, for every p that divides no denominator of it.  The two runs
share no raw arithmetic (``Fraction`` against ints mod p).

diag: the seeded perturbation M has the same integers over both fields, so
the Q report's conjugator u and diagonal D, reduced entry by entry, equal
the F_p report.  A case whose denominator p divides is skipped, and pytest
counts the skips.
"""

import contextlib
import io
from functools import lru_cache

import pytest

from nclab import serialize
from nclab.cli import main
from nclab.errors import DivisionByZero
from nclab.fields import Field
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
