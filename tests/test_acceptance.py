"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s -q`` to see the per-criterion
lines.  Everything is exact; the asserted runtime bounds are the stated ones.
"""

import json
import os
import random
import time

import pytest

from oracles import inverse_unitriangular, poisson_oracle
from samples import lifted_commutator, random_commpoly
from nclab.cli import main
from nclab.errors import CharacteristicTooSmall
from nclab.fields import GF, QQ
from nclab.freealg import parse_free
from nclab.genmat import (
    GenericMatrix,
    annihilator_stability,
    make_generic,
    standard_identity,
)
from nclab.quantize import (
    FormalSeries,
    StarContext,
    entry_pairing_tensor,
    pairing_tensor,
    star_mul,
    verify_correspondence,
)
from nclab.rings import CommPoly, RationalFunction, Variable
from nclab.centralizer import (
    bergman_check,
    bergman_pipeline,
    commuting_matrix_probe,
    diagonal_generic_pair,
)
from nclab.diagonalize import SeriesFieldMatrix, successive_diagonalize
from nclab.quantize import quantize_lift

BERGMAN_CORPUS = ["x1", "x1^2", "x1^3 + x1", "x1 + x2", "x1*x2", "x2*x1*x2"]
STABILITY_PAIRS = [("x1", "x1^2 + 1"), ("x1", "x1^3"), ("x1^2 + x1", "x1")]


class _Clock:
    def __init__(self, number, description, bound):
        self.number = number
        self.description = description
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[acceptance] criterion {self.number}: {status} "
            f"({elapsed:.2f}s, bound {self.bound}s) {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.bound, (
                f"criterion {self.number} exceeded its runtime bound: "
                f"{elapsed:.2f}s >= {self.bound}s"
            )
        return False


def _pairing_context(field, order):
    xs = [Variable.aux("x", i) for i in (1, 2)]
    ys = [Variable.aux("y", i) for i in (1, 2)]
    return StarContext(pairing_tensor(xs, ys, field), order), xs + ys


def test_criterion_1_standard_identity(capsys):
    with _Clock(1, "degree-4 standard identity on 2x2 generic matrices", 10):
        code = main(["al", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "S_4 vanishes on 2x2 generic matrices: PASS" in out
        assert "S_3 on (E11, E12, E22) is nonzero: PASS" in out
        # the same facts, checked directly: full symbolic expansion
        assert standard_identity(make_generic(4, 2, QQ)).is_zero
        assert not standard_identity(_staircase(2)).is_zero


def _staircase(n):
    """E11, E12, E22, E23, ..., Enn: 2n - 1 matrix units."""
    cells = [(k, k) for k in range(1, n + 1)] + [(k, k + 1) for k in range(1, n)]
    return [GenericMatrix.unit(n, i, j, QQ) for i, j in sorted(cells)]


def test_criterion_1_slow_standard_identity_3x3():
    with _Clock("1 (3x3)", "degree-6 standard identity on 3x3 generic matrices", 600):
        assert standard_identity(make_generic(6, 3, QQ)).is_zero
        assert not standard_identity(_staircase(3)).is_zero


def _run_bergman_corpus(field):
    for text in BERGMAN_CORPUS:
        rep = bergman_check(parse_free(text, 2, field), 5)
        assert rep.passed, f"single-generator test failed for {text}"
        k = rep.generator.degree()
        assert rep.dims == [m // k + 1 for m in range(6)], f"dimension table off for {text}"


def test_criterion_2_bergman_corpus():
    with _Clock(2, "centralizer corpus is singly generated with the right dims", 60):
        _run_bergman_corpus(QQ)


def test_criterion_3_correspondence_suite():
    with _Clock(3, "h-coefficient of the star commutator is the bracket, 200 pairs", 30):
        ctx, variables = _pairing_context(QQ, 2)
        rng = random.Random(1729)
        for _ in range(200):
            a = random_commpoly(rng, variables, QQ, max_degree=3, max_terms=4)
            b = random_commpoly(rng, variables, QQ, max_degree=3, max_terms=4)
            rep = verify_correspondence(a, b, ctx, lifted_commutator(a, b, ctx))
            assert rep.holds
            assert rep.star_linear_part == poisson_oracle(a, b, ctx.tensor)


def test_criterion_4_star_associativity():
    with _Clock(4, "star product associativity, 100 triples at order 3", 60):
        ctx, variables = _pairing_context(QQ, 3)
        rng = random.Random(1730)
        for _ in range(100):
            sa, sb, sc = (
                FormalSeries.from_poly(
                    random_commpoly(rng, variables, QQ, max_degree=2, max_terms=3), 3
                )
                for _ in range(3)
            )
            assert star_mul(star_mul(sa, sb, ctx), sc, ctx) == star_mul(
                sa, star_mul(sb, sc, ctx), ctx
            )


def test_criterion_5_diagonal_formula():
    with _Clock(5, "first-order star commutator of paired diagonals is the identity", 5):
        for n in (2, 3):
            f, g, tensor = diagonal_generic_pair(n, QQ)
            ctx = StarContext(tensor, 2)
            fhat, ghat = quantize_lift(f, ctx), quantize_lift(g, ctx)
            comm = fhat * ghat - ghat * fhat
            assert comm.coefficient(0).is_zero
            linear_part = comm.coefficient(1)
            xs, ys = f.diagonal_entries(), g.diagonal_entries()
            # Eq. (1): the diagonal is the brackets of the eigenvalues
            assert linear_part.diagonal_entries() == [
                poisson_oracle(x, y, tensor) for x, y in zip(xs, ys)
            ]
            assert linear_part == GenericMatrix.identity(n, QQ)
            # and its traces against the powers of f are their power sums
            (o,) = commuting_matrix_probe(fhat, ghat, 1).outcomes
            assert o.star_linear_part == linear_part
            assert o.tau == [sum((x**k for x in xs), CommPoly.zero(QQ)) for k in range(n)]
            assert not o.tau_zero


def test_criterion_6_sylvester_recursion():
    with _Clock(6, "order-2 diagonalization over the eigenvalue fraction field", 10):
        zero = RationalFunction.zero(QQ)
        lam = [
            RationalFunction.from_poly(CommPoly.variable(Variable.aux("lam", i), QQ))
            for i in (1, 2, 3)
        ]
        rng = random.Random(1729)
        m = GenericMatrix([
            [
                RationalFunction.from_poly(CommPoly(QQ, {(): rng.randint(-5, 5)}))
                if i != j
                else zero
                for j in range(3)
            ]
            for i in range(3)
        ])
        assert not m.is_zero
        a0 = GenericMatrix.diagonal(lam)
        zmat = GenericMatrix.zeros(3, QQ, RationalFunction)
        series = SeriesFieldMatrix([a0, m, zmat])
        rep = successive_diagonalize(series)
        assert rep.verify(series)  # u A = D u through h^2, recomputed from A
        conj = rep.conjugator * series * inverse_unitriangular(rep.conjugator)
        assert all(c.is_diagonal() for c in conj.coeffs[:3])  # off-diagonal = 0 mod h^3
        assert rep.diagonal.coeffs[0].diagonal_entries() == lam


def _run_stability(field):
    for ftext, gtext in STABILITY_PAIRS:
        f, g = parse_free(ftext, 2, field), parse_free(gtext, 2, field)
        rep = annihilator_stability(f, g, 3, 3)
        assert rep.all_found
        assert rep.identical, f"annihilators differ across sizes for ({ftext}, {gtext})"


def test_criterion_7_annihilator_stability():
    with _Clock(7, "identical minimal annihilators at sizes 1, 2, 3", 60):
        _run_stability(QQ)


def test_criterion_8_contradiction_mechanism():
    with _Clock(8, "trdeg-2 probe shows nonzero star commutator; free pairs stay zero", 60):
        f, g, tensor = diagonal_generic_pair(2, QQ)
        ctx = StarContext(tensor, 2)
        probe = commuting_matrix_probe(quantize_lift(f, ctx), quantize_lift(g, ctx), 3)
        (outcome,) = probe.outcomes
        assert not outcome.annihilator.found
        assert not outcome.star_c1_zero
        for ftext, gtext in STABILITY_PAIRS:
            ctx = StarContext(entry_pairing_tensor(2, 2, QQ), 2)
            rep = bergman_pipeline(
                parse_free(ftext, 2, QQ), parse_free(gtext, 2, QQ), 2, 3, ctx
            )
            assert rep.commute
            for o in rep.outcomes:
                assert o.annihilator.found
                assert o.star_c1_zero


def test_criterion_9_characteristic_p(capsys):
    with _Clock(9, "criteria 1, 2, 7 over GF(7); star order guard fails fast", 120):
        f7 = GF(7)
        assert standard_identity(make_generic(4, 2, f7)).is_zero
        units = [
            GenericMatrix.unit(2, 1, 1, f7),
            GenericMatrix.unit(2, 1, 2, f7),
            GenericMatrix.unit(2, 2, 1, f7),
        ]
        assert not standard_identity(units).is_zero
        _run_bergman_corpus(f7)
        _run_stability(f7)
        with pytest.raises(CharacteristicTooSmall):
            StarContext(entry_pairing_tensor(2, 1, f7), 7)
        code = main(
            ["star", "--a", "x1", "--b", "x2", "--field", "fp:7", "--order", "7"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "characteristic-too-small" in err


_DETERMINISM_BATTERY = [
    ["eval", "--f", "2x1 - x2^2", "--json"],
    ["commute", "--f", "x1", "--g", "x1^3", "--json"],
    ["pi", "--f", "x1*x2", "--n", "2", "--json"],
    ["al", "--n", "2", "--json"],
    ["annihilator", "--f", "x1", "--g", "x1^2 + 1", "--nmax", "3", "--dmax", "3", "--json"],
    ["star", "--a", "x1", "--b", "x2", "--json"],
    ["poisson", "--a", "x1", "--b", "x2", "--json"],
    ["diag", "--n", "3", "--order", "2", "--json"],
    ["centralizer", "--f", "x2*x1*x2", "--d", "5", "--json"],
    ["bergman-pipeline", "--f", "x1", "--g", "x1^2 + x1", "--nmax", "2", "--dmax", "3", "--json"],
    ["probe", "--n", "2", "--dmax", "3", "--json"],
    ["centralizer", "--f", "x1^2", "--d", "4", "--field", "fp:7", "--json"],
]


#: the recorded report (tests/golden/) of each battery line, in battery order
_BATTERY_GOLDENS = [
    "eval-2x1-x2sq-q.json",
    "commute-x1-x1cube-q.json",
    "pi-x1x2-n2-q.json",
    "al-n2-q.json",
    "annihilator-x1-x1sq1.json",
    "star-x1-x2-q.json",
    "poisson-x1-x2-q.json",
    "diag-n3-o2-q.json",
    "centralizer-x2x1x2-q-d5.json",
    "bergman-pipeline-x1-x1sqx1.json",
    "probe-n2-d3.json",
    "centralizer-x1sq-fp7-d4.json",
]
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_criterion_10_battery_matches_its_goldens(capsys):
    # repeated runs agreeing is not enough: each line keeps its bytes across changes
    for argv, name in zip(_DETERMINISM_BATTERY, _BATTERY_GOLDENS, strict=True):
        assert main(argv) == 0
        with open(os.path.join(_GOLDEN, name), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read(), name


@pytest.mark.parametrize("argv", [
    *(argv[:-1] for argv in _DETERMINISM_BATTERY if argv[0] in ("bergman-pipeline", "probe")),
    # a seed-1 job of the benchmark's pipeline workload
    ["bergman-pipeline", "--f=-2*(x1*x2 - 2*x2) + 2",
     "--g=-(x1*x2 - 2*x2)^2 - (x1*x2 - 2*x2) + 2", "--nmax", "2", "--dmax", "2"],
], ids=["pipeline", "probe", "benchmark-pipeline"])
def test_the_truncation_order_changes_only_the_bounds(argv, capsys):
    # both reports read only h^0 and h^1 of the star commutator, which every order >= 1 holds
    docs = []
    for order in (1, 3):
        assert main([*argv, "--order", str(order), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"].pop("order") == order
        docs.append(doc)
    assert docs[0] == docs[1]


def test_criterion_10_determinism(capsys):
    with _Clock(10, "the full JSON battery is byte-identical across runs", 300):
        outputs = []
        for argv in _DETERMINISM_BATTERY:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)  # exactly one well-formed document
            outputs.append(out)
        for argv, expected in zip(_DETERMINISM_BATTERY, outputs):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0
            assert out == expected, f"nondeterministic output for {argv}"
