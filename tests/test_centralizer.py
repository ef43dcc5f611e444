"""Centralizer bases, the single-generator test, pipeline and probe."""

import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import free_commutator
from oracles import kernel as oracle_kernel
from oracles import rank as oracle_rank
from samples import random_commpoly
from nclab import centralizer, linalg, quantize, serialize
from nclab.errors import NotCommuting, ScalarInput
from nclab.fields import GF, QQ
from nclab.freealg import FreePoly, commutator, parse_free, word_key
from nclab.genmat import BivariatePoly, GenericMatrix, pi_reduce
from nclab.quantize import (
    StarContext,
    StarSeries,
    entry_pairing_tensor,
    quantize_lift,
    star_generic,
)
from nclab.rings import CommPoly
from nclab.centralizer import (
    CentralizerBasis,
    _words_up_to,
    bergman_check,
    bergman_pipeline,
    centralizer_basis,
    commuting_matrix_probe,
    diagonal_generic_pair,
)
from nclab.cli import main


def _all_words(s, d):
    out = [()]
    layer = [()]
    for _ in range(d):
        layer = [w + (g,) for w in layer for g in range(1, s + 1)]
        out.extend(layer)
    return out


def oracle_centralizer_kernel(raw_f: dict, s: int, m: int, p: int = 0):
    """Words of length <= m and the kernel of the dense [f, -] matrix on them, by plain Gauss."""
    words = _all_words(s, m)
    support = {}
    images = []
    for w in words:
        c = free_commutator(raw_f, {w: 1})
        images.append(c)
        for rw in c:
            support.setdefault(rw, len(support))
    rows = [[0] * len(words) for _ in support]
    for j, c in enumerate(images):
        for rw, v in c.items():
            rows[support[rw]][j] = int(v) if p else v
    return words, oracle_kernel(rows, len(words), p)


def oracle_centralizer_dim(f: FreePoly, m: int) -> int:
    """Exhaustive kernel dimension over all words of length <= m."""
    raw_f = dict(f.terms)
    return len(oracle_centralizer_kernel(raw_f, f.s, m)[1])


def _k(cb, m):
    """The basis of K_m: the elements of degree <= m."""
    return [b for b in cb.basis if b.degree() <= m]


class TestCentralizerBasis:
    def test_generator_in_two_variables(self):
        f = parse_free("x1", 2, QQ)
        cb = centralizer_basis(f, 3)
        assert cb.dims == [1, 2, 3, 4]
        powers = {parse_free(t, 2, QQ) for t in ["1", "x1", "x1^2", "x1^3"]}
        assert set(cb.basis) == powers

    def test_square_has_the_same_centralizer(self):
        f = parse_free("x1^2", 2, QQ)
        cb = centralizer_basis(f, 3)
        assert cb.dims == [1, 2, 3, 4]
        powers = {parse_free(t, 2, QQ) for t in ["1", "x1", "x1^2", "x1^3"]}
        assert set(cb.basis) == powers

    def test_product_word(self):
        f = parse_free("x1*x2", 2, QQ)
        cb = centralizer_basis(f, 2)
        assert cb.dims == [1, 1, 2]
        assert set(cb.basis) == {
            parse_free("1", 2, QQ),
            parse_free("x1*x2", 2, QQ),
        }

    def test_dims_match_exhaustive_oracle(self):
        for text, d in [("x1", 3), ("x1^2", 3), ("x1*x2", 3), ("x1+x2", 3), ("x2*x1*x2", 4)]:
            f = parse_free(text, 2, QQ)
            cb = centralizer_basis(f, d)
            for m in range(d + 1):
                assert len(_k(cb, m)) == oracle_centralizer_dim(f, m)

    def test_scalar_input_rejected(self):
        with pytest.raises(ScalarInput):
            centralizer_basis(parse_free("3", 2, QQ), 2)
        with pytest.raises(ScalarInput):
            centralizer_basis(FreePoly(2, QQ), 2)

    def test_every_basis_element_commutes(self):
        for text in ["x1", "x1^2", "x1*x2", "x1+x2", "x1^3+x1"]:
            f = parse_free(text, 2, QQ)
            cb = centralizer_basis(f, 4)
            for g in cb.basis:
                assert commutator(f, g).is_zero

    def test_basis_elements_pairwise_commute(self):
        for text in ["x1^2", "x1*x2", "x2*x1*x2"]:
            f = parse_free(text, 2, QQ)
            basis = centralizer_basis(f, 4).basis
            for a in basis:
                for b in basis:
                    assert commutator(a, b).is_zero

    def test_dims_nondecreasing(self):
        f = parse_free("x2*x1*x2", 2, QQ)
        dims = centralizer_basis(f, 5).dims
        assert all(a <= b for a, b in zip(dims, dims[1:]))

    def test_kernels_are_nested_spans(self):
        f = parse_free("x1*x2", 2, QQ)
        cb = centralizer_basis(f, 4)
        for m in range(4):
            lower, upper = _k(cb, m), _k(cb, m + 1)
            solved = linalg.solve_membership([p.terms for p in upper], [e.terms for e in lower], QQ)
            assert len(solved) == len(lower)
            for coeffs in solved:
                assert coeffs is not None

    def test_degree_zero_bound(self):
        cb = centralizer_basis(parse_free("x1", 2, QQ), 0)
        assert cb.dims == [1]
        assert cb.basis == [parse_free("1", 2, QQ)]


# The acceptance corpus and the benchmark's six centralizer word templates
# (with fixed coefficients).
ORACLE_CORPUS = [
    "x1", "x1^2", "x1^3 + x1", "x1 + x2", "x1*x2", "x2*x1*x2",
    "x1*x1*x2", "x1*x2 - 2*x1*x1*x2", "x1*x1 + 2*x1*x2 - 3*x2*x1*x2",
    "x1*x2*x1", "-2*x1*x2*x1", "3*x2*x1 - x1*x2*x2",
]


class TestCentralizerAgainstOracle:
    @pytest.mark.parametrize("p", [0, 7, 32003])
    def test_every_kernel_matches_the_dense_oracle(self, p):
        field = GF(p) if p else QQ
        d = 5
        for text in ORACLE_CORPUS:
            raw_f = dict(parse_free(text, 2, QQ).terms)
            cb = centralizer_basis(parse_free(text, 2, field), d)
            for m in range(d + 1):
                words, expected = oracle_centralizer_kernel(raw_f, 2, m, p)
                ours = [[b.terms.get(w, 0) for w in words] for b in _k(cb, m)]
                assert all(len(b.terms) == sum(1 for w in words if w in b.terms) for b in _k(cb, m))
                assert len(ours) == len(expected), (text, m)
                assert oracle_rank(ours, len(words), p) == len(ours)
                assert oracle_rank(ours + expected, len(words), p) == len(expected), (text, m)
                # _all_words is ascending graded-lex, so Gauss-Jordan gives the reduced form
                canonical = {FreePoly(2, field, dict(zip(words, vec))) for vec in expected}
                assert set(_k(cb, m)) == canonical, (text, m)


def test_one_letter_centralizer_needs_no_dense_elimination():
    # every word commutes with x1, so the kernel is as wide as the word space
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("rref called")):
        cb = centralizer_basis(parse_free("x1", 1, QQ), 1000)
    assert cb.dims == list(range(1, 1002))


def test_one_letter_dims_read_each_degree_once():
    # K_d has d + 1 elements; dims must not filter the basis once per degree
    d, real, calls = 300, FreePoly.degree, []

    def degree(self):
        calls.append(self)
        return real(self)

    with mock.patch.object(FreePoly, "degree", degree):
        dims = centralizer_basis(parse_free("x1", 1, QQ), d).dims
    assert dims == list(range(1, d + 2))
    assert len(calls) <= 2 * (d + 1), len(calls)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_words_come_in_absorb_order(s):
    # ascending length, descending lex within a length: reversed graded-lex
    for d in range(6):
        assert _words_up_to(s, d) == sorted(_all_words(s, d), key=word_key)[::-1], d


class TestBergmanCheck:
    def test_square(self):
        rep = bergman_check(parse_free("x1^2", 2, QQ), 4)
        assert rep.passed
        assert rep.generator == parse_free("x1", 2, QQ)

    def test_sum_of_generators(self):
        rep = bergman_check(parse_free("x1 + x2", 2, QQ), 3)
        assert rep.passed
        assert rep.generator == parse_free("x1 + x2", 2, QQ)

    def test_cubic_plus_linear(self):
        rep = bergman_check(parse_free("x1^3 + x1", 2, QQ), 4)
        assert rep.passed
        assert rep.generator == parse_free("x1", 2, QQ)

    def test_dims_formula_on_pass(self):
        for text, d in [("x1^2", 5), ("x1*x2", 5), ("x2*x1*x2", 5)]:
            rep = bergman_check(parse_free(text, 2, QQ), d)
            assert rep.passed
            k = rep.generator.degree()
            assert rep.dims == [m // k + 1 for m in range(d + 1)]

    def test_constant_shift_is_stripped(self):
        # centralizer elements may carry constants; the generator must not
        rep = bergman_check(parse_free("x1^2 + x1 + 1", 2, QQ), 4)
        assert rep.passed
        assert rep.generator.constant_value() == QQ.scalar(0)


class TestBergmanFail:
    """The FAIL path, reached by adding one element to the basis of C(x1^2) at d = 4.

    A second least-degree element (x2) and a higher-degree one (x1*x2*x1)
    each lie outside the span of the powers of x1.
    """

    ARGV = ["centralizer", "--f", "x1^2", "--d", "4"]

    @pytest.fixture(params=["x2", "x1*x2*x1"])
    def extra(self, request, monkeypatch):
        """Patch centralizer_basis to add the element, keeping degrees descending."""
        extra = parse_free(request.param, 2, QQ)
        real = centralizer.centralizer_basis

        def patched(f, d):
            basis = list(real(f, d).basis)
            at = next(i for i, b in enumerate(basis) if b.degree() < extra.degree())
            basis.insert(at, extra)
            return CentralizerBasis(f, d, basis)

        monkeypatch.setattr(centralizer, "centralizer_basis", patched)
        return extra

    def test_generator_and_witness(self, extra, monkeypatch):
        real, calls = linalg.solve_membership, []

        def solve_membership(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "solve_membership", solve_membership)
        rep = bergman_check(parse_free("x1^2", 2, QQ), 4)
        assert rep.passed is False
        assert rep.generator == parse_free("x1", 2, QQ)
        assert rep.witness == extra
        assert len(calls) == 1

    def test_cli_exits_2_with_the_witness(self, extra, capsys):
        assert main(self.ARGV) == 2
        assert "single-generator test: FAIL" in capsys.readouterr().out.splitlines()
        assert main(self.ARGV + ["--json"]) == 2
        doc, rep = serialize.loads(capsys.readouterr().out)
        assert doc["report"]["passed"] is False
        assert rep.witness == extra
        assert serialize.encode(rep.witness) == doc["report"]["witness"]


class TestPipeline:
    def _ctx(self, s, nmax, order=2, field=QQ):
        return StarContext(entry_pairing_tensor(s, nmax, field), order)

    def test_commuting_pair(self):
        f = parse_free("x1", 2, QQ)
        g = parse_free("x1^2 + x1", 2, QQ)
        rep = bergman_pipeline(f, g, 2, 3, self._ctx(2, 2))
        assert rep.commute
        expected = BivariatePoly(QQ, {(2, 0): 1, (1, 0): 1, (0, 1): -1})  # u^2 + u - v
        for o in rep.outcomes:
            fn, gn = pi_reduce(f, o.n), pi_reduce(g, o.n)
            assert fn * gn == gn * fn
            assert o.annihilator.found and o.annihilator.poly == expected
            assert o.star_c0_zero and o.star_c1_zero
        assert rep.stability.identical
        assert serialize.encode(rep)["trdeg_verdict"] == "1"

    def test_each_annihilator_is_computed_once(self, monkeypatch):
        from nclab import genmat

        calls = []
        real = genmat.find_annihilator

        def counting(fn, gn, dmax):
            calls.append(fn.n)
            return real(fn, gn, dmax)

        monkeypatch.setattr(genmat, "find_annihilator", counting)
        f = parse_free("x1", 2, QQ)
        g = parse_free("x1^2 + x1", 2, QQ)
        rep = bergman_pipeline(f, g, 3, 2, self._ctx(2, 3))
        assert calls == [1, 2, 3]
        assert [r.n for r in rep.stability.results] == [1, 2, 3]
        assert rep.stability.results == [o.annihilator for o in rep.outcomes]
        assert rep.stability.all_found and rep.stability.identical

    def test_noncommuting_pair_stops(self):
        f = parse_free("x1", 2, QQ)
        g = parse_free("x2", 2, QQ)
        rep = bergman_pipeline(f, g, 2, 3, self._ctx(2, 2))
        assert not rep.commute
        assert rep.outcomes == []
        assert "do not commute" in rep.conclusion

    def test_equal_elements(self):
        f = parse_free("x1", 2, QQ)
        rep = bergman_pipeline(f, f, 2, 2, self._ctx(2, 2))
        expected = BivariatePoly(QQ, {(1, 0): 1, (0, 1): -1})
        assert all(o.annihilator.poly == expected for o in rep.outcomes)
        assert serialize.encode(rep)["trdeg_verdict"] == "1"

    def test_consistency_invariant_on_commuting_pairs(self):
        # pairs built from powers of x1 only touch generator-1 variables, so
        # every bracket of entries vanishes and the star commutator is 0
        pairs = [("x1", "x1^3"), ("x1^2", "x1^2 + 1"), ("x1^2 + x1", "x1")]
        for ftext, gtext in pairs:
            f, g = parse_free(ftext, 2, QQ), parse_free(gtext, 2, QQ)
            rep = bergman_pipeline(f, g, 2, 4, self._ctx(2, 2))
            for o in rep.outcomes:
                fn, gn = pi_reduce(f, o.n), pi_reduce(g, o.n)
                assert fn * gn == gn * fn
                assert o.star_c0_zero and o.star_c1_zero
                assert o.annihilator.found


def _probe(f, g, dmax, ctx):
    """The probe of two commuting matrices, lifted canonically."""
    return commuting_matrix_probe(quantize_lift(f, ctx), quantize_lift(g, ctx), dmax)


class TestProbe:
    def test_diagonal_generic_pair_shows_the_mechanism(self):
        f, g, tensor = diagonal_generic_pair(2, QQ)
        ctx = StarContext(tensor, 2)
        rep = _probe(f, g, 3, ctx)
        (o,) = rep.outcomes
        assert not o.annihilator.found
        assert o.star_c0_zero
        assert not o.star_c1_zero
        assert o.star_linear_part == GenericMatrix.identity(2, QQ)
        assert ">=2" in serialize.encode(rep)["trdeg_verdict"]
        assert "contradiction" in rep.conclusion

    def test_pi_image_pair_stays_tame(self):
        f = pi_reduce(parse_free("x1", 1, QQ), 1)
        g = pi_reduce(parse_free("x1^2", 1, QQ), 1)
        ctx = StarContext(entry_pairing_tensor(1, 1, QQ), 2)
        rep = _probe(f, g, 3, ctx)
        (o,) = rep.outcomes
        assert o.annihilator.poly == BivariatePoly(QQ, {(2, 0): 1, (0, 1): -1})
        assert o.star_c0_zero and o.star_c1_zero
        assert serialize.encode(rep)["trdeg_verdict"] == "1"

    def test_equal_matrices(self):
        f, _, tensor = diagonal_generic_pair(2, QQ)
        ctx = StarContext(tensor, 2)
        rep = _probe(f, f, 2, ctx)
        (o,) = rep.outcomes
        assert o.annihilator.poly == BivariatePoly(QQ, {(1, 0): 1, (0, 1): -1})
        assert o.star_c1_zero

    def test_noncommuting_rejected(self):
        from nclab.genmat import make_generic

        x1, x2 = make_generic(2, 2, QQ)
        ctx = StarContext(entry_pairing_tensor(2, 2, QQ), 2)
        with pytest.raises(NotCommuting):
            _probe(x1, x2, 2, ctx)

    def test_noncommuting_lifts_are_refused_before_any_star_product(self, monkeypatch):
        # x1^3*x2 and x2*x1^2 do not commute at size 3; the search refuses their h^0
        # coefficients, so the star commutator, which walks every order, is never formed
        ctx = StarContext(entry_pairing_tensor(2, 3, QQ), 2)
        xs = star_generic(2, 3, ctx)
        f, g = (parse_free(t, 2, QQ).evaluate_in_matrices(xs) for t in ("x1^3*x2", "x2*x1^2"))

        def star(*_):
            raise AssertionError("the star commutator was formed")

        monkeypatch.setattr(quantize, "matrix_star", star)
        with pytest.raises(NotCommuting):
            commuting_matrix_probe(f, g, 1)

    def test_eq1_diagonal_reproduced_at_size_3(self):
        f, g, tensor = diagonal_generic_pair(3, QQ)
        ctx = StarContext(tensor, 2)
        rep = _probe(f, g, 2, ctx)
        (o,) = rep.outcomes
        assert o.star_linear_part == GenericMatrix.identity(3, QQ)


def _traces(fhat, ghat):
    """c1 of [fhat, ghat]_* and its traces tau_k = tr(c1 f^k) as the pipeline forms them."""
    c1 = (fhat * ghat - ghat * fhat).coefficient(1)
    return c1, centralizer._star_traces(c1, fhat.coefficient(0))


def _oracle_traces(c1, f):
    """tr(c1 f^k) for k < n from whole matrix products."""
    out, fk = [], f.identity_like()
    for _ in range(f.n):
        out.append(sum((c1 * fk).diagonal_entries(), CommPoly.zero(f.field)))
        fk = fk * f
    return out


def _power_sums(xs):
    """[sum_i x_i^k for k < n]: Eq. (1)'s tau_k = sum_i {x_i, y_i} x_i^k with every bracket 1."""
    return [sum((x**k for x in xs), CommPoly.zero(xs[0].field)) for k in range(len(xs))]


def _lift(c0, c1, ctx):
    return StarSeries(ctx, [c0, c1] + [c0.zeros_like()] * (ctx.order - 1))


def _conjugated_pair(n, field, rng):
    """P diag(x) P^-1 and P diag(y) P^-1 for a random unitriangular integer P."""
    f, g, tensor = diagonal_generic_pair(n, field)
    zero = CommPoly.zero(field)
    nil = GenericMatrix([[CommPoly(field, {(): rng.randint(-3, 3)}) if j > i else zero
                          for j in range(n)] for i in range(n)])
    e = f.identity_like()
    inverse, term = e, e
    for _ in range(n - 1):  # (E + N)^-1 = sum (-N)^k, N nilpotent
        term = -(term * nil)
        inverse = inverse + term
    p = e + nil
    return p * f * inverse, p * g * inverse, tensor


class TestStarTrace:
    """tau_k = tr(c1 f^k) of the star commutator's h-coefficient c1 (Eq. (1))."""

    def test_pairing_diagonals(self):
        f, g, tensor = diagonal_generic_pair(2, QQ)
        ctx = StarContext(tensor, 2)
        c1, tau = _traces(quantize_lift(f, ctx), quantize_lift(g, ctx))
        assert c1 == GenericMatrix.identity(2, QQ)
        assert tau == _power_sums(f.diagonal_entries()) == _oracle_traces(c1, f)
        assert tau[0] == CommPoly(QQ, {(): 2})

    def test_dependent_pair_vanishes(self):
        f, _, tensor = diagonal_generic_pair(2, QQ)
        ctx = StarContext(tensor, 2)
        g = f * f
        c1, tau = _traces(quantize_lift(f, ctx), quantize_lift(g, ctx))
        assert c1.is_zero
        assert tau == [CommPoly.zero(QQ)] * 2

    def test_size_one(self):
        f, g, tensor = diagonal_generic_pair(1, QQ)
        ctx = StarContext(tensor, 2)
        _, tau = _traces(quantize_lift(f, ctx), quantize_lift(g, ctx))
        assert tau == [CommPoly.one(QQ)]

    def test_offdiagonal_perturbations_leave_the_trace(self):
        # h * (off-diagonal) blocks in both lifts make c1 non-diagonal, and
        # its traces against the powers of f stay the power sums
        f, g, tensor = diagonal_generic_pair(2, QQ)
        ctx = StarContext(tensor, 2)
        zero = CommPoly.zero(QQ)
        y1, x2 = g.entry(1, 1), f.entry(2, 2)
        fhat = _lift(f, GenericMatrix([[zero, y1], [y1, zero]]), ctx)
        ghat = _lift(g, GenericMatrix([[zero, x2], [x2, zero]]), ctx)
        c1, tau = _traces(fhat, ghat)
        assert not c1.is_diagonal()
        assert tau == _power_sums(f.diagonal_entries()) == _oracle_traces(c1, f)

    def test_nondiagonal_leading_term(self):
        # tau needs no eigenbasis: conjugating the pair by a constant P keeps it
        f, g, tensor = _conjugated_pair(3, QQ, random.Random(7))
        ctx = StarContext(tensor, 2)
        assert not f.is_diagonal() and f * g == g * f
        c1, tau = _traces(quantize_lift(f, ctx), quantize_lift(g, ctx))
        xs = diagonal_generic_pair(3, QQ)[0].diagonal_entries()
        assert tau == _power_sums(xs) == _oracle_traces(c1, f)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
    def test_diagonal_pair_traces_are_the_power_sums(self, n, field):
        f, g, tensor = diagonal_generic_pair(n, field)
        rep = _probe(f, g, 1, StarContext(tensor, 1))
        (o,) = rep.outcomes
        assert o.tau == _power_sums(f.diagonal_entries())
        assert o.tau[0].constant_value().value == (n % field.p if field.p else n)
        assert not o.tau_zero and "contradiction" in rep.conclusion

    @settings(max_examples=30)
    @given(st.sampled_from([2, 3]), st.sampled_from([QQ, GF(7)]), st.integers(0, 10**6))
    def test_lift_perturbations_leave_tau(self, n, field, seed):
        rng = random.Random(seed)
        f, g, tensor = _conjugated_pair(n, field, rng)
        ctx = StarContext(tensor, 1)
        variables = list(tensor.variables)

        def perturbation():
            return GenericMatrix([[random_commpoly(rng, variables, field, 2, 2) for _ in range(n)]
                                  for _ in range(n)])

        _, tau = _traces(quantize_lift(f, ctx), quantize_lift(g, ctx))
        moved, tau_moved = _traces(_lift(f, perturbation(), ctx), _lift(g, perturbation(), ctx))
        xs = diagonal_generic_pair(n, field)[0].diagonal_entries()
        assert tau == tau_moved == _power_sums(xs) == _oracle_traces(moved, f)


class TestPrimeField:
    def test_centralizer_over_f7(self):
        f7 = GF(7)
        rep = bergman_check(parse_free("x1^2", 2, f7), 4)
        assert rep.passed
        assert rep.generator == parse_free("x1", 2, f7)

    def test_pipeline_over_f7(self):
        f7 = GF(7)
        f = parse_free("x1", 2, f7)
        g = parse_free("x1^2 + 1", 2, f7)
        ctx = StarContext(entry_pairing_tensor(2, 2, f7), 2)
        rep = bergman_pipeline(f, g, 2, 3, ctx)
        assert serialize.encode(rep)["trdeg_verdict"] == "1"
        assert rep.stability.identical


def test_pipeline_demo_script_runs():
    # the one script that drives bergman_check and the pipeline end to end
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "pipeline_demo.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "generated by" in proc.stdout
