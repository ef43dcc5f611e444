"""Built-in re-checks raise explicitly, so ``python -O`` cannot strip them.

These tests avoid bare ``assert`` so that they keep their meaning when the
suite itself runs under ``python -O``; the subprocess tests run the CLI under
``-O`` whatever mode the suite runs in.
"""

import json
import os
import subprocess
import sys

import pytest

import nclab
from mutants import run_mutant
from nclab import centralizer, diagonalize, linalg, quantize
from nclab.centralizer import centralizer_basis
from nclab.cli import main
from nclab.fields import QQ
from nclab.freealg import parse_free
from nclab.genmat import AnnihilatorResult, find_annihilator, pi_reduce

ANNIHILATOR_ARGV = ["annihilator", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "2"]
CENTRALIZER_ARGV = ["centralizer", "--f", "x1*x2", "--d", "3"]


def _expect(condition, message):
    if not condition:
        pytest.fail(message)


def _never_verifies(self, f, g):
    return False


def _corrupt_absorb(real):
    """Echelon.absorb that adds the word x2 (column 1) to every later kernel vector."""

    def absorb(self, column):
        vec = real(self, column)
        if vec is not None and max(vec) > 1:
            vec[1] = vec.get(1, 0) + 1
        return vec

    return absorb


def _add_first_kernel_vector(real):
    """Echelon.absorb that adds the echelon's first kernel vector to every later one.

    The sums still lie in the kernel, so a centralizer basis still commutes
    with f and an annihilator still annihilates; only the reduced echelon
    form is lost.
    """
    firsts = {}  # id(echelon) -> (the echelon, held so its id stays unique; its first kernel vector)

    def absorb(self, column):
        vec = real(self, column)
        if vec is None:
            return None
        if id(self) not in firsts:
            firsts[id(self)] = (self, dict(vec))
        else:
            for k, v in firsts[id(self)][1].items():
                vec[k] = vec.get(k, 0) + v
        return vec

    return absorb


def _unreduce(monkeypatch):
    monkeypatch.setattr(linalg.Echelon, "absorb", _add_first_kernel_vector(linalg.Echelon.absorb))


def test_annihilator_recheck_raises(monkeypatch):
    monkeypatch.setattr(AnnihilatorResult, "verify", _never_verifies)
    f = pi_reduce(parse_free("x1", 1, QQ), 2)
    g = pi_reduce(parse_free("x1^2", 1, QQ), 2)
    with pytest.raises(ArithmeticError, match="annihilator failed re-evaluation"):
        find_annihilator(f, g, 2)


def test_annihilator_recheck_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(AnnihilatorResult, "verify", _never_verifies)
    code = main(ANNIHILATOR_ARGV)
    err = capsys.readouterr().err
    _expect(code == 2, f"exit {code}, expected 2")
    _expect("verification failed" in err, err)


def test_centralizer_recheck_raises(monkeypatch):
    monkeypatch.setattr(linalg.Echelon, "absorb", _corrupt_absorb(linalg.Echelon.absorb))
    with pytest.raises(ArithmeticError, match="does not commute"):
        centralizer_basis(parse_free("x1*x2", 2, QQ), 3)


def test_centralizer_recheck_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(linalg.Echelon, "absorb", _corrupt_absorb(linalg.Echelon.absorb))
    code = main(CENTRALIZER_ARGV)
    err = capsys.readouterr().err
    _expect(code == 2, f"exit {code}, expected 2")
    _expect("verification failed" in err, err)


# -- the kernel vectors must be in reduced echelon form: a sum of two of them
# still commutes with f (or still annihilates), so only this re-check sees it --

UNREDUCED_ANNIHILATOR_ARGV = ["annihilator", "--f", "1", "--g", "2", "--nmax", "2", "--dmax", "1"]


def test_centralizer_unreduced_kernel_raises(monkeypatch):
    f = parse_free("x1*x2", 2, QQ)
    expected = centralizer_basis(f, 3).basis
    _unreduce(monkeypatch)
    monkeypatch.setattr(linalg, "check_reduced", lambda kernel: None)
    corrupted = centralizer_basis(f, 3).basis
    _expect(corrupted != expected, "the mutant left the basis unchanged")
    monkeypatch.undo()
    _unreduce(monkeypatch)
    with pytest.raises(ArithmeticError, match="is not reduced"):
        centralizer_basis(f, 3)


def test_centralizer_unreduced_kernel_exits_2(monkeypatch, capsys):
    _unreduce(monkeypatch)
    code = main(CENTRALIZER_ARGV)
    err = capsys.readouterr().err
    _expect(code == 2, f"exit {code}, expected 2")
    _expect("verification failed" in err and "is not reduced" in err, err)


def test_annihilator_unreduced_kernel_raises(monkeypatch):
    # the first dependent layer holds two kernel vectors, u - 1 and v - 2
    f = pi_reduce(parse_free("1", 1, QQ), 2)
    g = pi_reduce(parse_free("2", 1, QQ), 2)
    _unreduce(monkeypatch)
    with pytest.raises(ArithmeticError, match="is not reduced"):
        find_annihilator(f, g, 1)


def test_annihilator_unreduced_kernel_exits_2(monkeypatch, capsys):
    _unreduce(monkeypatch)
    code = main(UNREDUCED_ANNIHILATOR_ARGV)
    err = capsys.readouterr().err
    _expect(code == 2, f"exit {code}, expected 2")
    _expect("verification failed" in err and "is not reduced" in err, err)


_OPTIMIZED_RUN = """
import sys
from nclab import linalg
from nclab.cli import main
from nclab.genmat import AnnihilatorResult
mutant, argv = sys.argv[1], sys.argv[2:]
real = linalg.Echelon.absorb
if mutant == "annihilator":
    AnnihilatorResult.verify = lambda self, f, g: False
elif mutant == "centralizer":
    def absorb(self, column):
        vec = real(self, column)
        if vec is not None and max(vec) > 1:
            vec[1] = vec.get(1, 0) + 1
        return vec
    linalg.Echelon.absorb = absorb
else:
    first = []
    def absorb(self, column):
        vec = real(self, column)
        if vec is not None and first:
            for k, v in first[0].items():
                vec[k] = vec.get(k, 0) + v
        elif vec is not None:
            first.append(dict(vec))
        return vec
    linalg.Echelon.absorb = absorb
raise SystemExit(main(argv))
"""


@pytest.mark.parametrize(
    "mutant, argv",
    [
        ("annihilator", ANNIHILATOR_ARGV),
        ("centralizer", CENTRALIZER_ARGV),
        ("reduced", CENTRALIZER_ARGV),
    ],
    ids=["annihilator", "centralizer", "reduced"],
)
def test_rechecks_survive_python_O(mutant, argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nclab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN, mutant, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    _expect(proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}")
    _expect("verification failed" in proc.stderr, proc.stderr)
    _expect("Traceback" not in proc.stderr, proc.stderr)


# -- diag: the verdict is the re-check u A = D u, not the reported form alone --

DIAG_ARGV = ["diag", "--n", "3", "--order", "2"]


def _doubled_sylvester(real):
    """solve_sylvester_diag returning 2T: a wrong conjugator whose steps stay consistent."""

    def solve(lam, rhs):
        t = real(lam, rhs)
        return t + t

    return solve


def _corrupt_sylvester(monkeypatch):
    monkeypatch.setattr(
        diagonalize, "solve_sylvester_diag", _doubled_sylvester(diagonalize.solve_sylvester_diag)
    )


@pytest.mark.parametrize("corrupt", [_corrupt_sylvester], ids=["sylvester"])
def test_diag_corrupted_step_fails(corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    code = main(DIAG_ARGV)
    out = capsys.readouterr().out
    _expect(code == 2, f"exit {code}, expected 2")
    _expect("off-diagonal vanishes through h^2: FAIL" in out, out)
    code = main(DIAG_ARGV + ["--json"])
    out = capsys.readouterr().out
    _expect(code == 2, f"exit {code}, expected 2")
    _expect(json.loads(out)["command"] == "diag", out)


_OPTIMIZED_DIAG_RUN = """
import sys
from nclab import diagonalize
from nclab.cli import main
real = diagonalize.solve_sylvester_diag
def solve(lam, rhs):
    t = real(lam, rhs)
    return t + t
diagonalize.solve_sylvester_diag = solve
raise SystemExit(main(sys.argv[1:]))
"""


def test_diag_verdict_survives_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nclab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_DIAG_RUN, *DIAG_ARGV],
        env=env, capture_output=True, text=True, timeout=120,
    )
    _expect(proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}")
    _expect("off-diagonal vanishes through h^2: FAIL" in proc.stdout, proc.stdout)
    _expect("Traceback" not in proc.stderr, proc.stderr)


# the dimension of K_d raised by one in the report: no witness is found, but the
# dims are no longer m // deg h + 1, so the single-generator test fails
SHIFTED_DIM = (
    "centralizer.py",
    "    dims = cb.dims",
    "    dims = cb.dims[:-1] + [cb.dims[-1] + 1]",
)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_centralizer_shifted_dim_fails(optimize, tmp_path):
    proc = run_mutant(tmp_path, *SHIFTED_DIM, CENTRALIZER_ARGV, optimize=optimize)
    _expect(proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}")
    _expect("single-generator test: FAIL" in proc.stdout, proc.stdout)
    _expect("Traceback" not in proc.stderr, proc.stderr)


# the recurrence C_r = sum u_k A_(r-k) - sum C_(r-k) u_k without its second sum.
# diag's perturbation has a zero diagonal, so C_1 = 0 and the first term the
# mutant drops is C_2 u_1, at order 3: the run must go to h^3 to see it.
DROPPED_CORRECTION = (
    "diagonalize.py",
    "            acc = acc + u[k] * a.coeffs[r - k] - c[r - k] * u[k]",
    "            acc = acc + u[k] * a.coeffs[r - k]",
)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_diag_dropped_correction_fails(optimize, tmp_path):
    argv = ["diag", "--n", "3", "--order", "3"]
    proc = run_mutant(tmp_path, *DROPPED_CORRECTION, argv, optimize=optimize)
    _expect(proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}")
    _expect("off-diagonal vanishes through h^3: FAIL" in proc.stdout, proc.stdout)
    _expect("Traceback" not in proc.stderr, proc.stderr)


# the subset recursion S_k = sum_i (-1)^(i-1) M_i S_(k-1)(others) with every
# term added.  Negating every sign would only multiply S_k by +-1 and keep it
# zero; dropping the alternation makes it a nonzero symmetric sum.
DROPPED_SIGN = (
    "genmat.py",
    "            total = total - term if i % 2 else total + term",
    "            total = total + term",
)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_al_dropped_sign_fails(optimize, tmp_path):
    proc = run_mutant(tmp_path, *DROPPED_SIGN, ["al", "--n", "2"], optimize=optimize)
    _expect(proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}")
    _expect("S_4 vanishes on 2x2 generic matrices: FAIL" in proc.stdout, proc.stdout)
    _expect("Traceback" not in proc.stderr, proc.stderr)


# -- pipeline: the quantized images of commuting free inputs must star-commute --

# the exponent e_i of d_i x^m = e_i x^(m - e_i) dropped from the Poisson
# operator: B_1 is no longer the bracket, and the lifts of 1/2*x1 + x2 and its
# square no longer star-commute at h^1
DROPPED_EXPONENT = ("quantize.py", "            cai = c * ei", "            cai = c")
HALF_PIPELINE_ARGV = ["bergman-pipeline", "--f", "1/2*x1+x2", "--g", "(1/2*x1+x2)^2",
                      "--nmax", "2", "--dmax", "2", "--order", "2"]
# the probe of the same commuting free inputs takes the same rule
HALF_PROBE_ARGV = ["probe", "--n", "2", "--f", "1/2*x1+x2", "--g", "(1/2*x1+x2)^2",
                   "--dmax", "2", "--order", "2"]
LIFT_FAIL = ("verification failed: the star commutator of the quantized images of commuting "
             "free inputs is nonzero at h^{r} (n={n})\n")


def _expect_lift_fail(proc, r, n):
    _expect(proc.returncode == 2, f"exit {proc.returncode}: {proc.stderr}")
    _expect(proc.stderr == LIFT_FAIL.format(r=r, n=n), proc.stderr)
    _expect(proc.stdout == "", proc.stdout)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_pipeline_dropped_exponent_fails(optimize, tmp_path):
    _expect_lift_fail(
        run_mutant(tmp_path, *DROPPED_EXPONENT, HALF_PIPELINE_ARGV, optimize=optimize), 1, 1)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_probe_of_commuting_free_inputs_dropped_exponent_fails(optimize, tmp_path):
    _expect_lift_fail(
        run_mutant(tmp_path, *DROPPED_EXPONENT, HALF_PROBE_ARGV, optimize=optimize), 1, 2)


# the Moyal weight of B_2 taken as 1/2^2 instead of 1/(2^2 2!): h^0 and h^1
# are untouched, and the lifts of x1*x2 - 2*x2 and its square plus 1 stop
# star-commuting at h^2, so --order decides the verdict
WRONG_SECOND_WEIGHT = (
    "quantize.py",
    "    return field.inverse(2**r * factorial(r))",
    "    return field.inverse(2**r if r == 2 else 2**r * factorial(r))",
)
WEIGHT_PIPELINE_ARGV = ["bergman-pipeline", "--f", "x1*x2 - 2*x2", "--g", "(x1*x2 - 2*x2)^2 + 1",
                        "--nmax", "2", "--dmax", "2"]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_pipeline_wrong_second_moyal_weight_fails_from_order_2(optimize, tmp_path):
    def run(order):
        argv = WEIGHT_PIPELINE_ARGV + ["--order", order]
        return run_mutant(tmp_path / order, *WRONG_SECOND_WEIGHT, argv, optimize=optimize)

    _expect_lift_fail(run("2"), 2, 2)
    order_1 = run("1")
    _expect(order_1.returncode == 0, f"exit {order_1.returncode}: {order_1.stderr}")
    _expect("the quantized images commute through the truncation order" in order_1.stdout,
            order_1.stdout)


# -- pipeline and probe: commuting inputs must have a zero degree-0 star part --


class _PlusEAtH0(quantize.StarSeries):
    """A lift whose product with a right factor has E added at h^0."""

    __slots__ = ()

    def __mul__(self, other):
        product = quantize.matrix_star(self, other, self.ctx)
        c0 = product.coeffs[0]
        return product._like((c0 + c0.identity_like(),) + product.coeffs[1:])


def _star_part_plus_e(real):
    """_size_outcome whose product f^ * g^ has E added at h^0, and so [f^, g^]_* too."""

    def size_outcome(fhat, ghat, *args):
        return real(_PlusEAtH0(fhat.ctx, fhat.coeffs), ghat, *args)

    return size_outcome


@pytest.mark.parametrize(
    "argv, n",
    [
        (["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "2"], 1),
        (["probe", "--n", "2", "--dmax", "3"], 2),
    ],
    ids=["bergman-pipeline", "probe"],
)
def test_nonzero_degree_zero_star_part_exits_2(argv, n, monkeypatch, capsys):
    monkeypatch.setattr(
        centralizer, "_size_outcome", _star_part_plus_e(centralizer._size_outcome)
    )
    code = main(argv)
    out, err = capsys.readouterr()
    _expect(code == 2, f"exit {code}, expected 2")
    # a fault of its own, not the trdeg-2 contradiction nor a trdeg-1 warning
    _expect((out, err) == ("", "verification failed: the star commutator of commuting images "
                               f"is nonzero at h^0 (n={n})\n"), out + err)


# [x1, x2] and its square vanish at size 1, where u is their least annihilator,
# but not at size 2, where it is u^2 - v
UNSTABLE = ["--f", "x1*x2 - x2*x1", "--g", "(x1*x2 - x2*x1)^2", "--dmax", "2"]


@pytest.mark.parametrize(
    "command, verdict",
    [
        ("annihilator", "identical across sizes: no"),
        ("bergman-pipeline", "verdict: FAIL: annihilators found at every size are not identical"),
    ],
    ids=["annihilator", "bergman-pipeline"],
)
def test_annihilators_that_differ_across_sizes_exit_2(command, verdict, capsys):
    code = main([command, *UNSTABLE, "--nmax", "2"])
    out = capsys.readouterr().out
    _expect(code == 2, f"exit {code}, expected 2")
    _expect(verdict in out, out)
    # one size is identical to itself
    code = main([command, *UNSTABLE, "--nmax", "1"])
    capsys.readouterr()
    _expect(code == 0, f"exit {code} with one size, expected 0")
