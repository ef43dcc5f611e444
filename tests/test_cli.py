"""End-to-end CLI behavior: flags, exit statuses, JSON output, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import nclab
from nclab.cli import (
    _COMMON,
    _REQUIRED,
    COMMANDS,
    MAX_CENTRALIZER_PAIRS,
    MAX_CENTRALIZER_WORDS,
    MAX_COMMUTE_PAIRS,
    MAX_DIAG_N,
    MAX_DIAG_ORDER_AT_N,
    MAX_MATRIX_ENTRIES,
    MAX_NMAX,
    MAX_PROBE_SEARCH_TERMS,
    MAX_STAR_ORDER,
    _check_sizes,
    main,
    parse,
)
from nclab import centralizer, freealg, genmat, rings, serialize
from nclab.genmat import MAX_IMAGE_TERMS, _probe_search_terms, image_terms
from nclab.fields import GF, QQ, int_digits
from nclab.freealg import MAX_CENTRALIZER_LETTERS, MAX_NESTING, parse_free

SUBCOMMANDS = [
    "eval",
    "commute",
    "pi",
    "al",
    "annihilator",
    "star",
    "poisson",
    "diag",
    "centralizer",
    "bergman-pipeline",
    "probe",
]


# the one-line usages of nclab and of eval
USAGE = (
    "usage: nclab [-h] "
    "{eval,commute,pi,al,annihilator,star,poisson,diag,centralizer,bergman-pipeline,probe} ..."
)
EVAL_USAGE = "usage: nclab eval [-h] --f F [--s S] [--field FIELD] [--json] [--out OUT]"


FUZZ_EXPRESSIONS = st.lists(
    st.sampled_from(["x1", "x2", *"0123456789", *"+-*^/()"]), max_size=12
).map("".join)

# well-formed sums of products, so that fuzzed runs also reach the computation
_FUZZ_TERMS = st.lists(
    st.sampled_from(["x1", "x2", "3", "-x2", "x1^2", "(x1+x2)", "(x1-1)^2"]), min_size=1, max_size=3
).map("*".join)
FUZZ_ANY = st.one_of(FUZZ_EXPRESSIONS, st.lists(_FUZZ_TERMS, min_size=1, max_size=3).map("+".join))

# command -> (expression flags, {integer flag: (lowest, highest)}).  Each size
# range starts at the smallest value the command accepts, so the edge is fuzzed.
FUZZ_COMMANDS = {
    "commute": (("f", "g"), {}),
    "pi": (("f",), {"n": (1, 2)}),
    "centralizer": (("f",), {"d": (0, 2)}),
    "annihilator": (("f", "g"), {"nmax": (1, 2), "dmax": (0, 2)}),
    "star": (("a", "b"), {"order": (0, 2)}),
    "poisson": (("a", "b"), {}),
    "bergman-pipeline": (("f", "g"), {"nmax": (1, 2), "dmax": (0, 2), "order": (0, 2)}),
    "probe": (("f", "g"), {"n": (1, 2), "dmax": (0, 2), "order": (0, 2)}),
    "diag": ((), {"n": (1, 3), "order": (0, 2), "seed": (-(2**31), 2**31)}),
}


def _assert_clean_exit(argv, codes):
    """Exit code in ``codes``; one JSON document, or an empty stdout and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    assert code in codes, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    else:
        assert json.loads(out.getvalue())["command"] == argv[0]  # exactly one document


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nclab.__file__)))


def run_process(argv, timeout=60):
    """``nclab argv`` in a separate process: exit code, stdout, stderr and wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nclab", *argv],
                          env=_ENV, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.fixture(scope="module")
def startup_s():
    """Wall seconds of a separate ``nclab`` process that does almost no work."""
    return min(run_process(["eval", "--f", "x1", "--json"])[3] for _ in range(2))


def _balanced_product(factor, depth):
    """The product of 2^depth copies of ``factor``, each pair in parentheses."""
    for _ in range(depth):
        factor = f"({factor})*({factor})"
    return factor


def assert_refused_up_front(argv, limit, prefix, startup_s):
    """``nclab argv --json`` exits 1 with one error line within ``limit`` seconds of work.

    It runs in a separate process that is killed at the limit, so a size that
    is no longer refused fails the test instead of running on.  Returns the line.
    """
    code, out, err, wall = run_process([*argv, "--json"], timeout=startup_s + limit)
    assert wall - startup_s < limit
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1, err
    assert err.startswith(prefix), err
    return err


class TestHelp:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, cmd, capsys):
        # every flag of the command's row, and its range
        code, out, err = run([cmd, "--help"], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].startswith(f"usage: nclab {cmd} [-h]")
        assert lines[2] == COMMANDS[cmd][0]
        for name, kind, default, text, least, most in COMMANDS[cmd][1] + _COMMON:
            spelling = f"--{name}" if kind is bool else f"--{name} {name.upper()}"
            # a required flag is the one without brackets in the usage line
            assert (f"[{spelling}]" not in lines[0]) == (default is _REQUIRED)
            line = next(line for line in lines if f"{line} ".startswith(f"  {spelling} "))
            assert (text or "") in line
            if most is not None:
                assert f"{least} to {most}" in line
            elif least is not None:
                assert f"at least {least}" in line

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--he"], ["al", "-h"], ["al", "--h"], ["eval", "--bogus", "--help"]]
    )
    def test_h_and_a_prefix_of_help_print_help(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: nclab {argv[0]} [-h]" if argv[0] in COMMANDS else USAGE)

    def test_unknown_flag_rejected(self, capsys):
        code, out, err = run(["eval", "--f", "x1", "--bogus"], capsys)
        assert code == 1

    def test_command_table_lists_every_subcommand(self):
        assert list(COMMANDS) == SUBCOMMANDS

    def test_top_level_help(self, capsys):
        code, out, err = run(["--help"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(USAGE + "\n")
        flat = " ".join(out.split())
        for name, (help_text, _, _) in COMMANDS.items():
            assert f"{name} {help_text}" in flat

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["--json"], "the following arguments are required: command"),
            (
                ["bogus"],
                "argument command: invalid choice: 'bogus' (choose from "
                + ", ".join(f"'{c}'" for c in SUBCOMMANDS)
                + ")",
            ),
            # after the command, the usage is the command's
            (["eval", "--f", "x1", "--bogus"], "unrecognized arguments: --bogus"),
            (["eval", "--f", "x1", "extra"], "unrecognized arguments: extra"),
        ],
    )
    def test_top_level_usage_errors(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        usage = EVAL_USAGE if argv[:1] == ["eval"] else USAGE
        assert err == f"{usage}\nerror: usage error: {message}\n"

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            (["eval", "--f", "x1", "--", "x2"], EVAL_USAGE, "unrecognized arguments: -- x2"),
            (["eval", "--f", "-x1"], EVAL_USAGE, "argument --f: expected one argument"),
            (["eval", "--s", "3", "--f"], EVAL_USAGE, "argument --f: expected one argument"),
            (["eval", "--f", "x1", "--s=x"], EVAL_USAGE, "argument --s: invalid int value: 'x'"),
            (["eval", "--f", "x1", "--json=1"], EVAL_USAGE,
             "argument --json: ignored explicit argument '1'"),
            (["eval", "--s", "3"], EVAL_USAGE, "the following arguments are required: --f"),
            (["star", "--a", "x1", "--b", "x2", "--o", "3"],
             "usage: nclab star [-h] --a A --b B [--s S] [--order ORDER] [--poisson POISSON]"
             " [--field FIELD] [--json] [--out OUT]",
             "ambiguous option: --o could match --order, --out"),
            (["commute", "--s", "1"],
             "usage: nclab commute [-h] --f F --g G [--s S] [--field FIELD] [--json] [--out OUT]",
             "the following arguments are required: --f, --g"),
        ],
        ids=["double-dash", "dash-value", "missing-value", "bad-int", "switch-value",
             "missing-flag", "ambiguous-prefix", "missing-flags"],
    )
    def test_command_usage_errors(self, argv, usage, message, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [usage, f"error: usage error: {message}"]

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["diag", "--n", "2", "--order", "1", "--se", "-5"], ["seed: -5"]),
            (["eval", "--f=-x1"], ["canonical: -x1"]),
            (["eval", "--f", "x1", "--f", "x2", "--s=3"], ["canonical: x2"]),
            (["centralizer", "--f", "x1", "--d", "1", "--fi", "q"], ["generator: x1"]),
        ],
        ids=["prefix-and-negative", "equals-dash", "last-wins", "prefix-field"],
    )
    def test_accepted_forms(self, argv, lines, capsys):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert set(lines) <= set(out.splitlines())


class TestExitStatuses:
    def test_eval_ok(self, capsys):
        code, out, _ = run(["eval", "--f", "x1*x2 - x2*x1", "--s", "2"], capsys)
        assert code == 0
        assert "x1*x2 - x2*x1" in out

    def test_commute_pass_and_fail(self, capsys):
        code, _, _ = run(["commute", "--f", "x1", "--g", "x1^2"], capsys)
        assert code == 0
        code, out, _ = run(["commute", "--f", "x1", "--g", "x2"], capsys)
        assert code == 2
        assert "FAIL" in out

    def test_al_pass(self, capsys):
        code, out, _ = run(["al", "--n", "2"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_usage_error_is_exit_1(self, capsys):
        code, _, _ = run(["centralizer"], capsys)  # missing --f
        assert code == 1

    def test_bad_field_is_exit_1(self, capsys):
        code, _, err = run(["eval", "--f", "x1", "--field", "fp:6"], capsys)
        assert code == 1
        code, _, err = run(["eval", "--f", "x1", "--field", "zz"], capsys)
        assert code == 1

    @pytest.mark.parametrize("modulus", ["0", "1", "-7"])
    def test_a_modulus_below_2_is_refused(self, modulus, capsys):
        # Field(0) is Q: fp:0 used to run over the rationals
        code, out, err = run(["eval", "--f", "x1+1", "--field", f"fp:{modulus}", "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error [invalid-field]: modulus {modulus} is not prime"]

    def test_parse_error_is_exit_1(self, capsys):
        code, _, err = run(["eval", "--f", "x1 +"], capsys)
        assert code == 1
        assert "syntax-error" in err

    @pytest.mark.parametrize(
        "expr", ["x\u00b2", "\u0663*x1"], ids=["superscript-two", "arabic-indic-three"]
    )
    def test_a_non_ascii_digit_is_a_syntax_error(self, expr, capsys):
        code, out, err = run(["eval", "--f", expr], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error [syntax-error]:") and "(at position 0)" in err

    @pytest.mark.parametrize("depth, code", [(MAX_NESTING, 0), (3000, 1)])
    def test_deep_nesting_is_a_syntax_error(self, depth, code):
        # a separate process, so that an uncaught RecursionError would show as a traceback
        expr = "(" * depth + "x1" + ")" * depth
        got, out, err, _ = run_process(["eval", f"--f={expr}", "--json"])
        assert got == code
        assert "Traceback" not in err
        if code:
            assert "syntax-error" in err and "nested deeper" in err
            assert out == ""
        else:
            assert json.loads(out)["report"]  # exactly one document

    def test_huge_power_is_refused_up_front(self, startup_s):
        # without the bound this run would not end
        assert_refused_up_front(["eval", "--f", "x1^99999999"], 1.0, "error [power-too-large]: ",
                                startup_s)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--f", "(x1+x2)^13*(x1+x2)^13"],
            ["--f", "(x1+x2)^9*(x1+x2)^9"],
            ["--s", "10", "--f", "*".join(["(" + "+".join(f"x{i}" for i in range(1, 11)) + ")"] * 5)],
        ],
    )
    def test_huge_product_is_refused_up_front(self, argv, startup_s):
        # unbounded, ^9*^9 formed 2^18 words in about 9 s and ^13*^13 did not end
        err = assert_refused_up_front(["eval", *argv], 1.0, "error [power-too-large]: ", startup_s)
        assert "exceeds 10000 terms" in err

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("(" + " + ".join(f"x1^{250 - k}*x2^{k}" for k in range(10)) + ")^4",
             "a power of up to 10000000 letters exceeds 8912898 letters"),
            (_balanced_product("x1^1000", 11), "a product of degree 2000 and 2000 exceeds degree 2000"),
            ("*".join(["x1^1000"] * 2000), "a product of degree 2000 and 1000 exceeds degree 2000"),
        ],
        ids=["power", "balanced-product", "chain"],
    )
    def test_an_element_past_the_letters_read_text_reads_is_refused_up_front(
        self, expr, message, startup_s
    ):
        # unbounded, the power wrote a report that loads refuses, the 2,048 balanced
        # factors took 21 s and the chain of 2,000 took 48 s
        err = assert_refused_up_front(["eval", "--f", expr], 1.0, "error [power-too-large]: ",
                                      startup_s)
        assert message in err

    def test_a_sum_of_a_thousand_long_terms_is_formed_at_once(self, startup_s):
        # each step is within the grammar's bounds, but x1^999 took 999 products and
        # each + copied the sum so far: unbounded, this took 18.7 s
        expr = " + ".join(f"x1^999*x2^{k}" for k in range(1, 1001))
        code, out, err, wall = run_process(["eval", "--f", expr], timeout=startup_s + 2.0)
        assert wall - startup_s < 2.0
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["degree: 1999", "terms: 1000"]

    def test_a_commutator_past_the_pair_bound_is_refused_up_front(self, startup_s):
        # 2,048^2 word pairs each way: unbounded, this took 16.7 s
        assert_refused_up_front(["commute", "--f", "(x1+x2)^11", "--g", "(x1+x2)^11"], 1.0,
                                "error [invalid-size]: commute: f and g have 2048 and 2048 "
                                f"terms, so [f, g] pairs over {MAX_COMMUTE_PAIRS} of their words",
                                startup_s)

    def test_a_commutator_within_the_pair_bound_runs(self, startup_s):
        # 512 x 513 word pairs, formed once although the report reads [f, g] three times
        argv = ["commute", "--f", "(x1+x2)^9", "--g", "(x1+x2)^9+x1", "--json"]
        code, out, err, _ = run_process(argv, timeout=startup_s + 5.0)
        assert (code, err) == (2, "")
        assert json.loads(out)["report"]["commute"] is False

    def test_commute_forms_the_commutator_once(self, monkeypatch, capsys):
        calls = []
        commutator = freealg.commutator
        monkeypatch.setattr(freealg, "commutator", lambda a, b: calls.append(1) or commutator(a, b))
        code, out, err = run(["commute", "--f", "x1", "--g", "x2", "--json"], capsys)
        assert (code, err, len(calls)) == (2, "", 1)
        assert json.loads(out)["report"]["commutator"]["expr"] == "x1*x2 - x2*x1"

    @pytest.mark.parametrize("d", [6, 9])
    def test_a_centralizer_of_f_times_its_words_past_the_bound_is_refused(self, d, startup_s):
        # unbounded, --d 6 built 127 columns [f, w] of 16,384 terms in 5.4 s; at |f| = 1
        # the bound is the words', so x1 still runs at --d 18
        assert 2**19 - 1 <= MAX_CENTRALIZER_PAIRS
        assert_refused_up_front(["centralizer", "--f", "(x1+x2)^13", "--d", str(d)], 1.0,
                                f"error [invalid-size]: centralizer --s 2 --d {d}: f's 8192 "
                                f"terms times the {2 ** (d + 1) - 1} words of length <= d are "
                                f"over {MAX_CENTRALIZER_PAIRS}", startup_s)

    @pytest.mark.parametrize("f, d, terms, most", [
        ("x1+x2", 17, "2 terms", 2**16 - 1), ("x1+x2+x1*x2", 13, "3 terms", 2**13 - 1),
        ("2*x1+3*x2", 13, "2 terms, with coefficients of unequal size,", 2**13 - 1)],
        ids=["two-terms-d17", "three-terms-d13", "unequal-sizes-d13"])
    def test_a_centralizer_whose_elimination_fills_in_is_refused_up_front(self, f, d, terms,
                                                                         most, startup_s):
        # within the pairs bound, but the elimination fills in: unbounded, x1+x2 --d 17
        # took 12.5 s, x1+x2+x1*x2 --d 13 0.8 s and 2*x1+3*x2 --d 15 15.7 s
        words = 2 ** (d + 1) - 1
        assert len(parse_free(f, 2, QQ).terms) * words <= MAX_CENTRALIZER_PAIRS
        assert_refused_up_front(["centralizer", "--f", f, "--d", str(d)], 1.0,
                                f"error [invalid-size]: centralizer --s 2 --d {d}: the "
                                f"elimination of f's {terms} fills in, so the words of length "
                                f"<= d are at most {most}, not {words}", startup_s)

    def test_a_centralizer_just_inside_the_elimination_bound_runs(self, startup_s):
        # three terms at --d 12: 8,191 words, the most that f of three terms takes
        argv = ["centralizer", "--f", "x1+x2+x1*x2", "--d", "12", "--json"]
        code, out, err, wall = run_process(argv, timeout=startup_s + 3.0)
        assert (code, err) == (0, "")
        assert wall - startup_s < 3.0
        assert MAX_CENTRALIZER_WORDS[2] == 2**13 - 1
        assert json.loads(out)["report"]["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["--f", "x2*x1*x2", "--d", "18"],  # the words bound: one term does not fill in
        ["--f", "(x1+x2)^12", "--d", "6"],  # the pairs bound: 520,192 pairs
        ["--f", "2*x1", "--d", "18"],  # one term of any coefficient
        ["--f", "2*x1+2*x2", "--d", "15", "--field", "q"],  # coefficients of one size
        ["--f", "2*x1+3*x2", "--d", "15", "--field", "fp:7"],  # no fractions over F_p
    ], ids=["one-term-d18", "pairs-d6", "one-scaled-term-d18", "equal-sizes-d15", "fp7-d15"])
    def test_a_centralizer_within_every_bound_reaches_its_search(self, argv, monkeypatch,
                                                                  capsys):
        def searched(f, d):
            raise ValueError("searched")

        monkeypatch.setattr(centralizer, "bergman_check", searched)
        code, out, err = run(["centralizer", *argv], capsys)
        assert (code, out, err) == (1, "", "error: searched\n")

    @pytest.mark.parametrize("argv, n, degree", [
        (["pi", "--f", "(x1)^5", "--n", "8"], 8, 5),
        (["pi", "--f", "(x1)^5", "--n", "10"], 10, 5),
        (["pi", "--f", "x1^16", "--n", "3", "--s", "1"], 3, 16),
        (["pi", "--f", "x1^35", "--n", "2", "--s", "1"], 2, 35),
        # annihilator reduces its largest size first, before any search
        (["annihilator", "--f", "x1", "--g", "(x1)^5", "--nmax", "8", "--dmax", "1"], 8, 5),
    ], ids=["x1^5-n8", "x1^5-n10", "x1^16-n3", "x1^35-n2", "annihilator"])
    def test_an_image_past_the_estimate_is_refused_up_front(self, argv, n, degree, startup_s):
        # unbounded, pi --f (x1)^5 --n 8 took 3.4 s (18 s with --json), --n 10 23 s and
        # x1^16 at n = 3 2.6 s
        assert_refused_up_front(argv, 1.0, f"error [invalid-size]: pi_{n} of a free element of "
                                f"degree {degree} can have over {MAX_IMAGE_TERMS} terms",
                                startup_s)

    @pytest.mark.parametrize("expr, s, n", [("x1^34", 1, 2), ("x1^4", 2, 8), ("x1", 2, 150)],
                             ids=["x1^34-n2", "x1^4-n8", "x1-n150"])
    def test_an_image_within_the_estimate_is_formed(self, expr, s, n, startup_s):
        # x1^34 at n = 2 is just inside (31,080 of 32,768), x1^4 at n = 8 at the bound
        assert image_terms(parse_free(expr, s, QQ), n, MAX_IMAGE_TERMS) <= MAX_IMAGE_TERMS
        argv = ["pi", "--f", expr, "--s", str(s), "--n", str(n)]
        code, out, err, wall = run_process(argv, timeout=startup_s + 3.0)
        assert (code, err) == (0, "")
        assert wall - startup_s < 3.0

    def test_the_image_estimate_bounds_the_terms_formed(self):
        for expr, s in [("x1^5", 1), ("x1*x2 - 2*x2*x1 + 3", 2), ("(x1+x2)^3 + x1^2", 2)]:
            f = parse_free(expr, s, QQ)
            for n in range(1, 5):
                image = genmat.pi_reduce(f, n)
                built = sum(len(e.terms) for e in image.entries.values())
                assert built <= image_terms(f, n, MAX_IMAGE_TERMS)
        # the sum stops once it is past the bound it is given
        assert image_terms(parse_free("x1^9 + x1^8", 1, QQ), 3, 100) == 9 * 3**8

    @settings(max_examples=400)
    @given(FUZZ_EXPRESSIONS)
    def test_eval_fuzz_exits_cleanly(self, expr):
        _assert_clean_exit(["eval", f"--f={expr}"], codes=(0, 1))

    @settings(max_examples=300, deadline=2000)
    @given(st.sampled_from(sorted(FUZZ_COMMANDS)), st.data())
    def test_every_command_fuzz_exits_cleanly(self, command, data):
        flags, sizes = FUZZ_COMMANDS[command]
        argv = [command]
        for flag, (lo, hi) in sizes.items():
            argv.append(f"--{flag}={data.draw(st.integers(lo, hi), label=flag)}")
        for flag in flags:
            argv.append(f"--{flag}={data.draw(FUZZ_ANY, label=flag)}")
        _assert_clean_exit(argv, codes=(0, 1, 2))

    @pytest.mark.parametrize(
        "argv",
        [
            ["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--order", "0"],
            ["probe", "--n", "2", "--order", "0"],
        ],
        ids=["bergman-pipeline", "probe"],
    )
    def test_order_zero_is_refused_where_the_h_coefficient_is_reported(self, argv, capsys):
        # it used to read coefficient 1 of an order-0 series: an IndexError traceback
        code = main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == ["error [engine-error]: --order must be at least 1, got 0"]

    @pytest.mark.parametrize(
        "argv", [["star", "--a", "x1", "--b", "x2"], ["diag", "--n", "2"]], ids=["star", "diag"]
    )
    def test_order_zero_stays_valid_for_star_and_diag(self, argv, capsys):
        assert main([*argv, "--order", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["bounds"]["order"] == 0

    def test_al_beyond_the_bound_is_refused_up_front(self, startup_s):
        # unbounded, --n 4 would expand S_8 symbolically; on 4x4 generic matrices
        # S_6 alone has 1.29 M terms
        assert_refused_up_front(["al", "--n", "4"], 1.0,
                                "error [invalid-size]: al --n is at most 3", startup_s)

    @pytest.mark.parametrize(
        "s, d", [(2, 19), (2, 40), (1, 10**9), (10**6, 3), (1000, 2), (2000, 2)],
        ids=["d19", "d40", "s1", "wide", "s1000-d2", "s2000-d2"]
    )
    def test_centralizer_beyond_the_letter_bound_is_refused_up_front(self, s, d, startup_s):
        # the s = 2, d = 18 words (the largest centralizer row timed) are exactly at both
        # bounds: 2^19 - 1 words of this many letters in all
        assert sum(k * 2**k for k in range(19)) == MAX_CENTRALIZER_LETTERS
        assert _check_sizes(parse(["centralizer", "--f", "x1", "--d", "18"]), {}) is None
        # unbounded, --s 1000 --d 2, within the letters but not the words, took 13.6 s,
        # and --d 40 would materialize every word of length <= 40
        assert_refused_up_front(["centralizer", "--f", "x1", "--s", str(s), "--d", str(d)], 1.0,
                                f"error [invalid-size]: centralizer --s {s} --d {d}:", startup_s)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pi", "--f", "x1", "--n", "1", "--s", "100000000"], "pi --s 100000000 --n 1:"),
            (["star", "--a", "x1", "--b", "x2", "--s", "100000000"], "star --s 100000000:"),
            (["poisson", "--a", "x1", "--b", "x2", "--s", "100000000"], "poisson --s 100000000:"),
            (["pi", "--f", "x1", "--n", "3000"], "pi --s 2 --n 3000:"),
            (["pi", "--f", "x1", "--n", "151"], "pi --s 2 --n 151:"),
            (["probe", "--n", "3000", "--dmax", "1", "--order", "1"], "probe --n 3000:"),
            # the diagonal pair reads no --s: its two matrices are counted at any --s
            (["probe", "--n", "212", "--s", "1"], "probe --n 212: 2 generic 212x212 matrices"),
            (["probe", "--n", "151"], "probe --n 151: 2 generic 151x151 matrices"),
            (["diag", "--n", "500", "--order", "1"], f"diag --n is at most {MAX_DIAG_N},"),
            (["diag", "--n", "2", "--order", "100000"],
             f"diag --order is at most {MAX_DIAG_ORDER_AT_N[0]},"),
            (["annihilator", "--f", "x1", "--g", "x1", "--nmax", "300", "--dmax", "1"],
             f"annihilator --nmax is at most {MAX_NMAX},"),
            (["bergman-pipeline", "--f", "x1", "--g", "x1", "--nmax", "21"],
             f"bergman-pipeline --nmax is at most {MAX_NMAX},"),
            (["star", "--a", "x1", "--b", "x2", "--order", "100000000"],
             f"star --order is at most {MAX_STAR_ORDER},"),
            (["probe", "--n", "2", "--order", "3001"],
             f"probe --order is at most {MAX_STAR_ORDER},"),
            (["diag", "--n", "8", "--order", "8"], "diag --n 8 --order 8:"),
            (["diag", "--n", "60", "--order", "100"], "diag --n 60 --order 100:"),
        ],
        ids=["pi-s", "star-s", "poisson-s", "pi-n", "pi-n151", "probe-n", "probe-n212-s1",
             "probe-n151", "diag-n", "diag-order",
             "annihilator-nmax", "pipeline-nmax", "star-order", "probe-order", "diag-n8-order8",
             "diag-n60-order100"],
    )
    def test_sizes_beyond_the_bounds_are_refused_up_front(self, argv, message, startup_s):
        # unbounded, each of these ran for minutes or more before printing anything
        assert MAX_MATRIX_ENTRIES == 2 * 150**2  # pi --f x1 --n 150 still runs
        assert_refused_up_front(argv, 2.0, f"error [invalid-size]: {message}", startup_s)

    def test_the_diagonal_probe_runs_at_any_s(self, capsys):
        # its two matrices are counted, not --s of them: 2 * 150^2 is at the bound
        code, out, err = run(["probe", "--n", "150", "--s", "3", "--json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["bounds"] == {"n": 150, "dmax": 3, "order": 2}

    def test_the_largest_probe_order_finishes_within_the_limit(self, startup_s):
        # the lifts' n nonzero entries sit at h^0 and every Moyal term past h^1 of the
        # diagonal pair is zero, so the unread orders cost only their empty coefficients
        argv = ["probe", "--n", "150", "--dmax", "5", "--order", str(MAX_STAR_ORDER), "--json"]
        code, out, err, wall = run_process(argv, timeout=startup_s + 2.0)
        assert wall - startup_s < 2.0
        assert (code, err) == (0, "")
        assert json.loads(out)["bounds"]["order"] == MAX_STAR_ORDER

    @pytest.mark.parametrize("n, dmax", [(1, 244), (2, 172), (150, 19), (1, 100000)])
    def test_a_diagonal_probe_beyond_the_search_bound_is_refused_up_front(self, n, dmax,
                                                                         startup_s):
        # the diagonal pair has no annihilator, so every layer up to --dmax is searched:
        # unbounded, --n 2 --dmax 800 took 15.5 s; the benchmark's probes stay allowed
        f, g, _ = centralizer.diagonal_generic_pair(8, QQ)
        assert _probe_search_terms(f, g, 5) <= MAX_PROBE_SEARCH_TERMS
        assert_refused_up_front(["probe", "--n", str(n), "--dmax", str(dmax)], 1.0,
                                f"error [invalid-size]: probe --n {n} --dmax {dmax}: the "
                                "annihilator search of the diagonal pair can build over",
                                startup_s)

    @pytest.mark.parametrize("n, dmax", [(1, 243), (2, 171), (150, 18)])
    def test_the_largest_diagonal_probe_search_runs(self, n, dmax, startup_s):
        # one more layer at each --n is refused, as above
        f, g, _ = centralizer.diagonal_generic_pair(n, QQ)
        assert _probe_search_terms(f, g, dmax) <= MAX_PROBE_SEARCH_TERMS
        assert _probe_search_terms(f, g, dmax + 1) > MAX_PROBE_SEARCH_TERMS
        argv = ["probe", "--n", str(n), "--dmax", str(dmax), "--order", "1", "--json"]
        code, out, err, wall = run_process(argv, timeout=startup_s + 2.0)
        assert wall - startup_s < 2.0
        assert (code, err) == (0, "")
        assert f'"searched_bound": {dmax}' in out

    def test_every_diagonal_probe_of_the_earlier_bound_is_accepted(self):
        # --n times --dmax squared at most 40,000 was the diagonal pair's own bound
        for n in range(1, 151):
            f, g, _ = centralizer.diagonal_generic_pair(n, QQ)
            assert _probe_search_terms(f, g, math.isqrt(40_000 // n)) <= MAX_PROBE_SEARCH_TERMS

    @pytest.mark.parametrize("n, code", [(5, 1), (4, 1), (3, 0)])
    def test_a_probe_of_a_pair_that_commutes_freely_is_bounded_up_front(self, n, code,
                                                                       startup_s):
        # [f, g] = 0, so an annihilator of degree <= max(deg f, deg g) = 4 ends the
        # search, and the bound sums the layers up to min(--dmax, 4): unbounded,
        # --n 4 took 2.2 s, --n 5 13-15 s and --n 6 ran past 60 s
        argv = ["probe", "--n", str(n), "--f", "x1*x2", "--g", "x1*x2*x1*x2", "--dmax", "2",
                "--order", "1"]
        if code:
            assert_refused_up_front(argv, 10.0, f"error [invalid-size]: probe --n {n} --dmax 2: "
                                    "the annihilator search of --f and --g can build over",
                                    startup_s)
        else:
            got, out, err, wall = run_process([*argv, "--json"], timeout=startup_s + 10.0)
            assert (got, err) == (0, "")
            assert '"searched_bound": 2' in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "1", "--s", "2", "--f", "x1", "--g", "x2^2", "--dmax", "100000"],
            ["--n", "2", "--f", "(x1*x2-x2*x1)^2", "--g", "x1", "--order", "1", "--dmax", "8"],
        ],
        ids=["n1-dmax100000", "n2-central-square"],
    )
    def test_a_probe_of_a_pair_that_does_not_commute_freely_is_bounded_up_front(self, argv,
                                                                               startup_s):
        # [f, g] != 0 in the free algebra, so nothing ends the search before --dmax:
        # unbounded, the first ran past 10 s and the second took 6.4 s.  The images
        # commute: at n = 1 every pair does, and [x1, x2]^2 is central in M_2.
        n, dmax = argv[1], argv[-1]
        assert_refused_up_front(["probe", *argv], 1.0,
                                f"error [invalid-size]: probe --n {n} --dmax {dmax}: the "
                                "annihilator search of --f and --g can build over", startup_s)

    @pytest.mark.parametrize("n", [20, 60])
    def test_a_probe_whose_commutation_test_is_too_large_is_refused_up_front(self, n,
                                                                             startup_s):
        # find_annihilator forms f g and g f before any layer of the search: unbounded,
        # --n 20 ran 16 s (2-core VM) and then exited 1 with not-commuting.  At --n 60
        # the images' estimate alone refuses it; it used to lift both first (2.07 s)
        argv = ["probe", "--n", str(n), "--f", "x1*x2", "--g", "x2*x1", "--dmax", "1",
                "--order", "3"]
        assert_refused_up_front(argv, 1.0, f"error [invalid-size]: probe --n {n} --dmax 1: the "
                                "annihilator search of --f and --g can build over "
                                f"{MAX_PROBE_SEARCH_TERMS} terms", startup_s)

    @pytest.mark.parametrize(
        "argv, searched",
        [
            (["--n", "2", "--f", "(x1*x2-x2*x1)^2", "--g", "x1", "--order", "1", "--dmax", "3"],
             '"searched_bound": 3'),
            # pi_1 of a commutator is 0, an empty column that ends the search at layer 1
            (["--n", "1", "--f", "x1*x2-x2*x1", "--g", "x1", "--dmax", "100000"], '"text": "u"'),
        ],
        ids=["n2-central-square-dmax3", "n1-zero-image"],
    )
    def test_a_probe_of_such_a_pair_within_the_bound_runs(self, argv, searched, startup_s):
        code, out, err, wall = run_process(["probe", *argv, "--json"], timeout=startup_s + 2.0)
        assert wall - startup_s < 2.0
        assert (code, err) == (0, "")
        assert searched in out

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["q", "fp7"])
    @pytest.mark.parametrize(
        "n, f, g, dmax",
        [(1, "x1+x2", "x1*x2-1", 6), (1, "(x1+x2+1)^2", "x1*x2+x2", 5),
         (2, "(x1*x2-x2*x1)^2", "x1+2", 3), (2, "(x1*x2-x2*x1)^2+x2", "x2^2", 2),
         (3, "diagonal", None, 8), (4, "sparse", None, 3)],
    )
    def test_the_probe_search_bound_is_at_least_the_terms_built(self, n, f, g, dmax, field):
        if f == "diagonal":
            a, b, _ = centralizer.diagonal_generic_pair(n, field)
        elif f == "sparse":
            # a Jordan block x E + N and a polynomial in it: rows of at most 2 entries
            x, y = (rings.CommPoly.variable(rings.Variable.aux(v, 1), field) for v in "xy")
            zero, one = rings.CommPoly.zero(field), rings.CommPoly.one(field)
            a = genmat.GenericMatrix([[x if j == i else one if j == i + 1 else zero
                                       for j in range(n)] for i in range(n)])
            b = a * a + genmat.GenericMatrix.diagonal([y] * n) * a
            assert len(a.entries) == 2 * n - 1
        else:
            a, b = (genmat.pi_reduce(parse_free(e, 2, field), n) for e in (f, g))
        # f g and g f, which test commutation first, then every column f^a g^b with
        # a + b <= dmax that the search yields, the identity's n terms included
        columns = [m for layer in genmat._power_layers(a, b, a * b, dmax) for m in layer.values()]
        built = sum(len(e.terms) for m in [a * b, b * a, *columns] for e in m.entries.values())
        bound = _probe_search_terms(a, b, dmax)
        assert built <= bound <= MAX_PROBE_SEARCH_TERMS
        if f == "diagonal":
            assert built == bound  # n entries of one term in every product

    @pytest.mark.parametrize(
        "argv",
        [
            ["annihilator", "--f", "x1", "--g", "x1^2", "--nmax", "1"],
            ["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "1"],
            ["probe", "--f", "x1", "--g", "x1^2", "--n", "1"],
        ],
        ids=["annihilator", "bergman-pipeline", "probe"],
    )
    def test_an_early_annihilator_costs_what_was_searched(self, argv, startup_s):
        # the search used to build every degree layer up to --dmax before it began:
        # at --dmax 10000 these took 12-14 s, and at --dmax 100000 they did not end
        code, out, err, wall = run_process([*argv, "--dmax", "100000", "--json"],
                                           timeout=startup_s + 2.0)
        assert wall - startup_s < 2.0
        assert (code, err) == (0, "")
        assert '"text": "u^2 - v"' in out and '"searched_bound": 100000' in out

    def test_a_modulus_that_is_not_an_integer_is_an_invalid_field(self, capsys):
        code, out, err = run(["eval", "--f", "x1", "--field", "fp:abc", "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error [invalid-field]: modulus 'abc' is not an integer"]

    def test_unknown_generator_is_exit_1(self, capsys):
        code, _, err = run(["eval", "--f", "x3", "--s", "2"], capsys)
        assert code == 1
        assert "unknown-generator" in err

    def test_star_characteristic_guard_fails_fast(self, capsys):
        code, _, err = run(
            ["star", "--a", "x1", "--b", "x2", "--field", "fp:7", "--order", "7"], capsys
        )
        assert code == 1
        assert "characteristic-too-small" in err

    def test_centralizer_pass(self, capsys):
        code, out, _ = run(["centralizer", "--f", "x1^2", "--s", "2", "--d", "4"], capsys)
        assert code == 0
        assert "PASS" in out and "x1" in out

    @pytest.mark.parametrize("command, line", [("star", "[a,b]_* = 0"), ("poisson", "{a,b} = 0")])
    def test_the_unpaired_last_generator_brackets_to_zero(self, command, line, capsys):
        code, out, _ = run([command, "--s", "3", "--a", "x3", "--b", "x1"], capsys)
        assert code == 0
        assert line in out.splitlines()
        if command == "star":
            assert "h-coefficient of [a,b]_* equals {a,b}: PASS" in out.splitlines()

    def test_probe_reports_mechanism(self, capsys):
        code, out, _ = run(["probe", "--n", "2", "--dmax", "3"], capsys)
        assert code == 0
        assert "contradiction" in out

    @pytest.mark.parametrize("f, g, commutator, code", [
        ("x1", "x1^2", "0", 0),
        # images that commute at n = 1 with tau != 0: no FAIL, since [f, g] != 0
        ("x1", "x2", "x1*x2 - x2*x1", 0),
    ])
    def test_probe_of_free_inputs_reports_their_commutator(self, f, g, commutator, code,
                                                           capsys):
        argv = ["probe", "--n", "1", "--f", f, "--g", g, "--dmax", "2", "--json"]
        got, out, _ = run(argv, capsys)
        assert got == code
        assert json.loads(out)["report"]["free_commutator"]["expr"] == commutator

    @pytest.mark.parametrize("free, commute", [
        (["--f", "x1", "--g", "x1^2"], True),
        (["--f", "x1", "--g", "x2"], False),
        ([], True),  # the diagonal pair has no free commutator
    ])
    def test_probe_commute_is_whether_the_free_commutator_vanishes(self, free, commute,
                                                                   capsys):
        argv = ["probe", "--n", "1", *free, "--dmax", "2"]
        _, out, _ = run([*argv, "--json"], capsys)
        assert json.loads(out)["report"]["commute"] is commute
        _, out, _ = run(argv, capsys)
        assert ("[f,g] = x1*x2 - x2*x1" in out.splitlines()) is not commute

    @pytest.mark.parametrize("flag", ["--f", "--g"])
    def test_probe_refuses_a_lone_expression(self, flag, capsys):
        code, out, err = run(["probe", "--n", "2", flag, "x1"], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error [engine-error]: probe takes both --f and --g, or neither"]

    @pytest.mark.parametrize("variables, missing", [(["x1", "y1"], "x2"),
                                                    (["x1", "x2", "y2"], "y1")])
    def test_probe_of_a_tensor_without_a_variable_of_the_diagonal_pair(self, variables, missing,
                                                                       tmp_path, capsys,
                                                                       monkeypatch):
        # the canonical lifts take any matrix; their first star product checks the
        # entries of f, then of g, row by row, before the annihilator search
        def searched(*_):
            raise AssertionError("the annihilator search ran before the tensor check")

        monkeypatch.setattr(genmat, "find_annihilator", searched)
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"variables": variables, "entries": [[0, 1, "1"]]}))
        code, out, err = run(["probe", "--n", "2", "--poisson", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error [unknown-variable]: {missing} is not a tensor variable"]

    def test_pipeline_single_line_verdict(self, capsys):
        code, out, _ = run(
            ["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "3"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l and not l.startswith("seed")]
        assert lines[-1].startswith("verdict:")


# a command line of every command, and the bounds its envelope records
ENVELOPE_BOUNDS = [
    (["eval", "--f", "x1"], {"s": 2}),
    (["commute", "--f", "x1", "--g", "x1^3", "--s", "3"], {"s": 3}),
    (["pi", "--f", "x1", "--n", "3"], {"s": 2, "n": 3}),
    (["al", "--n", "1"], {"n": 1}),
    (["annihilator", "--f", "x1", "--g", "x1^2", "--nmax", "1", "--dmax", "2"],
     {"s": 2, "nmax": 1, "dmax": 2}),
    (["star", "--a", "x1", "--b", "x2", "--order", "1"], {"s": 2, "order": 1}),
    (["poisson", "--a", "x1", "--b", "x2", "--s", "4"], {"s": 4}),
    (["diag", "--n", "2", "--order", "1"], {"n": 2, "order": 1}),
    (["centralizer", "--f", "x1^2", "--d", "3"], {"s": 2, "d": 3}),
    (["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "1", "--dmax", "2", "--order", "1"],
     {"s": 2, "nmax": 1, "dmax": 2, "order": 1}),
    (["probe", "--n", "2", "--dmax", "2", "--s", "5"], {"n": 2, "dmax": 2, "order": 2}),
    (["probe", "--n", "2", "--s", "3", "--f", "x3", "--g", "x3^2"],
     {"n": 2, "s": 3, "dmax": 3, "order": 2}),
]


class TestJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--f", "x1^2 - 1"],
            ["commute", "--f", "x1", "--g", "x1^3"],
            ["pi", "--f", "x1*x2", "--n", "2"],
            ["al", "--n", "2"],
            ["annihilator", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "3"],
            ["star", "--a", "x1", "--b", "x2"],
            ["poisson", "--a", "x1", "--b", "x2"],
            ["diag", "--n", "2", "--order", "2"],
            ["centralizer", "--f", "x1^2", "--d", "4"],
            ["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "2"],
            ["probe", "--n", "2", "--dmax", "2"],
            # an odd --s leaves x<s> unpaired in the pairing tensor
            ["star", "--s", "3", "--a", "x3", "--b", "x1"],
            ["poisson", "--s", "3", "--a", "x3", "--b", "x1"],
            ["bergman-pipeline", "--s", "3", "--f", "x3", "--g", "x3^2", "--nmax", "2"],
            ["probe", "--s", "3", "--n", "2", "--f", "x3", "--g", "x3^2"],
        ],
    )
    def test_json_mode_emits_one_document(self, argv, capsys):
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0
        doc = json.loads(out)  # exactly one document
        assert doc["engine"]["name"] == "nclab"
        assert doc["seed"] == 1729
        assert "report" in doc

    @pytest.mark.parametrize("argv, bounds", ENVELOPE_BOUNDS,
                             ids=[" ".join(argv) for argv, _ in ENVELOPE_BOUNDS])
    def test_the_envelope_records_the_int_flags_the_command_reads(self, argv, bounds, capsys):
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0
        assert json.loads(out)["bounds"] == bounds

    # every command, and a refusal that exits 2
    @pytest.mark.parametrize("argv", [a for a, _ in ENVELOPE_BOUNDS]
                             + [["commute", "--f", "x1", "--g", "x2"]], ids=" ".join)
    def test_text_mode_encodes_no_report(self, argv, capsys, monkeypatch):
        expected = run(argv, capsys)

        def refuse(obj):
            raise AssertionError("a report was encoded in text mode")

        monkeypatch.setattr(serialize, "encode", refuse)
        assert run(argv, capsys) == expected

    def test_the_envelope_bounds_are_the_int_flags_of_every_command(self):
        for command, (_, flags, _) in COMMANDS.items():
            # diag's --seed declares no range, so it is no bound
            ints = {name for name, kind, _, _, least, most in flags
                    if kind is int and (least, most) != (None, None)}
            recorded = [set(b) for a, b in ENVELOPE_BOUNDS if a[0] == command]
            assert recorded, command
            # only the probe's diagonal pair, which has no generators, leaves out --s
            assert all(b == ints or (command, ints - b) == ("probe", {"s"}) for b in recorded)

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(["al", "--n", "2", "--json", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["report"]["standard_vanishes"] is True

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-such-dir", "a-dir"])
    def test_out_to_an_unwritable_path_is_exit_1(self, target, tmp_path, capsys):
        code, out, err = run(["eval", "--f", "x1", "--out", str(tmp_path / target)], capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_seed_is_embedded_and_overridable(self, capsys):
        code, out, _ = run(["diag", "--n", "2", "--seed", "7", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 7

    @pytest.mark.parametrize("argv", [a for a, _ in ENVELOPE_BOUNDS], ids=" ".join)
    def test_only_diag_reads_a_seed(self, argv, capsys):
        # every other command draws nothing: its envelope keeps the default seed,
        # its text prints none, and --seed is a usage error
        code, out, err = run(argv + ["--seed", "5"], capsys)
        if argv[0] == "diag":
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == "seed: 5"
            return
        assert (code, out) == (1, "")
        usage, message = err.splitlines()
        assert usage.startswith(f"usage: nclab {argv[0]} [-h] ") and "--seed" not in usage
        assert message == "error: usage error: unrecognized arguments: --seed 5"
        code, out, _ = run(argv, capsys)
        assert not any(line.startswith("seed") for line in out.splitlines())
        code, out, _ = run(argv + ["--json"], capsys)
        assert json.loads(out)["seed"] == 1729

    def test_tensor_file_flag(self, tmp_path, capsys):
        tensor = {"variables": ["x1[1,1]", "x2[1,1]"], "entries": [[0, 1, "3"]]}
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(tensor))
        code, out, _ = run(
            ["poisson", "--a", "x1", "--b", "x2", "--poisson", str(path)], capsys
        )
        assert code == 0
        assert "{a,b} = 3" in out
        code, _, err = run(
            ["poisson", "--a", "x1", "--b", "x2", "--poisson", str(tmp_path / "nope.json")],
            capsys,
        )
        assert code == 1

    def test_zero_denominator_in_tensor_file_is_bad_tensor_file(self, tmp_path, capsys):
        tensor = {"variables": ["x1[1,1]", "x2[1,1]"], "entries": [[0, 1, "1/0"]]}
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(tensor))
        for cmd in (["star", "--a", "x1", "--b", "x2"], ["poisson", "--a", "x1", "--b", "x2"]):
            code, out, err = run(cmd + ["--poisson", str(path)], capsys)
            assert code == 1
            assert "bad-tensor-file" in err
            assert out == ""

    @pytest.mark.parametrize("rows, message", [
        # a dict keeps the last of two rows of one pair: {a,b} = 5
        ([[0, 1, "1"], [0, 1, "5"]], "duplicate entry (0,1)"),
        # int() truncates 0.9 and 1.7 to the pair (0, 1)
        ([[0.9, 1.7, "1"]], "entry index (0.9,1.7) is not a pair of integers"),
    ], ids=["repeated-pair", "fractional-index"])
    def test_tensor_file_rows_a_dict_would_hide_are_refused(self, rows, message, tmp_path,
                                                             capsys):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"variables": ["x1[1,1]", "x2[1,1]"], "entries": rows}))
        code, out, err = run(["poisson", "--a", "x1", "--b", "x2", "--poisson", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error [bad-tensor-file]: {message}"]

    @pytest.mark.parametrize("obj, key", [
        ({"variables": "x1[1,1]", "entries": []}, "variables"),
        ({"variables": ["x1[1,1]", "x2[1,1]"], "entries": "0 1 1"}, "entries"),
    ], ids=["variables-string", "entries-string"])
    def test_tensor_file_keys_that_are_not_lists_are_refused(self, obj, key, tmp_path, capsys):
        # iterated as they stand, the strings gave "unrecognized variable name 'x'"
        # and "not enough values to unpack"
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(["poisson", "--a", "x1", "--b", "x2", "--poisson", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error [bad-tensor-file]: tensor key '{key}' is not a JSON list\n"

    def test_json_decodes_to_report(self, capsys):
        code, out, _ = run(
            ["centralizer", "--f", "x1*x2", "--d", "3", "--json"], capsys
        )
        doc, rep = serialize.loads(out)
        assert rep.passed


#: c = (2^1000)^9 has 2,710 digits; c^2, which each of these results holds, has 5,419,
#: more than int's default bound of 4,300 on a conversion to text.  commute's pair
#: does not commute, so it exits 2.
_C = "(2^1000)^9"
LARGE_RESULTS = [
    (["commute", "--f", f"{_C}*x1", "--g", f"{_C}*x2"], 2),
    (["annihilator", "--f", f"{_C}*x1", "--g", "x1^2", "--nmax", "1", "--dmax", "2"], 0),
    (["star", "--a", f"{_C}*x1", "--b", f"{_C}*x2", "--order", "1"], 0),
    (["eval", "--f", f"{_C}*{_C}"], 0),
]


#: Results whose free text has a letter repeated past the grammar's bound of degree
#: 1000 on a power; the last also has a coefficient of 5,419 digits.
LONG_WORDS = [
    ["eval", "--f", "x1^1000*x1"],
    ["centralizer", "--f", "x1^1000*x1", "--s", "1", "--d", "1001"],
    ["eval", "--f", f"{_C}*{_C}*x1^1000*x1 - 3"],
]


class TestNumbersOfAnySize:
    """nclab renders and reads back its own numbers under no bound on their digits,
    whatever Python's bound in the process, and bounds the integers of its input at
    int's default 4,300 digits."""

    @staticmethod
    def _digits(n):
        with int_digits():
            return str(n)

    def _check(self, argv, code, result, out, text_out):
        c_squared = self._digits(2**18000)
        assert (code, c_squared in text_out) == (result, True), argv
        doc, rep = serialize.loads(out)
        with int_digits():
            assert serialize.encode(rep) == doc["report"]
            assert c_squared in serialize.dumps(doc)

    @pytest.mark.parametrize("argv, result", LARGE_RESULTS, ids=[a[0] for a, _ in LARGE_RESULTS])
    def test_large_results_print_every_digit(self, argv, result, capsys):
        code, text_out, err = run(argv, capsys)
        assert err == ""
        code_json, out, err = run(argv + ["--json"], capsys)
        assert (code_json, err) == (code, "")
        self._check(argv, code, result, out, text_out)

    @pytest.mark.parametrize("argv, result", LARGE_RESULTS, ids=[a[0] for a, _ in LARGE_RESULTS])
    def test_python_s_own_bound_changes_no_result(self, argv, result):
        env = {**_ENV, "PYTHONINTMAXSTRDIGITS": "640"}
        runs = [subprocess.run([sys.executable, "-m", "nclab", *argv, *json_flag], env=env,
                               capture_output=True, text=True, timeout=60)
                for json_flag in ([], ["--json"])]
        assert [p.stderr for p in runs] == ["", ""]
        assert runs[0].returncode == runs[1].returncode
        self._check(argv, runs[0].returncode, result, runs[1].stdout, runs[0].stdout)

    @pytest.mark.parametrize("argv", LONG_WORDS, ids=["eval", "centralizer", "eval-large"])
    def test_a_report_of_long_words_reads_back_to_its_bytes(self, argv, capsys):
        code, out, err = run(argv + ["--json"], capsys)
        assert (code, err) == (0, "")
        doc, _ = serialize.loads(out)
        assert serialize.dumps(doc) == out
        env = {**_ENV, "PYTHONINTMAXSTRDIGITS": "640"}
        proc = subprocess.run([sys.executable, "-m", "nclab", *argv, "--json"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            doc, _ = serialize.loads(out)
        finally:
            sys.set_int_max_str_digits(before)
        assert serialize.dumps(doc) == out

    def test_a_thousand_digit_number_is_read_under_a_lower_bound_of_python_s(self):
        env = {**_ENV, "PYTHONINTMAXSTRDIGITS": "640"}
        proc = subprocess.run([sys.executable, "-m", "nclab", "eval", "--f", "1" * 1000],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[0] == "canonical: " + "1" * 1000

    @pytest.mark.parametrize("argv", [["eval", "--f", "x1"], ["eval", "--f", f"{_C}*{_C}"],
                                      ["eval", "--f", "x1 +"], ["star", "--a", "x1"]],
                             ids=["pass", "large", "syntax-error", "usage-error"])
    def test_main_restores_python_s_bound(self, argv, capsys):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            main(argv)
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(before)
        capsys.readouterr()
        assert after == 1000

    def test_a_nat_of_4301_digits_is_a_syntax_error(self, capsys):
        code, out, err = run(["eval", "--f", "1" * 4301], capsys)
        assert (code, out) == (1, "")
        assert err == "error [syntax-error]: number longer than 4300 digits (at position 0)\n"

    @pytest.mark.parametrize("entry", [
        '[0, 1, "%s"]' % ("9" * 5000), "[0, 1, %s]" % ("9" * 5000), '[0, %s, "1"]' % ("9" * 5000),
    ], ids=["value-text", "value-number", "index"])
    def test_a_tensor_file_integer_of_5000_digits_is_refused(self, entry, tmp_path, capsys):
        path = tmp_path / "tensor.json"
        path.write_text('{"variables": ["x1[1,1]", "x2[1,1]"], "entries": [%s]}' % entry)
        code, out, err = run(["poisson", "--a", "x1", "--b", "x2", "--poisson", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error [bad-tensor-file]: ") and len(err.splitlines()) == 1


class TestDeterminism:
    BATTERY = [
        ["eval", "--f", "2x1 - x2^2", "--json"],
        ["al", "--n", "2", "--json"],
        ["annihilator", "--f", "x1", "--g", "x1^2 + 1", "--nmax", "2", "--dmax", "3", "--json"],
        ["star", "--a", "x1", "--b", "x2", "--json"],
        ["diag", "--n", "3", "--order", "2", "--json"],
        ["centralizer", "--f", "x1^2", "--d", "4", "--json"],
        ["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "3", "--json"],
        ["probe", "--n", "2", "--dmax", "3", "--json"],
    ]

    def test_identical_runs_produce_identical_bytes(self, capsys):
        first = []
        for argv in self.BATTERY:
            _, out, _ = run(argv, capsys)
            first.append(out)
        for argv, expected in zip(self.BATTERY, first):
            _, out, _ = run(argv, capsys)
            assert out == expected


class TestStarProducts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--a=x1^3*x2^2 + 2*x1*x3 - x4^8*x1", "--b=x2^4*x1 - 3*x3^2*x4 + x2^7",
             "--s", "4", "--order", "3"],
            # the h-coefficient is exact at every order >= 1
            ["star", "--a", "x1^2*x2", "--b", "x1*x2^3", "--order", "1"],
            ["star", "--a", "x1^2*x2", "--b", "x1*x2^3", "--order", "1", "--field", "fp:3"],
        ],
        ids=["s4-order3", "order1-q", "order1-fp3"],
    )
    def test_each_star_product_formed_once(self, argv, monkeypatch, capsys):
        from nclab import quantize

        calls = []
        real = quantize.star_mul

        def counting(a, b, ctx):
            calls.append((a, b))
            return real(a, b, ctx)

        monkeypatch.setattr(quantize, "star_mul", counting)
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "h-coefficient of [a,b]_* equals {a,b}: PASS" in out.splitlines()
        assert len(calls) == 2
        assert calls[0] == calls[1][::-1]
