"""End-to-end CLI behavior: flags, exit statuses, JSON output, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import nclab
from nclab.cli import (
    COMMANDS,
    MAX_CENTRALIZER_LETTERS,
    MAX_DIAG_N,
    MAX_DIAG_ORDER,
    MAX_MATRIX_ENTRIES,
    MAX_NMAX,
    MAX_STAR_ORDER,
    build_parser,
    main,
)
from nclab.freealg import MAX_NESTING

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


# the top-level usage at 80 columns, as every release so far has printed it
USAGE = (
    "usage: nclab [-h]\n"
    "             {eval,commute,pi,al,annihilator,star,poisson,diag,centralizer,bergman-pipeline,probe}\n"
    "             ...\n"
)


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


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as e:
        parser.parse_args(argv)
    assert e.value.code == 0
    return capsys.readouterr().out


class TestHelp:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args([cmd, "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "--json" in out and "--field" in out

    def test_unknown_flag_rejected(self, capsys):
        code, out, err = run(["eval", "--f", "x1", "--bogus"], capsys)
        assert code == 1

    def test_command_table_lists_every_subcommand(self):
        assert list(COMMANDS) == SUBCOMMANDS

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_subcommand_help_is_that_of_the_full_tree(self, cmd, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, printed, err = run([cmd, "--help"], capsys)
        assert (code, err) == (0, "")
        assert printed == _help_text(build_parser(), [cmd, "--help"], capsys)
        assert printed.startswith(f"usage: nclab {cmd} [-h]")

    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(["--help"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(USAGE)
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
            # rejected by the top-level parser after a one-subparser build
            (["eval", "--f", "x1", "--bogus"], "unrecognized arguments: --bogus"),
            (["eval", "--f", "x1", "extra"], "unrecognized arguments: extra"),
        ],
    )
    def test_top_level_usage_errors(self, argv, message, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == USAGE + f"error: usage error: {message}\n"


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
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nclab.__file__)))
        expr = "(" * depth + "x1" + ")" * depth
        proc = subprocess.run(
            [sys.executable, "-m", "nclab", "eval", f"--f={expr}", "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code:
            assert "syntax-error" in proc.stderr and "nested deeper" in proc.stderr
            assert proc.stdout == ""
        else:
            assert json.loads(proc.stdout)["report"]  # exactly one document

    def test_huge_power_is_refused_up_front(self):
        # a separate process: without the bound this run would not end
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nclab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "nclab", "eval", "--f", "x1^99999999", "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error [power-too-large]: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--f", "(x1+x2)^13*(x1+x2)^13"],
            ["--f", "(x1+x2)^9*(x1+x2)^9"],
            ["--s", "10", "--f", "*".join(["(" + "+".join(f"x{i}" for i in range(1, 11)) + ")"] * 5)],
        ],
    )
    def test_huge_product_is_refused_up_front(self, argv, capsys):
        # unbounded, ^9*^9 formed 2^18 words in about 9 s and ^13*^13 did not end
        start = time.perf_counter()
        code = main(["eval", *argv, "--json"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error [power-too-large]: ")
        assert "exceeds 10000 terms" in captured.err

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

    def test_al_beyond_the_bound_is_refused_up_front(self, capsys):
        # unbounded, --n 4 would expand S_8 symbolically; on 4x4 generic matrices
        # S_6 alone has 1.29 M terms
        start = time.perf_counter()
        code = main(["al", "--n", "4", "--json"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error [invalid-size]: al --n is at most 3")

    @pytest.mark.parametrize(
        "s, d", [(2, 19), (2, 40), (1, 10**9), (10**6, 3)], ids=["d19", "d40", "s1", "wide"]
    )
    def test_centralizer_beyond_the_letter_bound_is_refused_up_front(self, s, d, capsys):
        # the s = 2, d = 18 words (the largest centralizer row timed) are exactly at the bound
        assert sum(k * 2**k for k in range(19)) == MAX_CENTRALIZER_LETTERS
        # unbounded, --d 40 would materialize every word of length <= 40
        start = time.perf_counter()
        code = main(["centralizer", "--f", "x1", "--s", str(s), "--d", str(d), "--json"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error [invalid-size]: centralizer --s {s} --d {d}:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pi", "--f", "x1", "--n", "1", "--s", "100000000"], "pi --s 100000000 --n 1:"),
            (["star", "--a", "x1", "--b", "x2", "--s", "100000000"], "star --s 100000000:"),
            (["poisson", "--a", "x1", "--b", "x2", "--s", "100000000"], "poisson --s 100000000:"),
            (["pi", "--f", "x1", "--n", "3000"], "pi --s 2 --n 3000:"),
            (["pi", "--f", "x1", "--n", "151"], "pi --s 2 --n 151:"),
            (["probe", "--n", "3000", "--dmax", "1", "--order", "1"], "probe --s 2 --n 3000:"),
            (["diag", "--n", "500", "--order", "1"], f"diag --n is at most {MAX_DIAG_N},"),
            (["diag", "--n", "2", "--order", "100000"],
             f"diag --order is at most {MAX_DIAG_ORDER},"),
            (["annihilator", "--f", "x1", "--g", "x1", "--nmax", "300", "--dmax", "1"],
             f"annihilator --nmax is at most {MAX_NMAX},"),
            (["bergman-pipeline", "--f", "x1", "--g", "x1", "--nmax", "21"],
             f"bergman-pipeline --nmax is at most {MAX_NMAX},"),
            (["star", "--a", "x1", "--b", "x2", "--order", "100000000"],
             f"star --order is at most {MAX_STAR_ORDER},"),
            (["probe", "--n", "2", "--order", "3001"],
             f"probe --order is at most {MAX_STAR_ORDER},"),
        ],
        ids=["pi-s", "star-s", "poisson-s", "pi-n", "pi-n151", "probe-n", "diag-n", "diag-order",
             "annihilator-nmax", "pipeline-nmax", "star-order", "probe-order"],
    )
    def test_sizes_beyond_the_bounds_are_refused_up_front(self, argv, message, capsys):
        # unbounded, each of these ran for minutes or more before printing anything
        assert MAX_MATRIX_ENTRIES == 2 * 150**2  # pi --f x1 --n 150 still runs
        start = time.perf_counter()
        code = main([*argv, "--json"])
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error [invalid-size]: {message}")

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

    def test_probe_reports_mechanism(self, capsys):
        code, out, _ = run(["probe", "--n", "2", "--dmax", "3"], capsys)
        assert code == 0
        assert "contradiction" in out

    @pytest.mark.parametrize("flag", ["--f", "--g"])
    def test_probe_refuses_a_lone_expression(self, flag, capsys):
        code, out, err = run(["probe", "--n", "2", flag, "x1"], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error [engine-error]: probe takes both --f and --g, or neither"]

    def test_pipeline_single_line_verdict(self, capsys):
        code, out, _ = run(
            ["bergman-pipeline", "--f", "x1", "--g", "x1^2", "--nmax", "2", "--dmax", "3"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l and not l.startswith("seed")]
        assert lines[-1].startswith("verdict:")


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
        ],
    )
    def test_json_mode_emits_one_document(self, argv, capsys):
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0
        doc = json.loads(out)  # exactly one document
        assert doc["engine"]["name"] == "nclab"
        assert doc["seed"] == 1729
        assert "report" in doc

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

    def test_json_decodes_to_report(self, capsys):
        from nclab import serialize

        code, out, _ = run(
            ["centralizer", "--f", "x1*x2", "--d", "3", "--json"], capsys
        )
        doc, rep = serialize.loads(out)
        assert rep.passed


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
    ARGV = ["star", "--a=x1^3*x2^2 + 2*x1*x3 - x4^8*x1", "--b=x2^4*x1 - 3*x3^2*x4 + x2^7",
            "--s", "4", "--order", "3"]

    def test_each_star_product_formed_once(self, monkeypatch, capsys):
        from nclab import quantize

        calls = []
        real = quantize.star_mul

        def counting(a, b, ctx):
            calls.append((a, b))
            return real(a, b, ctx)

        monkeypatch.setattr(quantize, "star_mul", counting)
        code, out, _ = run(self.ARGV, capsys)
        assert code == 0
        assert "equals {a,b}: PASS" in out
        assert len(calls) == 2
        assert calls[0] == calls[1][::-1]
