"""Command-line front end.

One executable with subcommands; every run is deterministic given its flags
(the seed defaults to a fixed documented constant, 1729).  Exit status: 0 for
success / PASS verdicts, 2 for mathematical FAIL verdicts, 1 for usage and
arithmetic errors.  With ``--json`` exactly one JSON document is emitted on
stdout (or written to ``--out``).
"""

from __future__ import annotations

import sys
import types

from . import centralizer, diagonalize, freealg, genmat, quantize, rings, serialize
from .errors import EngineError, InvalidField, InvalidSize
from .fields import QQ, Field
from .serialize import (
    ALReport,
    CommuteReport,
    EvalReport,
    PiReport,
    PoissonReport,
    StarReport,
)

DEFAULT_SEED = 1729


def _check_sizes(args) -> None:
    """Refuse a size flag below the smallest value its command accepts."""
    for name, minimum in (
        ("s", 1),
        ("n", 1),
        ("nmax", 1),
        ("d", 0),
        ("dmax", 0),
        # pipeline and probe report the h-coefficient of a star commutator
        ("order", 1 if args.command in ("bergman-pipeline", "probe") else 0),
    ):
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise EngineError(f"--{name} must be at least {minimum}, got {value}")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parse_field(text: str) -> Field:
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        p = int(text[3:])
        if p < 2:  # Field(0) is Q
            raise InvalidField(f"modulus {p} is not prime")
        return Field(p)
    raise EngineError(f"bad field {text!r}; use 'q' or 'fp:<prime>'")


def _tensor(args, field: Field, s: int, n: int) -> quantize.PoissonTensor:
    if args.poisson == "pairing":
        return quantize.entry_pairing_tensor(s, n, field)
    return quantize.PoissonTensor.load(args.poisson, field)


#: A flag is (name, type, default, help).  The type ``bool`` is a bare switch,
#: false unless given; the default ``_REQUIRED`` makes the flag required.
_REQUIRED = object()

#: the flags of every command, after its own
_COMMON = (
    ("field", str, "q", "ground field: q or fp:<prime>"),
    ("seed", int, DEFAULT_SEED, "PRNG seed"),
    ("json", bool, False, "emit one JSON document"),
    ("out", str, None, "write the report to this path"),
)


def build_parser():
    """The ``nclab`` argument parser, built from ``COMMANDS``."""
    import argparse  # only help and usage errors get here; see parse_plain

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            raise SystemExit(_fail(f"usage error: {message}"))

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            for action in self._actions:
                # argparse strips '--flag=--' to no value at all: the value is '--'
                if getattr(namespace, action.dest, None) == []:
                    try:
                        setattr(namespace, action.dest, action.type("--"))
                    except ValueError:
                        self.error(f"argument --{action.dest}: invalid int value: '--'")
            return namespace, extras

    top = Parser(prog="nclab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kind, default, flag_help in flags + _COMMON:
            if kind is bool:
                p.add_argument(f"--{flag}", action="store_true", help=flag_help)
            elif default is _REQUIRED:
                p.add_argument(f"--{flag}", type=kind, required=True, help=flag_help)
            else:
                p.add_argument(f"--{flag}", type=kind, default=default, help=flag_help)
    return top


def parse_plain(argv):
    """The namespace of a well-formed command line, or None to leave it to argparse.

    Accepted: a command, then tokens ``--flag value`` (a value that does not
    start with '-'), ``--flag=value`` and a bare switch, with full flag names
    only.  Anything else, such as ``-h``, ``--``, an abbreviation, a negative
    value after a space or a missing required flag, is None, so that argparse
    parses it, prints help or refuses it.  Where this accepts, its namespace
    is argparse's.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]][1] + _COMMON
    kinds = {f"--{flag}": kind for flag, kind, _, _ in flags}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        kind = kinds.get(name)
        if kind is None:
            return None
        if kind is bool:
            if eq:
                return None
            values[name[2:]] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value is refused like '-x'
            if value.startswith("-"):
                return None
        try:
            values[name[2:]] = kind(value)
        except ValueError:
            return None
    for flag, _, default, _ in flags:
        if flag not in values:
            if default is _REQUIRED:
                return None
            values[flag] = default
    return types.SimpleNamespace(command=argv[0], **values)


# ---------------------------------------------------------------------------
# Command implementations: each returns (report, bounds, exit_code, text lines)
# ---------------------------------------------------------------------------


def _cmd_eval(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    deg = f.degree()
    deg_text = "-inf" if f.is_zero else str(deg)
    rep = EvalReport(f, deg_text, len(f.terms))
    lines = [f"canonical: {freealg.pretty(f)}", f"degree: {deg_text}", f"terms: {len(f.terms)}"]
    return rep, {"s": args.s}, 0, lines


def _cmd_commute(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    g = freealg.parse_free(args.g, args.s, field)
    c = freealg.commutator(f, g)
    rep = CommuteReport(f, g, c, c.is_zero)
    verdict = "PASS: [f,g] = 0" if c.is_zero else f"FAIL: [f,g] = {freealg.pretty(c)}"
    return rep, {"s": args.s}, 0 if c.is_zero else 2, [verdict]


def _cmd_pi(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    image = genmat.pi_reduce(f, args.n)
    rep = PiReport(f, args.n, image)
    return rep, {"s": args.s, "n": args.n}, 0, [f"pi_{args.n}(f) = {image}"]


#: ``al`` expands S_2n into monomials of the n x n generic entries.  Past n = 3
#: that is out of reach: on 4 x 4 generic matrices S_6 alone has 1,290,240 terms
#: and took 34 s and 566 MB (Python 3.11, 2-core VM), and S_8 has far more.
MAX_AL_N = 3

#: ``centralizer`` makes one column of every word of length <= d in s letters,
#: and holds all of the words at once.  Their total length is at most this: the
#: 2^19 - 1 words of s = 2, d = 18.  Counting letters, not words, also bounds
#: s = 1, where d + 1 words have d(d + 1)/2 letters.
MAX_CENTRALIZER_LETTERS = 17 * 2**19 + 2


def _cmd_al(args, field):
    n = args.n
    if n > MAX_AL_N:
        raise InvalidSize(
            f"al --n is at most {MAX_AL_N}, got {n}: "
            "on 4x4 generic matrices S_6 alone has 1.29 M terms"
        )
    arity = 2 * n
    mats = genmat.make_generic(arity, n, field)
    vanishes = genmat.standard_identity(arity, mats).is_zero
    sharp_checked = n == 2
    sharp_nonzero = None
    if sharp_checked:
        units = [
            genmat.GenericMatrix.unit(2, 1, 1, field),
            genmat.GenericMatrix.unit(2, 1, 2, field),
            genmat.GenericMatrix.unit(2, 2, 1, field),
        ]
        sharp_nonzero = not genmat.standard_identity(3, units).is_zero
    rep = ALReport(n, arity, vanishes, sharp_checked, sharp_nonzero)
    ok = vanishes and (sharp_nonzero is not False)
    lines = [
        f"S_{arity} vanishes on {n}x{n} generic matrices: {'PASS' if vanishes else 'FAIL'}"
    ]
    if sharp_checked:
        lines.append(
            f"S_3 on (E11, E12, E21) is nonzero: {'PASS' if sharp_nonzero else 'FAIL'}"
        )
    return rep, {"n": n}, 0 if ok else 2, lines


def _cmd_annihilator(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    g = freealg.parse_free(args.g, args.s, field)
    rep = genmat.annihilator_stability(f, g, range(1, args.nmax + 1), args.dmax)
    lines = []
    for r in rep.results:
        if r.found:
            lines.append(f"n={r.n}: P(u,v) = {r.poly} (total degree {r.total_degree})")
        else:
            lines.append(f"n={r.n}: no annihilator up to total degree {r.searched_bound}")
    lines.append(
        "identical across sizes: " + ("yes" if rep.identical else "no")
        if rep.all_found
        else "not found at every size"
    )
    code = 2 if rep.unstable else 0
    return rep, {"s": args.s, "nmax": args.nmax, "dmax": args.dmax}, code, lines


def _scalar_reduction(expr: str, s: int, field) -> rings.CommPoly:
    return genmat.pi_reduce(freealg.parse_free(expr, s, field), 1).entry(1, 1)


def _cmd_star(args, field):
    a = _scalar_reduction(args.a, args.s, field)
    b = _scalar_reduction(args.b, args.s, field)
    tensor = _tensor(args, field, args.s, 1)
    ctx = quantize.StarContext(tensor, args.order)
    lift = genmat.FormalSeries.from_poly
    sa, sb = lift(a, ctx.order), lift(b, ctx.order)
    product = quantize.star_mul(sa, sb, ctx)
    comm = product - quantize.star_mul(sb, sa, ctx)
    corr = quantize.verify_correspondence(a, b, ctx, comm) if ctx.order >= 2 else None
    rep = StarReport(product, comm, corr)
    lines = [f"a*b = {product}", f"[a,b]_* = {comm}"]
    code = 0
    if corr is not None:
        lines.append(
            "h-coefficient of [a,b]_* equals {a,b}: " + ("PASS" if corr.holds else "FAIL")
        )
        code = 0 if corr.holds else 2
    bounds = {"s": args.s, "order": args.order}
    return rep, bounds, code, lines


def _cmd_poisson(args, field):
    a = _scalar_reduction(args.a, args.s, field)
    b = _scalar_reduction(args.b, args.s, field)
    tensor = _tensor(args, field, args.s, 1)
    bracket = quantize.poisson_bracket(a, b, tensor)
    return PoissonReport(bracket), {"s": args.s}, 0, [f"{{a,b}} = {bracket}"]


def _perturbation(rng: random.Random, n: int, field: Field) -> genmat.GenericMatrix:
    """Integers drawn from [-5, 5] row by row, with a zero diagonal."""
    zero = rings.CommPoly.zero(field)
    return genmat.GenericMatrix(
        [
            [zero if i == j else rings.CommPoly.constant(field.scalar(rng.randint(-5, 5)))
             for j in range(n)]
            for i in range(n)
        ]
    )


def _cmd_diag(args, field):
    import random  # only diag draws a perturbation

    n, order = args.n, args.order
    ratfun = rings.RationalFunction
    a0 = genmat.GenericMatrix.diagonal(
        ratfun.from_poly(rings.CommPoly.variable(rings.Variable.aux("lam", i), field))
        for i in range(1, n + 1)
    )
    m_int = _perturbation(random.Random(args.seed), n, field)
    a1 = genmat.GenericMatrix([[ratfun.from_poly(e) for e in row] for row in m_int.rows])
    zero = genmat.GenericMatrix.zeros(n, field, ratfun)
    series = diagonalize.SeriesFieldMatrix(order, [a0, a1][: order + 1] + [zero] * (order - 1))
    rep = diagonalize.successive_diagonalize(series, order)
    ok = rep.verify(series)
    lines = [
        f"perturbation (h-coefficient): {m_int}",
        f"diagonalized to order {rep.achieved_order}; "
        f"off-diagonal vanishes through h^{order}: {'PASS' if ok else 'FAIL'}",
    ]
    return rep, {"n": n, "order": order}, 0 if ok else 2, lines


def _cmd_centralizer(args, field):
    letters, layer = 0, 1
    for k in range(1, args.d + 1):
        layer *= args.s
        letters += k * layer
        if letters > MAX_CENTRALIZER_LETTERS:
            raise InvalidSize(
                f"centralizer --s {args.s} --d {args.d}: the words of length <= d have more "
                f"than {MAX_CENTRALIZER_LETTERS} letters in all"
            )
    f = freealg.parse_free(args.f, args.s, field)
    rep = centralizer.bergman_check(f, args.d)
    lines = [f"dims by degree: {rep.dims}"]
    if rep.generator is not None:
        lines.append(f"generator: {freealg.pretty(rep.generator)}")
    lines.append("single-generator test: " + ("PASS" if rep.passed else "FAIL"))
    return rep, {"s": args.s, "d": args.d}, 0 if rep.passed else 2, lines


def _pipeline_lines(rep):
    lines = []
    if not rep.commute and rep.free_commutator is not None:
        lines.append(f"[f,g] = {freealg.pretty(rep.free_commutator)}")
    for o in rep.outcomes:
        ann = (
            f"P(u,v) = {o.annihilator.poly}"
            if o.annihilator.found
            else f"no annihilator up to degree {o.annihilator.searched_bound}"
        )
        star = "0 mod h^2" if (o.star_c0_zero and o.star_c1_zero) else "nonzero mod h^2"
        lines.append(f"n={o.n}: images commute: True; {ann}; star commutator {star}")
    if rep.stability is not None:
        lines.append(
            "annihilators identical across sizes: " + ("yes" if rep.stability.identical else "no")
        )
    lines.append(f"verdict: {rep.conclusion}")
    return lines


def _cmd_bergman_pipeline(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    g = freealg.parse_free(args.g, args.s, field)
    tensor = _tensor(args, field, args.s, args.nmax)
    ctx = quantize.StarContext(tensor, args.order)
    rep = centralizer.bergman_pipeline(f, g, args.nmax, args.dmax, ctx)
    bounds = {"s": args.s, "nmax": args.nmax, "dmax": args.dmax, "order": args.order}
    return rep, bounds, 2 if rep.failure else 0, _pipeline_lines(rep)


def _cmd_probe(args, field):
    if (args.f is None) != (args.g is None):
        raise EngineError("probe takes both --f and --g, or neither")
    if args.f is not None:
        f = genmat.pi_reduce(freealg.parse_free(args.f, args.s, field), args.n)
        g = genmat.pi_reduce(freealg.parse_free(args.g, args.s, field), args.n)
        tensor = _tensor(args, field, args.s, args.n)
    else:
        f, g, tensor = centralizer.diagonal_generic_pair(args.n, field)
        if args.poisson != "pairing":
            tensor = quantize.PoissonTensor.load(args.poisson, field)
    ctx = quantize.StarContext(tensor, args.order)
    rep = centralizer.commuting_matrix_probe(f, g, args.dmax, ctx)
    bounds = {"n": args.n, "dmax": args.dmax, "order": args.order}
    return rep, bounds, 2 if rep.failure else 0, _pipeline_lines(rep)


# flags that several commands declare alike
_F = ("f", str, _REQUIRED, None)
_G = ("g", str, _REQUIRED, None)
_S = ("s", int, 2, None)
_POISSON = ("poisson", str, "pairing", None)

# name -> (help, flags, handler)
COMMANDS = {
    "eval": (
        "parse an expression and print its canonical form",
        (("f", str, _REQUIRED, "free-algebra expression"), ("s", int, 2, "generator count")),
        _cmd_eval,
    ),
    "commute": ("test whether [f, g] = 0 in the free algebra", (_F, _G, _S), _cmd_commute),
    "pi": (
        "reduce a free element to generic matrices of size n",
        (_F, _S, ("n", int, 2, "matrix size")),
        _cmd_pi,
    ),
    "al": (
        "verify the degree-2n standard identity on n x n generic matrices",
        (("n", int, 2, f"matrix size, at most {MAX_AL_N}"),),
        _cmd_al,
    ),
    "annihilator": (
        "search minimal annihilators of a commuting pair across sizes",
        (_F, _G, _S, ("nmax", int, 2, "largest matrix size"),
         ("dmax", int, 3, "total-degree search bound")),
        _cmd_annihilator,
    ),
    "star": (
        "star product and commutator of two scalar reductions",
        (("a", str, _REQUIRED, "free expression, reduced at size 1"), ("b", str, _REQUIRED, None),
         _S, ("order", int, 2, "truncation order N"),
         ("poisson", str, "pairing", "'pairing' or a tensor JSON file")),
        _cmd_star,
    ),
    "poisson": (
        "Poisson bracket of two scalar reductions",
        (("a", str, _REQUIRED, None), ("b", str, _REQUIRED, None), _S, _POISSON),
        _cmd_poisson,
    ),
    "diag": (
        "perturbatively diagonalize diag(lam) + h*M for a seeded integer M",
        (("n", int, 3, None), ("order", int, 2, "target order")),
        _cmd_diag,
    ),
    "centralizer": (
        "degree-bounded centralizer and single-generator test",
        (_F, _S, ("d", int, 4, "degree bound")),
        _cmd_centralizer,
    ),
    "bergman-pipeline": (
        "commutation, reduction, annihilators and star commutators end to end",
        (_F, _G, _S, ("nmax", int, 2, None), ("dmax", int, 3, None), ("order", int, 2, None),
         _POISSON),
        _cmd_bergman_pipeline,
    ),
    "probe": (
        "annihilator + star commutator for a commuting matrix pair",
        (("n", int, 2, "size of the diagonal generic pair"),
         ("f", str, None, "optional free expression (size-n image)"), ("g", str, None, None), _S,
         ("dmax", int, 3, None), ("order", int, 2, None), _POISSON),
        _cmd_probe,
    ),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    try:
        field = _parse_field(args.field)
        _check_sizes(args)
        _, _, handler = COMMANDS[args.command]
        report, bounds, code, lines = handler(args, field)
    except EngineError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # a built-in exactness re-verification did not hold
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    doc = serialize.envelope(report, args.command, field, args.seed, bounds)
    if args.json:
        payload = serialize.dumps(doc)
    else:
        payload = "\n".join(lines + [f"seed: {args.seed}"]) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            return _fail(str(exc))
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
