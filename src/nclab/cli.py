"""Command-line front end.

One executable with subcommands; every run is deterministic given its flags
(``diag``'s seed defaults to a fixed documented constant, 1729).  Exit status: 0 for
success / PASS verdicts, 2 for mathematical FAIL verdicts, 1 for usage and
arithmetic errors.  With ``--json`` exactly one JSON document is emitted on
stdout (or written to ``--out``).

The table ``COMMANDS`` is the one definition of the command line: each flag's
type, default, help and accepted range.  ``parse`` reads every command line
from it, ``_help`` prints the help and ``main`` the envelope's bounds from it,
and ``_check_sizes`` refuses a size outside its range, or beyond a bound over
several flags, before any work.  The bounds that read a parsed input (probe's
search, commute's word pairs, centralizer's terms of f times its words) are
checked by the handler before it forms anything of that size.
"""

from __future__ import annotations

import sys
import types

from . import centralizer, diagonalize, freealg, genmat, quantize, rings, serialize
from .errors import EngineError, InvalidField, InvalidSize
from .fields import QQ, Field, int_digits
from .serialize import ALReport, CommuteReport, EvalReport, PiReport, PoissonReport, StarReport

DEFAULT_SEED = 1729


#: The entries of the s generic n x n matrices that a command builds, s * n^2,
#: with n = 1 for star and poisson and n = nmax for annihilator and the
#: pipeline; the probe's diagonal pair, which reads no --s, counts as s = 2.
#: pi --f x1 --n 150 builds 45,000 and took 1.4-1.9 s on a 2-core 2.1 GHz VM;
#: pi --n 300 (180,000) took 3.8 s and star --s 100000 3.9 s.
MAX_MATRIX_ENTRIES = 2 * 150**2

#: annihilator and bergman-pipeline search every size up to --nmax again.
#: annihilator --f x1 --g x1 --nmax 20 --dmax 1 took 0.55 s, --nmax 40 4.5 s.
MAX_NMAX = 20

#: A star product of order N builds, adds and renders series of N + 1
#: coefficients; it pairs only the nonzero ones.  star --a x1 --b x2 --order
#: 3000 took 0.23 s, --order 10000 0.47 s (2-core 2.1 GHz VM).
MAX_STAR_ORDER = 3000

#: diag solves n^2 Sylvester entries over the fractions in lam1..lamn at each
#: order.  diag --n 60 --order 1 took 1.6 s, and diag --n 2 --order 100 1.5 s,
#: --order 200 7-9 s and --order 800 over 60 s.
MAX_DIAG_N = 60
#: Those fractions grow exponentially in n at every order >= 2, so this is the
#: largest --order at each --n from 1 to 11, and 1 past that; the first entry is
#: also the range of the --order flag.  Largest taken:
#: --n 3 --order 16 14.6 s, --n 4 --order 7 18.9 s, --n 5 --order 4 19.6 s,
#: --n 7 --order 3 6.8 s and --n 11 --order 2 8.1 s (2-core 2.1 GHz VM).  One
#: order more at each of these, and --n 12 --order 2, ran over 25 s.
MAX_DIAG_ORDER_AT_N = (100, 100, 16, 7, 4, 3, 3, 2, 2, 2, 2)

#: Nothing but an annihilator ends probe's search of the images before --dmax,
#: and the diagonal pair and most pairs with [f, g] != 0 in the free algebra
#: have none, so ``genmat._probe_search_terms`` bounds up front the terms of its
#: columns f^a g^b and of the products f g and g f that test commutation
#: (where [f, g] = 0 the search ends by layer max(deg f, deg g)).  With
#: --order 1, the largest searches let through took, on the diagonal pair,
#: --n 1 --dmax 243 0.5-0.9 s, --n 2 --dmax 171 0.4 s and --n 150 --dmax 18
#: 0.7-0.9 s (whole process); --n 1 --f x1 --g x2^2 --dmax 243 0.4-0.7 s,
#: --n 1 --f x1+x2 --g x1*x2 --dmax 54 0.14 s and --n 2 --f "(x1*x2-x2*x1)^2"
#: --g x1 --dmax 3 0.03 s after start-up.  Unbounded, that --n 2 row took 6.4 s
#: at --dmax 8, the --n 1 row at --dmax 100000 ran past 10 s, the diagonal pair
#: at --n 2 --dmax 400 3.0 s, and --n 5 --f x1*x2 --g x1*x2*x1*x2 --dmax 2 13-15 s
#: (2-core 2.1 GHz VM).
MAX_PROBE_SEARCH_TERMS = 30_000

#: ``commute`` forms |f| |g| word products each way.  The 524,288 of
#: --f "(x1+x2)^9" --g "(x1+x2)^10" took 1.5-1.8 s with --json, and 1,048,576
#: 3.4-3.9 s; unbounded, --f "(x1+x2)^11" --g "(x1+x2)^11" took 16.7 s (whole
#: process, 2-core VM).
MAX_COMMUTE_PAIRS = 2**19

#: ``centralizer`` forms a column [f, w] of up to 2 |f| words for each word w of
#: length <= d.  At |f| = 1 this is the bound on the words, so it refuses only
#: what a larger f adds: --f "(x1+x2)^12" --d 6 (520,192) took 3.1 s; unbounded,
#: --f "(x1+x2)^13" --d 6 (1,040,384) took 5.4 s.  The largest goldens, benchmark
#: jobs and test rows have far fewer: x1^1000*x1 --s 1 --d 1001 (1,002) took
#: 0.3 s, three terms at --d 7 (765) 0.07 s (whole process, 2-core VM).
MAX_CENTRALIZER_PAIRS = 2**19

#: ``al`` expands S_2n into monomials of the n x n generic entries.  Past n = 3
#: that is out of reach: on 4 x 4 generic matrices S_6 alone has 1,290,240 terms
#: and took 34 s and 566 MB (Python 3.11, 2-core VM), and S_8 has far more.
MAX_AL_N = 3

#: command -> the flag of the size of the generic matrices it builds, None for 1
_MATRIX_SIZE = {"pi": "n", "star": None, "poisson": None, "annihilator": "nmax",
                "bergman-pipeline": "nmax", "probe": "n"}


def _check_sizes(args, bounds: dict) -> None:
    """Refuse, before any work, a size outside the range of its flag or beyond a bound
    over several flags, and a probe given only one of --f and --g."""
    command = args.command
    for name, _, _, _, least, most in COMMANDS[command][1]:
        value = getattr(args, name)
        if least is not None and value < least:
            raise EngineError(f"--{name} must be at least {least}, got {value}")
        if most is not None and value > most:
            raise InvalidSize(f"{command} --{name} is at most {most}, got {value}")
    if command in _MATRIX_SIZE:
        size = _MATRIX_SIZE[command]
        n = getattr(args, size) if size else 1
        count = bounds.get("s", 2)  # the probe's diagonal pair is two matrices
        if count * n * n > MAX_MATRIX_ENTRIES:
            flags = "".join(f" --{name} {bounds[name]}" for name in ("s", size) if name in bounds)
            raise InvalidSize(f"{command}{flags}: {count} generic {n}x{n} matrices "
                              f"have over {MAX_MATRIX_ENTRIES} entries")
    if command == "centralizer":
        for words, letters in centralizer._span_sizes(args.s, args.d):
            if words > 2**19 - 1 or letters > freealg.MAX_CENTRALIZER_LETTERS:
                raise InvalidSize(f"centralizer --s {args.s} --d {args.d}: the words of length "
                                  f"<= d are more than {2**19 - 1} or have more than "
                                  f"{freealg.MAX_CENTRALIZER_LETTERS} letters in all (--s 2 --d 18)")
    if command == "diag":
        limit = MAX_DIAG_ORDER_AT_N[args.n - 1] if args.n <= len(MAX_DIAG_ORDER_AT_N) else 1
        if args.order > limit:
            raise InvalidSize(f"diag --n {args.n} --order {args.order}: "
                              f"at --n {args.n} the --order is at most {limit}")
    if command == "probe" and (args.f is None) != (args.g is None):
        raise EngineError("probe takes both --f and --g, or neither")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parse_field(text: str) -> Field:
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise InvalidField(f"modulus {text[3:]!r} is not an integer") from None
        if p < 2:  # Field(0) is Q
            raise InvalidField(f"modulus {p} is not prime")
        return Field(p)
    raise EngineError(f"bad field {text!r}; use 'q' or 'fp:<prime>'")


def _tensor(args, field: Field, s: int, n: int) -> quantize.PoissonTensor:
    if args.poisson == "pairing":
        return quantize.entry_pairing_tensor(s, n, field)
    return quantize.PoissonTensor.load(args.poisson, field)


# ---------------------------------------------------------------------------
# Command implementations: each returns (report, exit_code, text lines)
# ---------------------------------------------------------------------------


def _cmd_eval(args, field):
    rep = EvalReport(freealg.parse_free(args.f, args.s, field))
    lines = [f"canonical: {rep.poly}", f"degree: {rep.degree_text}", f"terms: {rep.term_count}"]
    return rep, 0, lines


def _cmd_commute(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    g = freealg.parse_free(args.g, args.s, field)
    if len(f.terms) * len(g.terms) > MAX_COMMUTE_PAIRS:
        raise InvalidSize(f"commute: f and g have {len(f.terms)} and {len(g.terms)} terms, "
                          f"so [f, g] pairs over {MAX_COMMUTE_PAIRS} of their words")
    rep = CommuteReport(f, g)
    c = rep.commutator
    verdict = "PASS: [f,g] = 0" if c.is_zero else f"FAIL: [f,g] = {c}"
    return rep, 0 if c.is_zero else 2, [verdict]


def _cmd_pi(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    image = genmat.pi_reduce(f, args.n)
    rep = PiReport(f, image)
    return rep, 0, [f"pi_{args.n}(f) = {image}"]


def _cmd_al(args, field):
    n = args.n
    arity = 2 * n
    mats = genmat.make_generic(arity, n, field)
    vanishes = genmat.standard_identity(mats).is_zero
    # the staircase E11, E12, E22, ..., Enn: only the identity permutation's product is nonzero
    cells = [(k // 2 + 1, (k + 1) // 2 + 1) for k in range(arity - 1)]
    staircase = [genmat.GenericMatrix.unit(n, i, j, field) for i, j in cells]
    sharp_nonzero = not genmat.standard_identity(staircase).is_zero
    rep = ALReport(n, vanishes, sharp_nonzero)
    units = ", ".join(f"E{i}{j}" for i, j in cells)
    lines = [f"S_{arity} vanishes on {n}x{n} generic matrices: {'PASS' if vanishes else 'FAIL'}",
             f"S_{arity - 1} on ({units}) is nonzero: {'PASS' if sharp_nonzero else 'FAIL'}"]
    return rep, 0 if vanishes and sharp_nonzero else 2, lines


def _cmd_annihilator(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    g = freealg.parse_free(args.g, args.s, field)
    rep = genmat.annihilator_stability(f, g, args.nmax, args.dmax)
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
    return rep, 2 if rep.unstable else 0, lines


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
    corr = quantize.verify_correspondence(a, b, ctx, comm) if ctx.order else None
    rep = StarReport(product, comm, corr)
    lines = [f"a*b = {product}", f"[a,b]_* = {comm}"]
    code = 0
    if corr is not None:
        lines.append(
            "h-coefficient of [a,b]_* equals {a,b}: " + ("PASS" if corr.holds else "FAIL")
        )
        code = 0 if corr.holds else 2
    return rep, code, lines


def _cmd_poisson(args, field):
    a = _scalar_reduction(args.a, args.s, field)
    b = _scalar_reduction(args.b, args.s, field)
    tensor = _tensor(args, field, args.s, 1)
    bracket = quantize.poisson_bracket(a, b, tensor)
    return PoissonReport(bracket), 0, [f"{{a,b}} = {bracket}"]


def _perturbation(rng: random.Random, n: int, field: Field) -> genmat.GenericMatrix:
    """Integers drawn from [-5, 5] row by row off the diagonal, as fractions."""
    zero, one = rings.RationalFunction.zero(field), rings.RationalFunction.one(field)
    return genmat.GenericMatrix(
        [[zero if i == j else one.scale(rng.randint(-5, 5)) for j in range(n)] for i in range(n)]
    )


def _cmd_diag(args, field):
    import random  # only diag draws a perturbation

    n, order = args.n, args.order
    ratfun = rings.RationalFunction
    a0 = genmat.GenericMatrix.diagonal(
        ratfun.from_poly(rings.CommPoly.variable(rings.Variable.aux("lam", i), field))
        for i in range(1, n + 1)
    )
    m = _perturbation(random.Random(args.seed), n, field)
    zero = genmat.GenericMatrix.zeros(n, field, ratfun)
    series = diagonalize.SeriesFieldMatrix([a0, m][: order + 1] + [zero] * (order - 1))
    rep = diagonalize.successive_diagonalize(series)
    ok = rep.verify(series)
    lines = [
        f"perturbation (h-coefficient): {m}",
        f"diagonalized to order {rep.achieved_order}; "
        f"off-diagonal vanishes through h^{order}: {'PASS' if ok else 'FAIL'}",
        f"seed: {args.seed}",
    ]
    return rep, 0 if ok else 2, lines


def _cmd_centralizer(args, field):
    f = freealg.parse_free(args.f, args.s, field)
    *_, (words, _) = centralizer._span_sizes(args.s, args.d)
    if len(f.terms) * words > MAX_CENTRALIZER_PAIRS:
        raise InvalidSize(f"centralizer --s {args.s} --d {args.d}: f's {len(f.terms)} terms times "
                          f"the {words} words of length <= d are over {MAX_CENTRALIZER_PAIRS}")
    rep = centralizer.bergman_check(f, args.d)
    lines = [f"dims by degree: {rep.dims}"]
    if rep.generator is not None:
        lines.append(f"generator: {rep.generator}")
    lines.append("single-generator test: " + ("PASS" if rep.passed else "FAIL"))
    return rep, 0 if rep.passed else 2, lines


def _pipeline_lines(rep):
    lines = []
    if not rep.commute:
        lines.append(f"[f,g] = {rep.free_commutator}")
    for o in rep.outcomes:
        ann = (
            f"P(u,v) = {o.annihilator.poly}"
            if o.annihilator.found
            else f"no annihilator up to degree {o.annihilator.searched_bound}"
        )
        star = "0 mod h^2" if o.star_c1_zero else "nonzero mod h^2"
        tau = "0" if o.tau_zero else "nonzero"
        lines.append(f"n={o.n}: images commute: True; {ann}; star commutator {star}; tau {tau}")
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
    return rep, 2 if rep.conclusion.startswith("FAIL: ") else 0, _pipeline_lines(rep)


def _cmd_probe(args, field):
    layers = args.dmax
    if args.f is not None:
        free_f, free_g = (freealg.parse_free(text, args.s, field) for text in (args.f, args.g))
        ctx = quantize.StarContext(_tensor(args, field, args.s, args.n), args.order)
        xs = quantize.star_generic(args.s, args.n, ctx)
        f, g = free_f.evaluate_in_matrices(xs), free_g.evaluate_in_matrices(xs)
        free_commutator, inputs = freealg.commutator(free_f, free_g), "--f and --g"
        if free_commutator.is_zero:
            # f and g lie in one k[h] (Bergman), so the images have an annihilator
            # of total degree at most max(deg f, deg g), 1 for two scalars
            layers = min(layers, max(free_f.degree(), free_g.degree(), 1))
    else:
        f, g, tensor = centralizer.diagonal_generic_pair(args.n, field)
        if args.poisson != "pairing":
            tensor = quantize.PoissonTensor.load(args.poisson, field)
        ctx = quantize.StarContext(tensor, args.order)
        f, g = quantize.quantize_lift(f, ctx), quantize.quantize_lift(g, ctx)
        free_commutator, inputs = None, "the diagonal pair"
    if genmat._probe_search_terms(f.coefficient(0), g.coefficient(0), layers,
                                  MAX_PROBE_SEARCH_TERMS) > MAX_PROBE_SEARCH_TERMS:
        raise InvalidSize(f"probe --n {args.n} --dmax {args.dmax}: the annihilator search "
                          f"of {inputs} can build over {MAX_PROBE_SEARCH_TERMS} terms")
    rep = centralizer.commuting_matrix_probe(f, g, args.dmax, free_commutator)
    return rep, 0, _pipeline_lines(rep)


#: A flag is (name, type, default, help, least, most).  The type ``bool`` is a
#: bare switch, false unless given, and the default ``_REQUIRED`` makes the
#: flag required.  An int flag accepts least <= value <= most; None is no bound.
_REQUIRED = object()

# flags that several commands declare alike
_F = ("f", str, _REQUIRED, "free-algebra expression", None, None)
_G = ("g", str, _REQUIRED, None, None, None)
_A = ("a", str, _REQUIRED, "free expression, reduced at size 1", None, None)
_B = ("b", str, _REQUIRED, None, None, None)
_S = ("s", int, 2, "generator count", 1, None)
_NMAX = ("nmax", int, 2, "largest matrix size", 1, MAX_NMAX)
_DMAX = ("dmax", int, 3, "total-degree search bound", 0, None)
# pipeline and probe report the h-coefficient of a star commutator
_H_ORDER = ("order", int, 2, "truncation order N", 1, MAX_STAR_ORDER)
_POISSON = ("poisson", str, "pairing", "'pairing' or a tensor JSON file", None, None)

#: the flags of every command, after its own
_COMMON = (
    ("field", str, "q", "ground field: q or fp:<prime>", None, None),
    ("json", bool, False, "emit one JSON document", None, None),
    ("out", str, None, "write the report to this path", None, None),
)

# name -> (help, flags, handler)
COMMANDS = {
    "eval": ("parse an expression and print its canonical form", (_F, _S), _cmd_eval),
    "commute": ("test whether [f, g] = 0 in the free algebra", (_F, _G, _S), _cmd_commute),
    "pi": ("reduce a free element to generic matrices of size n",
           (_F, _S, ("n", int, 2, "matrix size", 1, None)), _cmd_pi),
    "al": ("verify the degree-2n standard identity on n x n generic matrices",
           (("n", int, 2, "matrix size", 1, MAX_AL_N),), _cmd_al),
    "annihilator": ("search minimal annihilators of a commuting pair across sizes",
                    (_F, _G, _S, _NMAX, _DMAX), _cmd_annihilator),
    "star": ("star product and commutator of two scalar reductions",
             (_A, _B, _S, ("order", int, 2, "truncation order N", 0, MAX_STAR_ORDER), _POISSON),
             _cmd_star),
    "poisson": ("Poisson bracket of two scalar reductions", (_A, _B, _S, _POISSON), _cmd_poisson),
    "diag": ("perturbatively diagonalize diag(lam) + h*M for a seeded integer M",
             (("n", int, 3, "matrix size", 1, MAX_DIAG_N),
              ("order", int, 2, "target order", 0, MAX_DIAG_ORDER_AT_N[0]),
              ("seed", int, DEFAULT_SEED, "PRNG seed of the perturbation", None, None)), _cmd_diag),
    "centralizer": ("degree-bounded centralizer and single-generator test",
                    (_F, _S, ("d", int, 4, "degree bound", 0, None)), _cmd_centralizer),
    "bergman-pipeline": ("commutation, reduction, annihilators and star commutators end to end",
                         (_F, _G, _S, _NMAX, _DMAX, _H_ORDER, _POISSON), _cmd_bergman_pipeline),
    "probe": ("annihilator + star commutator for a commuting matrix pair",
              (("n", int, 2, "size of the diagonal generic pair", 1, None),
               ("f", str, None, "optional free expression (size-n image)", None, None),
               ("g", str, None, None, None, None), _S, _DMAX, _H_ORDER, _POISSON), _cmd_probe),
}


class UsageError(Exception):
    """A command line that ``COMMANDS`` does not read."""


def _flag_name(token: str, names) -> str | None:
    """The flag that a token names, in full or by a unique prefix; None for any other token."""
    if token == "-h":
        return "help"
    if not token.startswith("--") or token == "--":
        return None
    text = token[2:].partition("=")[0]
    if text in names:
        return text
    matches = [name for name in names if name.startswith(text)]
    if len(matches) > 1:
        options = ", ".join(f"--{name}" for name in matches)
        raise UsageError(f"ambiguous option: {token} could match {options}")
    return matches[0] if matches else None


def parse(argv) -> types.SimpleNamespace | None:
    """The command and the value of every flag of a command line.

    The command comes first, then ``--flag value``, ``--flag=value`` and bare
    switches in any order; a repeated flag keeps its last value.  A flag is
    named in full or by a unique prefix.  After a space a value may start
    with '-' only as a negative integer; after '=' it may be anything.
    None stands for ``-h`` or ``--help``, and any other line that the table
    does not read raises ``UsageError``.
    """
    if not argv or argv[0].startswith("-"):
        if argv and _flag_name(argv[0], ("help",)):
            return None
        raise UsageError("the following arguments are required: command")
    command = argv[0]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = COMMANDS[command][1] + _COMMON
    kinds = {name: kind for name, kind, *_ in flags}
    values = {name: default for name, _, default, *_ in flags}
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        name = _flag_name(token, [*kinds, "help"])
        if name is None:
            unrecognized.append(token)
            continue
        if name == "help":
            return None
        _, eq, value = token.partition("=")
        if kinds[name] is bool:
            if eq:
                raise UsageError(f"argument --{name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value is refused like '-x'
            if value.startswith("-") and not value[1:].isdecimal():
                raise UsageError(f"argument --{name}: expected one argument")
        try:
            values[name] = kinds[name](value)
        except ValueError:
            raise UsageError(f"argument --{name}: invalid int value: {value!r}") from None
    missing = ", ".join(f"--{name}" for name, value in values.items() if value is _REQUIRED)
    if missing:
        raise UsageError(f"the following arguments are required: {missing}")
    if unrecognized:
        raise UsageError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return types.SimpleNamespace(command=command, **values)


def _usage(command: str | None) -> str:
    """The one-line usage of ``nclab``, or of one of its commands."""
    if command is None:
        return "usage: nclab [-h] {" + ",".join(COMMANDS) + "} ..."
    words = []
    for flag in COMMANDS[command][1] + _COMMON:
        spelling, _ = _describe(*flag)
        words.append(spelling if flag[2] is _REQUIRED else f"[{spelling}]")
    return f"usage: nclab {command} [-h] " + " ".join(words)


def _describe(name, kind, _, text, least, most) -> tuple[str, str]:
    """A flag's spelling, as in ``--n N``, and its help and range."""
    spelling = f"--{name}" if kind is bool else f"--{name} {name.upper()}"
    notes = [text] if text else []
    if least is not None:
        notes.append(f"at least {least}" if most is None else f"{least} to {most}")
    return spelling, "; ".join(notes)


def _help(command: str | None) -> str:
    """The help of ``nclab``, a line for each command, or of a command, a line for each flag."""
    if command is None:
        head, rows = "commands:", [(name, row[0]) for name, row in COMMANDS.items()]
    else:
        text, flags, _ = COMMANDS[command]
        head, rows = f"{text}\n\nflags:", [("-h, --help", "show this help and exit")]
        rows += [_describe(*flag) for flag in flags + _COMMON]
    width = max(len(left) for left, _ in rows) + 2
    body = "".join(f"  {left:<{width}}{right}".rstrip() + "\n" for left, right in rows)
    return f"{_usage(command)}\n\n{head}\n{body}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse(argv)
    except UsageError as exc:
        print(_usage(command), file=sys.stderr)
        return _fail(f"usage error: {exc}")
    if args is None:
        sys.stdout.write(_help(command))
        return 0
    try:
        field = _parse_field(args.field)
        _, flags, handler = COMMANDS[args.command]
        # the envelope records the flags with a range; the probe's diagonal pair reads no --s
        bounds = {name: getattr(args, name) for name, _, _, _, least, most in flags
                  if (least, most) != (None, None)}
        if args.command == "probe" and args.f is None:
            del bounds["s"]
        _check_sizes(args, bounds)
        # a handler bounds the integers it reads (an expression's NAT, a tensor
        # file's), so its results print at any size
        with int_digits():
            report, code, lines = handler(args, field)
            if args.json:
                # only diag draws; every other envelope records the default seed
                payload = serialize.dumps(serialize.envelope(
                    report, args.command, field, getattr(args, "seed", DEFAULT_SEED), bounds))
            else:
                payload = "\n".join(lines) + "\n"
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
