"""Independent checks of job reports.

Everything here uses ``fractions.Fraction``, integers mod p and tuples of
generator indices; nothing imports ``nclab``.  Each check takes the job (its
construction data) and the parsed JSON document and returns ``None`` when the
report is right, or a short reason when it is not.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from workloads import seeded_perturbation


class Reject(Exception):
    """A report failed an independent check."""


def _expect(ok, reason):
    if not ok:
        raise Reject(reason)


# ---------------------------------------------------------------------------
# Free-algebra arithmetic: {word tuple: coefficient}
# ---------------------------------------------------------------------------


def _norm(c, p):
    return c % p if p else Fraction(c)


def _clean(terms):
    return {w: c for w, c in terms.items() if c}


def word_mul(a, b, p):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = _norm(out.get(w, 0) + c1 * c2, p)
    return _clean(out)


def word_sub(a, b, p):
    out = dict(a)
    for w, c in b.items():
        out[w] = _norm(out.get(w, 0) - c, p)
    return _clean(out)


_CHUNK = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*)$")


def parse_pretty(text, p):
    """Parse the CLI's canonical rendering, e.g. ``2*x1^2*x2 - 1/2*x2 + 3``."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, chunk in re.findall(r"(^-|[+-] |^)([^ ]+)", text):
        neg = sign.strip() == "-"
        if re.fullmatch(r"\d+(?:/\d+)?", chunk):
            coeff, word = Fraction(chunk), ()
        else:
            m = _CHUNK.match(chunk)
            _expect(m is not None, f"unparsable term {chunk!r}")
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            word = ()
            for factor in m.group(2).split("*"):
                gen, _, exp = factor[1:].partition("^")
                word += (int(gen),) * int(exp or 1)
        if p:
            coeff = coeff.numerator * pow(coeff.denominator, -1, p)
        out[word] = _norm(out.get(word, 0) + (-coeff if neg else coeff), p)
    return _clean(out)


# ---------------------------------------------------------------------------
# Dense matrices over Q as lists of lists of Fraction
# ---------------------------------------------------------------------------


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_lin(*pairs):
    """sum of c * M over (c, M) pairs."""
    n = len(pairs[0][1])
    return [[sum(c * m[i][j] for c, m in pairs) for j in range(n)] for i in range(n)]


def _mat_pow(m, e):
    out = _identity(len(m))
    for _ in range(e):
        out = mat_mul(out, m)
    return out


def _eval_word_poly(terms, mats):
    """A free polynomial evaluated at numeric matrices (generator g -> mats[g])."""
    n = len(mats[1])
    acc = _zeros(n)
    for word, c in terms.items():
        prod = _identity(n)
        for g in word:
            prod = mat_mul(prod, mats[g])
        acc = _mat_lin((1, acc), (c, prod))
    return acc


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


# ---------------------------------------------------------------------------
# centralizer
# ---------------------------------------------------------------------------


def check_centralizer(job, doc):
    p, d = job["p"], job["d"]
    rep = doc["report"]
    field = {"kind": "prime", "p": p} if p else {"kind": "rational"}
    _expect(doc["command"] == "centralizer" and doc["field"] == field, "wrong command or field")
    f = {w: _norm(c, p) for w, c in job["f"].items()}
    _expect(parse_pretty(rep["f"]["expr"], p) == f, "reported f differs from the input")
    # Bergman: the centralizer of a nonscalar element is k[h], so the test passes
    _expect(rep["passed"] is True and rep["witness"] is None, "single-generator test did not pass")
    _expect(rep["generator"] is not None, "no generator reported")
    h = parse_pretty(rep["generator"]["expr"], p)
    k = max((len(w) for w in h), default=0)
    _expect(k >= 1, "generator is a scalar")
    _expect(rep["dims"] == [m // k + 1 for m in range(d + 1)], "dims differ from m//k + 1")
    _expect(not word_sub(word_mul(f, h, p), word_mul(h, f, p), p), "[f, h] != 0")


# ---------------------------------------------------------------------------
# pipeline and probe
# ---------------------------------------------------------------------------


def _univariate_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expected_annihilator(job):
    """v - b((u - beta)/alpha) as {(a, b): Fraction}: f = alpha h + beta, g = b(h)."""
    alpha, beta = Fraction(job["alpha"]), Fraction(job["beta"])
    t = [-beta / alpha, 1 / alpha]  # h as a polynomial in u
    poly = {(0, 1): Fraction(1)}
    power = [Fraction(1)]
    for coeff in job["b"]:
        for e, c in enumerate(power):
            poly[(e, 0)] = poly.get((e, 0), 0) - coeff * c
        power = _univariate_mul(power, t)
    return {k: c for k, c in poly.items() if c}


def _bivariate(obj):
    _expect(obj is not None and obj.get("type") == "bivariate", "annihilator poly missing")
    return {(a, b): Fraction(c) for a, b, c in obj["terms"]}


def _same_up_to_scalar(got, want):
    if set(got) != set(want) or not want:
        return False
    key = next(iter(want))
    scale = got[key] / want[key]
    return all(got[k] == scale * want[k] for k in want)


def _annihilates(poly, f_mat, g_mat):
    n = len(f_mat)
    acc = _zeros(n)
    for (a, b), c in poly.items():
        acc = _mat_lin((1, acc), (c, mat_mul(_mat_pow(f_mat, a), _mat_pow(g_mat, b))))
    return all(x == 0 for row in acc for x in row)


def check_pipeline(job, doc):
    rep = doc["report"]
    nmax = job["nmax"]
    _expect(doc["command"] == "bergman-pipeline" and rep["commute"] is True, "inputs reported as non-commuting")
    want = expected_annihilator(job)
    outcomes = rep["outcomes"]
    _expect([o["n"] for o in outcomes] == list(range(1, nmax + 1)), "wrong sizes")
    stab = rep["stability"]
    _expect(stab is not None and stab["identical"] is True and stab["all_found"] is True,
            "annihilators not identical across sizes")
    polys = [o["annihilator"]["poly"] for o in outcomes] + [r["poly"] for r in stab["results"]]
    _expect(all(q == polys[0] for q in polys), "annihilator differs between sizes")
    rng = random.Random(f"pipeline-point:{job['argv']}")
    for o in outcomes:
        ann = o["annihilator"]
        _expect(ann["found"] is True, f"no annihilator at n={o['n']}")
        poly = _bivariate(ann["poly"])
        _expect(_same_up_to_scalar(poly, want), f"annihilator at n={o['n']} is not v - b((u-beta)/alpha)")
        _expect(o["images_commute"] is True and o["star_c0_zero"] is True, "star c0 or images")
        if job["single"]:  # one generator: every Moyal term vanishes
            _expect(o["star_c1_zero"] is True, "single-generator star commutator nonzero at h^1")
        n = o["n"]
        mats = {g: [[_random_rational(rng) for _ in range(n)] for _ in range(n)] for g in (1, 2)}
        h = _eval_word_poly(job["h"], mats)
        eye = _identity(n)
        f_mat = _mat_lin((job["alpha"], h), (job["beta"], eye))
        b0, b1, b2 = job["b"]
        g_mat = _mat_lin((b2, mat_mul(h, h)), (b1, h), (b0, eye))
        _expect(_annihilates(poly, f_mat, g_mat), f"P(f_n, g_n) != 0 at a random point, n={n}")


def check_probe(job, doc):
    rep = doc["report"]
    _expect(doc["command"] == "probe" and len(rep["outcomes"]) == 1, "wrong probe report")
    o = rep["outcomes"][0]
    _expect(o["n"] == job["n"] and o["annihilator"]["found"] is False,
            "annihilator found for the transcendence-degree-2 pair")
    linear = o["star_linear_part"]["entries"]
    for i in range(job["n"]):
        _expect(linear[i][i]["terms"] == [[[], "1"]], f"h-coefficient diagonal entry {i + 1} != 1")


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def _eval_commpoly(obj, point):
    total = Fraction(0)
    for mono, c in obj["terms"]:
        term = Fraction(c)
        for name, e in mono:
            term *= point[name] ** e
        total += term
    return total


def _eval_ratfun(obj, point):
    _expect(obj.get("type") == "ratfun", "entry is not a rational function")
    den = _eval_commpoly(obj["den"], point)
    if den == 0:
        raise ZeroDivisionError
    return _eval_commpoly(obj["num"], point) / den


def _eval_series(obj, point):
    return [[[_eval_ratfun(e, point) for e in row] for row in coeff] for coeff in obj["coeffs"]]


def check_diag(job, doc):
    n, order = job["n"], job["order"]
    rep = doc["report"]
    _expect(doc["command"] == "diag" and rep["achieved_order"] == order, "wrong order")
    rng = random.Random(f"diag-point:{job['seed']}:{n}:{order}")
    for _ in range(20):  # retry the rare point where a denominator vanishes
        lam = rng.sample(range(-40, 41), n)
        point = {f"lam{i + 1}": Fraction(lam[i], rng.randint(1, 7)) for i in range(n)}
        if len(set(point.values())) < n:
            continue
        try:
            u = _eval_series(rep["conjugator"], point)
            dser = _eval_series(rep["diagonal"], point)
            eig = [_eval_ratfun(e, point) for e in rep["eigenvalues"]]
        except ZeroDivisionError:
            continue
        break
    else:
        raise Reject("no rational point with nonzero denominators")
    lam_vec = [point[f"lam{i + 1}"] for i in range(n)]
    _expect(len(u) == order + 1 and len(dser) == order + 1, "wrong series length")
    _expect(eig == lam_vec, "eigenvalues differ from lam")
    _expect(u[0] == _identity(n), "conjugator does not start with E")
    for dk in dser:
        _expect(all(dk[i][j] == 0 for i in range(n) for j in range(n) if i != j),
                "reported diagonal form is not diagonal")
    # W = U^{-1} mod h^(order+1): W_0 = E, W_r = -sum_{k=1..r} U_k W_{r-k}
    w = [_identity(n)]
    for r in range(1, order + 1):
        w.append(_mat_lin(*[(-1, mat_mul(u[k], w[r - k])) for k in range(1, r + 1)]))

    def series_mul(x, y):
        return [_mat_lin(*[(1, mat_mul(x[k], y[r - k])) for k in range(r + 1)])
                for r in range(order + 1)]

    a = series_mul(series_mul(w, dser), u)  # A' = U^{-1} D U
    diag_lam = [[lam_vec[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    _expect(a[0] == diag_lam, "A'_0 != diag(lam)")
    _expect(a[1] == seeded_perturbation(job["seed"], n), "A'_1 != the seeded perturbation")
    for r in range(2, order + 1):
        _expect(a[r] == _zeros(n), f"A'_{r} != 0")


CHECKS = {
    "centralizer": check_centralizer,
    "pipeline": check_pipeline,
    "probe": check_probe,
    "diag": check_diag,
}


def check(job, doc):
    """None if the report passes, else the reason it was rejected."""
    try:
        CHECKS[job["kind"]](job, doc)
    except Reject as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
