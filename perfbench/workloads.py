"""Seeded job lists for the three workloads.

Each workload is a *pass*: a fixed sequence of job classes whose concrete
inputs are drawn from the seed.  The class sequence is the same for every
seed, so two seeds give job lists of the same shape and comparable cost; only
the expressions, coefficients and ``--seed`` values change.  A job is a dict
with the CLI ``argv`` (without ``--json``) and the construction data the
independent checks in ``checks.py`` need.  Nothing here imports ``nclab``.
"""

from __future__ import annotations

import random

P = 32003  # the F_p used for half of the centralizer jobs

def _word_text(word) -> str:
    return "*".join(f"x{g}" for g in word)


def _signed_sum(terms) -> str:
    """Render (coefficient, body) pairs with explicit signs, e.g. ``2*x1*x2 - x2 + 3``."""
    out = []
    for c, body in terms:
        if not c:
            continue
        mag = abs(c)
        chunk = str(mag) if not body else (body if mag == 1 else f"{mag}*{body}")
        if not out:
            out.append(f"-{chunk}" if c < 0 else chunk)
        else:
            out.append(f"- {chunk}" if c < 0 else f"+ {chunk}")
    return " ".join(out)


def _poly_text(terms) -> str:
    """A {word: int} free polynomial as CLI input."""
    return _signed_sum((c, _word_text(w)) for w, c in terms.items())


def _in_h(coeffs, h_text) -> str:
    """sum c_e * h^e for coefficients listed by ascending e, e.g. ``2*(x1)^2 - (x1) + 1``."""
    return _signed_sum((coeffs[e], {0: "", 1: h_text}.get(e, f"{h_text}^{e}"))
                       for e in reversed(range(len(coeffs))))


def _nonzero(rng, span):
    return rng.choice([c for c in range(-span, span + 1) if c])


# ---------------------------------------------------------------------------
# centralizer: f with 1-3 terms of degree 2-3, half over Q and half over F_p
# ---------------------------------------------------------------------------

# Per slot: word template, degree bound and field.  The seed picks the image of
# the template under swapping x1 <-> x2 and reversing words (algebra
# automorphisms that preserve the centralizer's shape) and the coefficients,
# so every seed's f has the same kernel sizes.  The bounds are chosen so that
# most slots cost about the same (about 1 s on a 2.1 GHz Xeon): with similar
# job times the median and tail do not sit in a gap between slot costs.
_CENTRALIZER_PASS = [
    (((1, 1, 2),), 7, "q"),
    (((1, 2), (1, 1, 2)), 7, f"fp:{P}"),
    (((1, 1), (1, 2), (2, 1, 2)), 6, "q"),
    (((1, 2, 1),), 7, f"fp:{P}"),
    (((1, 2, 1),), 7, "q"),
    (((2, 1), (1, 2, 2)), 7, f"fp:{P}"),
]


def _centralizer_jobs(rng, small):
    jobs = []
    for template, d, field in _CENTRALIZER_PASS:
        swap, reverse = rng.random() < 0.5, rng.random() < 0.5
        terms = {}
        for word in template:
            word = tuple(3 - g for g in word) if swap else word
            terms[word[::-1] if reverse else word] = _nonzero(rng, 3)
        d = 3 if small else d
        argv = ["centralizer", f"--f={_poly_text(terms)}", "--d", str(d), "--field", field]
        jobs.append({"kind": "centralizer", "argv": argv, "f": terms, "d": d,
                     "p": 0 if field == "q" else P})
    return jobs


# ---------------------------------------------------------------------------
# pipeline: f = alpha*h + beta, g = b(h), interleaved with probe jobs
# ---------------------------------------------------------------------------


def _h_terms(rng, shape):
    """h of degree 1-2; ``single`` uses one generator, ``double`` both."""
    i = rng.randint(1, 2)
    j = 3 - i
    c = _nonzero(rng, 2)
    if shape == "single1":
        return {(i,): 1}
    if shape == "single2":
        return {(i, i): 1, (i,): c}
    if shape == "double1":
        return {(1,): 1, (2,): c}
    return {(i, j): 1, (rng.randint(1, 2),): c}  # double2


# (shape of h, nmax, dmax, order).  Order-3 jobs use nmax 2: at nmax 3 a
# single order-3 job takes 7-40 s on a 2-core 2.1 GHz Xeon VM, too long for a
# run of a few passes.
_PIPELINE_PASS = [
    ("single1", 3, 3, 2),
    ("single2", 2, 2, 3),
    ("double1", 3, 2, 2),
    ("double2", 2, 2, 3),
]
# The probe's input is fixed by n, so the probe sizes are fixed too.  Probes
# search annihilators up to degree 5 at order 3, so that their costs lie among
# the pipeline jobs' costs; with nine jobs a pass, the median job is the n=7
# probe, whatever the seed.
_PROBE_SIZES = [2, 4, 6, 7, 8]


def _probe_job(n, small):
    argv = ["probe", "--n", str(n), "--dmax", "2" if small else "5", "--order", "1" if small else "3"]
    return {"kind": "probe", "argv": argv, "n": n}


def _pipeline_jobs(rng, small):
    jobs = []
    for (shape, nmax, dmax, order), n in zip(_PIPELINE_PASS, _PROBE_SIZES):
        h = _h_terms(rng, shape)
        alpha, beta = _nonzero(rng, 2), rng.randint(-2, 2)
        # b0 + b1 t + b2 t^2 with no zero coefficient: b1 = 0 makes a
        # two-generator job about a third cheaper, a cost step between seeds.
        b = [_nonzero(rng, 2) for _ in range(3)]
        h_text = f"({_poly_text(h)})"
        f_text, g_text = _in_h([beta, alpha], h_text), _in_h(b, h_text)
        if small:
            nmax, dmax, order = 2, 2, 1
        argv = ["bergman-pipeline", f"--f={f_text}", f"--g={g_text}",
                "--nmax", str(nmax), "--dmax", str(dmax), "--order", str(order)]
        jobs.append({"kind": "pipeline", "argv": argv, "h": h, "alpha": alpha,
                     "beta": beta, "b": b, "nmax": nmax, "single": shape.startswith("single")})
        jobs.append(_probe_job(n, small))
    jobs.append(_probe_job(_PROBE_SIZES[-1], small))
    return jobs


# ---------------------------------------------------------------------------
# diag: perturbative diagonalization over the eigenvalue fraction field
# ---------------------------------------------------------------------------

# Two draws of each size: the cost of a diag job depends on its perturbation.
_DIAG_PASS = [(3, 2), (2, 4), (3, 2), (2, 5)] * 2


def seeded_perturbation(seed, n):
    """The CLI's ``diag`` perturbation M for ``--seed``: zero diagonal, entries in [-5, 5]."""
    rng = random.Random(seed)
    return [[0 if i == j else rng.randint(-5, 5) for j in range(n)] for i in range(n)]


def _degenerate(seed, n):
    return any(not x for i, row in enumerate(seeded_perturbation(seed, n)) for j, x in enumerate(row) if i != j)


def _diag_jobs(rng, small):
    jobs = []
    for n, order in _DIAG_PASS:
        if small:
            n, order = 2, 2
        # A zero off-diagonal entry makes the perturbation degenerate and the
        # job nearly free; draw --seed values whose M has none.
        seed = rng.randrange(1, 10**6)
        while _degenerate(seed, n):
            seed = rng.randrange(1, 10**6)
        argv = ["diag", "--n", str(n), "--order", str(order), "--seed", str(seed)]
        jobs.append({"kind": "diag", "argv": argv, "n": n, "order": order, "seed": seed})
    return jobs


_BUILDERS = {"centralizer": _centralizer_jobs, "pipeline": _pipeline_jobs, "diag": _diag_jobs}
WORKLOADS = tuple(_BUILDERS)

# Wall time of one pass on the reference host (a 2-core 2.1 GHz Xeon VM), in
# the scaled seconds of ``run.py``: the pass's job count over its
# ``jobs_per_s``.  It turns ``--seconds`` into a fixed pass count, so a run
# times the same jobs whatever the host's speed; re-measure it in a change of
# the benchmark alone when nclab gets much faster.
PASS_S = {"centralizer": 6.6, "pipeline": 7.1, "diag": 6.1}


def passes(workload: str, seconds: float) -> int:
    """Passes in an untraced run of about ``seconds`` on the reference host; at least two."""
    return max(2, round(seconds / PASS_S[workload]))


def build(workload: str, seed: int, small: bool = False):
    """The job list of one pass: a pure function of (workload, seed, small)."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, small)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
