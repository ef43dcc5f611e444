"""Spans and counters around calls into nclab's layers, from outside nclab.

``Tracer.install`` runs inside a job process after ``import nclab``.  It
replaces each traced function at every binding site (the defining module and
every ``nclab`` module that imported it by name) and wraps methods on their
class.  A span is ``(job, name, start, end, parent)``; spans stay in memory
and are written once, when the job ends.  ``summarize`` turns the span files
of a batch into the per-layer metrics, as means per traced job.
"""

from __future__ import annotations

import marshal
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  A span name is <layer>.<function>.
SPANS = [
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve_membership", "linalg.solve_membership"),
    ("genmat", "GenericMatrix.__mul__", "genmat.GenericMatrix.mul"),
    ("genmat", "pi_reduce", "genmat.pi_reduce"),
    ("genmat", "find_annihilator", "genmat.find_annihilator"),
    ("genmat", "annihilator_stability", "genmat.annihilator_stability"),
    ("quantize", "StarContext.bilinear_map", "quantize.StarContext.bilinear_map"),
    ("quantize", "star_mul", "quantize.star_mul"),
    ("quantize", "matrix_star", "quantize.matrix_star"),
    ("quantize", "quantize_lift", "quantize.quantize_lift"),
    ("rings", "poly_gcd", "rings.poly_gcd"),
    ("rings", "CommPoly.__mul__", "rings.CommPoly.mul"),
    ("rings", "CommPoly.diff", "rings.CommPoly.diff"),
    ("diagonalize", "successive_diagonalize", "diagonalize.successive_diagonalize"),
    ("diagonalize", "SeriesFieldMatrix.__mul__", "diagonalize.SeriesFieldMatrix.mul"),
    ("diagonalize", "solve_sylvester_diag", "diagonalize.solve_sylvester_diag"),
    ("freealg", "parse_free", "freealg.parse_free"),
    ("freealg", "commutator", "freealg.commutator"),
    ("freealg", "FreePoly.evaluate_in_matrices", "freealg.FreePoly.evaluate_in_matrices"),
    ("centralizer", "centralizer_basis", "centralizer.centralizer_basis"),
    ("centralizer", "bergman_check", "centralizer.bergman_check"),
    ("centralizer", "bergman_pipeline", "centralizer.bergman_pipeline"),
    ("centralizer", "commuting_matrix_probe", "centralizer.commuting_matrix_probe"),
    ("serialize", "dumps", "serialize.dumps"),
    ("cli", "main", "cli.main"),
]

# Count-only wrappers (no timing): (module, attribute path, counter name).
_SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inverse")
COUNTS = [("fields", f"Scalar.{op}", "fields.scalar_ops") for op in _SCALAR_OPS] + [
    ("fields", "Scalar.__init__", "fields.scalar_new"),
    ("rings", "mono_mul", "rings.mono_mul"),
    ("rings", "RationalFunction.__init__", "rings.RationalFunction.new"),
]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span and counter store of one job process."""

    def __init__(self, job_id: int):
        self.job = job_id
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self._annihilator_keys = set()

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, job, clock = self.spans, self.stack, self.job, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (job, name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function extras -------------------------------------------------------

    def _rref_cells(self, args, result):
        rows = args[0]
        self.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _annihilator_repeat(self, args, result):
        key = (args[0], args[1], args[2])
        if key in self._annihilator_keys:
            self.counts["genmat.find_annihilator.repeats"] += 1
        self._annihilator_keys.add(key)

    def _bilinear_zero(self, args, result):
        if result.is_zero:
            self.counts["quantize.StarContext.bilinear_map.zeros"] += 1

    def _report_bytes(self, args, result):
        self.counts["serialize.report_bytes"] += len(result.encode("utf-8"))

    def _ratfun_new(self, fn):
        counts = self.counts

        def wrapper(self_, num, den):
            counts["rings.RationalFunction.new"] += 1
            if num.is_zero:
                counts["rings.RationalFunction.zero_num"] += 1
            return fn(self_, num, den)

        return wrapper

    # -- installation ------------------------------------------------------------------

    def install(self):
        """Wrap every traced callable; nclab must already be imported."""
        extras = {
            "linalg.rref": self._rref_cells,
            "genmat.find_annihilator": self._annihilator_repeat,
            "quantize.StarContext.bilinear_map": self._bilinear_zero,
            "serialize.dumps": self._report_bytes,
        }
        targets = [(m, p, n, "span") for m, p, n in SPANS] + [(m, p, n, "count") for m, p, n in COUNTS]
        modules = [mod for key, mod in sys.modules.items() if key == "nclab" or key.startswith("nclab.")]
        for module_name, path, name, kind in targets:
            owner, attr = _resolve(sys.modules[f"nclab.{module_name}"], path)
            original = getattr(owner, attr)
            if name == "rings.RationalFunction.new":
                wrapped = self._ratfun_new(original)
            elif kind == "span":
                wrapped = self._span(name, original, extras.get(name))
            else:
                wrapped = self._count(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:  # every binding site of a module-level function
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path):
        with open(path, "wb") as fh:
            marshal.dump({"job": self.job, "spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# Aggregation (runner side)
# ---------------------------------------------------------------------------


def load(path):
    with open(path, "rb") as fh:
        return marshal.load(fh)


def summarize(docs):
    """Per-layer metrics (means per traced job) and self time per layer."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(int)
    jobs = 0
    for doc in docs:
        jobs += 1
        spans = doc["spans"]
        child = [0.0] * len(spans)
        ancestors = [frozenset()] * len(spans)
        for i, (_job, name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                ancestors[i] = ancestors[parent] | {spans[parent][1]}
        for i, (_job, name, start, end, _parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
            if name not in ancestors[i]:  # recursion counts once in inclusive time
                inclusive[name] += end - start
        for key, value in doc["counts"].items():
            counts[key] += value
    jobs = max(jobs, 1)
    out = {}
    for _m, _p, name in SPANS:
        out[f"{name}.calls"] = calls[name] / jobs
        out[f"{name}.s"] = inclusive[name] / jobs
        out[f"{name}.self_s"] = self_time[name] / jobs
    for key in {name for _m, _p, name in COUNTS}:
        out[f"{key}.calls"] = counts[key] / jobs
    out["linalg.rref.cells"] = counts["linalg.rref.cells"] / jobs
    out["serialize.report_bytes"] = counts["serialize.report_bytes"] / jobs

    def ratio(part, whole):
        return counts[part] / whole if whole else 0.0

    out["genmat.find_annihilator.repeat_ratio"] = ratio(
        "genmat.find_annihilator.repeats", calls["genmat.find_annihilator"])
    out["quantize.StarContext.bilinear_map.zero_ratio"] = ratio(
        "quantize.StarContext.bilinear_map.zeros", calls["quantize.StarContext.bilinear_map"])
    out["rings.RationalFunction.zero_num_ratio"] = ratio(
        "rings.RationalFunction.zero_num", counts["rings.RationalFunction.new"])
    layers = defaultdict(float)
    for name, value in self_time.items():
        layers[name.split(".")[0]] += value / jobs
    return out, dict(layers)
