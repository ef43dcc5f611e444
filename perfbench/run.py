"""nclab benchmark: seeded CLI workloads run one fresh process per job.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload centralizer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run repeats one *pass* (the workload's seeded job list, see
``workloads.py``): an untraced run a fixed number of times, sized to
``--seconds`` on the reference host, and a traced run for about ``--seconds``.
Jobs run one at a time; each is ``perfbench/job.py`` in a new interpreter, which imports
nclab from ``src`` and calls ``nclab.cli.main(argv + ["--json"])``.  After the
timed passes every report is checked by ``checks.py``; a job fails on an
unexpected exit code, output other than one JSON document, an exception, a
rejected check, or report bytes that differ between repeats of the job.

The runner times a fixed standard-library loop (``calibrate``) between jobs.
On a shared host the speed available to one process drifts by up to a factor
of two from one second to the next, and the loop slows with the jobs.  End-to-end
times are scaled by ``REFERENCE_S`` over the loop's time around each job, so
they read as seconds on a host where the loop takes ``REFERENCE_S``; the
unscaled values are printed beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each job runs untraced and then traced, and the last line
carries the per-layer metrics from the spans.  ``--smoke`` runs every
workload at tiny sizes in both modes, prints every metric with its unit, and
shows that deliberately corrupted reports are counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 97  # keep for re-checking claims; do not tune against it
JOB_TIMEOUT_S = 120
# Median time of ``calibrate`` on the reference host, a 2-core Intel Xeon VM.
REFERENCE_S = 0.030


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def calibrate():
    """Wall time of a fixed loop of Fraction, int and dict work, like nclab's own."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    table = {}
    for i in range(80000):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def run_job(job, trace, tmp):
    """Spawn one job process, wait for it, and return its record."""
    meta = tmp / f"job{job['id']}-{trace}-{time.monotonic_ns()}.json"
    cpu0 = _child_cpu()
    cmd = [sys.executable, str(HERE / "job.py"), str(meta), str(job["id"]), str(trace), "--", *job["argv"]]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.kill()
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - start
    rec = {"job": job, "trace": trace, "wall": wall, "cpu": _child_cpu() - cpu0, "code": proc.returncode, "out": out, "err": err, "timed_out": timed_out,
           "setup": None, "raised": None, "spans": None}
    if meta.exists():
        info = json.loads(meta.read_text(encoding="utf-8"))
        meta.unlink()
        rec["setup"] = info["ready"] - start
        rec["raised"] = info["raised"]
    spans = Path(f"{meta}.spans")
    if spans.exists():
        rec["spans"] = spans
    return rec


def run_batch(jobs, trace, tmp, passes, seconds=0.0, limit=float("inf")):
    """Whole passes over ``jobs``: ``passes`` of them, then more while half an
    average pass still fits in ``seconds``; no pass starts after ``limit`` seconds.

    ``calibrate`` runs before every job and after the last; each record gets
    the mean of the two calibrations around it as ``ref``.
    Returns the records, one list per pass.
    """
    done, cal = [], calibrate()
    begin = time.monotonic()
    while True:
        records = []
        for job in jobs:
            for mode in (0, 1) if trace else (0,):  # the untraced twin gives the tracing overhead
                rec = run_job(job, mode, tmp)
                after = calibrate()
                rec["ref"], cal = (cal + after) / 2, after
                records.append(rec)
        done.append(records)
        elapsed = time.monotonic() - begin
        if elapsed > limit or (len(done) >= passes and elapsed + elapsed / len(done) / 2 > seconds):
            return done


def failure(rec, checked, corrupt=None):
    """Why a job failed, or None.  ``checked`` caches verdicts per report."""
    if rec["timed_out"]:
        return "timed out"
    if rec["raised"]:
        return f"raised {rec['raised']}"
    if rec["code"] != 0:
        return f"exit code {rec['code']}"
    if b"Traceback" in rec["err"]:
        return "traceback on stderr"
    key = (rec["job"]["id"], rec["out"])
    if key not in checked:
        try:
            doc = json.loads(rec["out"].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        if not isinstance(doc, dict):
            checked[key] = "stdout is not exactly one JSON document"
        else:
            checked[key] = checks.check(rec["job"], doc if corrupt is None else corrupt(rec["job"], doc))
    return checked[key]


def evaluate(records, corrupt=None):
    """(failed count, reasons), after the timed passes.

    ``corrupt`` rewrites parsed reports before they are checked; the smoke
    self-test uses it to show that the checks reject wrong reports.
    """
    first_digest, checked, reasons = {}, {}, []
    for rec in records:
        reason = failure(rec, checked, corrupt)
        digest = hashlib.sha256(rec["out"]).hexdigest()
        if reason is None and digest != first_digest.setdefault(rec["job"]["id"], digest):
            reason = "report bytes differ between repeats"
        if reason is not None:
            reasons.append(f"job {rec['job']['id']} ({' '.join(rec['job']['argv'])}): {reason}")
    return len(reasons), reasons


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _times(passes, scale):
    """The timed end-to-end metrics, each time multiplied by ``scale(record)``.

    The median and the tail are taken over each job's mean wall time across
    its runs (one a pass), counted once per run: they rank the inputs of the
    pass, and a moment of host noise in one run moves them little.
    """
    records = [r for records in passes for r in records]
    walls = [r["wall"] * scale(r) for r in records]
    by_job = defaultdict(list)
    for r, wall in zip(records, walls):
        by_job[r["job"]["id"]].append(wall)
    job_walls = [statistics.fmean(by_job[r["job"]["id"]]) for r in records]
    setups = [r["setup"] * scale(r) for r in records if r["setup"] is not None]
    value, pct = tail(job_walls)
    metrics = {
        "jobs_per_s": len(records) / sum(walls),
        "job_p50_s": statistics.median(job_walls),
        "job_tail_s": value,
        "cpu_s": statistics.median(sum(r["cpu"] * scale(r) for r in records) for records in passes),
        "setup_s": statistics.median(setups) if setups else float("nan"),
    }
    return metrics, pct, len(walls)


def end_to_end(passes):
    """End-to-end metrics, with times scaled to the reference host (see ``calibrate``)."""
    metrics, pct, count = _times(passes, lambda r: REFERENCE_S / r["ref"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    raw, _, _ = _times(passes, lambda r: 1.0)
    refs = [r["ref"] for records in passes for r in records]
    note = (f"job_tail_s is p{pct:.1f} of {count} jobs; cpu_s is per pass of {len(passes)}\n"
            f"  calibration median {statistics.median(refs) * 1e3:.2f} ms (reference {REFERENCE_S * 1e3:.0f} ms); "
            "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return metrics, note


def per_layer(records):
    traced = [r for r in records if r["trace"] == 1]
    plain = [r for r in records if r["trace"] == 0]
    docs = (tracing.load(r["spans"]) for r in traced if r["spans"] is not None)
    metrics, layers = tracing.summarize(docs)
    metrics["trace.overhead_ratio"] = sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain)
    top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
    note = "top layers by self time per job: " + ", ".join(f"{k} {v:.3f} s" for k, v in top)
    return metrics, note


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _format(metrics, wanted):
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark bug: metrics not computed: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def _print_metrics(formatted):
    for name, m in formatted.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")


def _warm_up(tmp):
    """Compile nclab's bytecode once, untimed; a CLI user pays this only once."""
    run_job({"id": -1, "argv": ["eval", "--f", "x1"]}, 0, tmp)


def report(label, jobs, trace, batch, spec):
    """Check a batch, print its metrics, and return the result object."""
    records = [r for records in batch for r in records]
    failed, reasons = evaluate(records)
    if trace:
        metrics, note = per_layer(records)
        formatted = _format(metrics, spec["per_layer"])
    else:
        metrics, note = end_to_end(batch)
        formatted = _format(metrics, spec["end_to_end"])
    print(f"{label}: {len(records)} jobs ({len(jobs)} per pass, {len(batch)} passes) "
          f"in {sum(r['wall'] for r in records):.1f} s")
    print(f"  failed_ratio {failed}/{len(records)} count; {note}")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    _print_metrics(formatted)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": formatted}


def measure(workload, seed, seconds, trace, tmp, spec):
    jobs = workloads.build(workload, seed)
    _warm_up(tmp)
    if trace:
        batch = run_batch(jobs, 1, tmp, 1, seconds)
    else:  # a fixed pass count: every run of a workload times the same jobs
        batch = run_batch(jobs, 0, tmp, workloads.passes(workload, seconds), limit=3 * seconds)
    return report(f"workload {workload} seed {seed} trace {trace}", jobs, trace, batch, spec)


# ---------------------------------------------------------------------------
# Smoke self-test
# ---------------------------------------------------------------------------


def _flip_annihilators(doc):
    rep = doc["report"]
    polys = [o["annihilator"]["poly"] for o in rep["outcomes"]]
    polys += [r["poly"] for r in rep["stability"]["results"]]
    for poly in polys:  # consistently, so only the independent check can notice
        a, b, c = poly["terms"][0]
        poly["terms"][0] = [a, b, c[1:] if c.startswith("-") else "-" + c]


def _bump_conjugator(doc):
    entry = doc["report"]["conjugator"]["coeffs"][1][0][1]["num"]
    entry["terms"] = entry["terms"] + [[[["lam1", 1]], "1"]]


def _bump_dims(doc):
    doc["report"]["dims"][-1] += 1


def _bump_probe_diagonal(doc):
    doc["report"]["outcomes"][0]["star_linear_part"]["entries"][0][0]["terms"] = [[[], "2"]]


# (label, job kind, in-place corruption of one report of that kind)
_CORRUPTIONS = {
    "centralizer": [("centralizer dims[-1] + 1", "centralizer", _bump_dims)],
    "pipeline": [("annihilator coefficient sign flipped", "pipeline", _flip_annihilators),
                 ("probe h-diagonal 1 -> 2", "probe", _bump_probe_diagonal)],
    "diag": [("conjugator entry U_1[1,2] + lam1", "diag", _bump_conjugator)],
}


def _corrupt_one(job_id, edit):
    def corrupt(job, doc):
        if job["id"] == job_id:
            edit(doc)
        return doc

    return corrupt


def smoke(seed, tmp, spec):
    ok = True
    _warm_up(tmp)
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload, seed, small=True)
        for trace in (0, 1):
            batch = run_batch(jobs, trace, tmp, 1)
            ok = report(f"smoke {workload} trace {trace}", jobs, trace, batch, spec)["correct"] and ok
            if trace:
                continue
            records = [r for records in batch for r in records]
            for label, kind, edit in _CORRUPTIONS[workload]:
                target = next(job["id"] for job in jobs if job["kind"] == kind)
                hit = sum(1 for r in records if r["job"]["id"] == target)
                bad, _ = evaluate(records, _corrupt_one(target, edit))
                ok = ok and bad == hit
                print(f"  corrupted ({label}): failed_ratio {bad}/{len(records)}, "
                      f"expected {hit}/{len(records)}: {'detected' if bad == hit else 'NOT DETECTED'}")
    print("smoke self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _pin_to_one_cpu():
    """Run the runner and every job it spawns on one CPU.

    On a shared host each CPU's speed drifts on its own: the calibration loop
    ran up to 1.8 times slower on one CPU of the reference host than on the
    other at the same moment.  With one CPU the calibration measures the CPU
    the jobs run on.  The runner waits while a job runs, so they never contend.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed for re-checking claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload and check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nclab" / "cli.py").is_file():
        print(f"error: no nclab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    spec = _spec()
    _pin_to_one_cpu()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(args.seed, tmp, spec)
        result = measure(args.workload, args.seed, seconds, args.trace, tmp, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
