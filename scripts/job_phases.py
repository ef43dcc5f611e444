#!/usr/bin/env python3
"""Split the wall time of each benchmark job into import, module-load and compute.

Usage (from the root of a checkout):

    python3 scripts/job_phases.py --workload pipeline [--seed 1] [--repeats 5]

The jobs are those of one pass of the workload, as ``perfbench/workloads.py``
builds them.  Each job runs ``--repeats`` times, each time in a fresh
interpreter, as the benchmark runs it, and the script prints the median of
three phases, in milliseconds, and of the part of them spent compiling:

- import: from the spawn of the process to its first statement, that is, the
  interpreter's start-up and the standard-library modules it imports;
- load: ``import nclab.cli``, which runs ``cli`` and the modules every
  command needs;
- compute: ``nclab.cli.main(argv + ["--json"])``: the modules the command
  loads lazily on first use, the work and the rendering of the report;
- compile: the time that load and compute spend in ``builtins.compile``, which
  the child wraps before ``import nclab.cli``: compiling the source of each
  module that has no bytecode in the cache.

One untimed run before the first job writes nclab's bytecode cache, unless
PYTHONDONTWRITEBYTECODE is set; then every process compiles what it loads,
and the header says so.  import plus load is what the benchmark reports as
``setup_s``.  The last line sums the medians over the pass.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out

import workloads  # noqa: E402  (found through the path set above)

# The job process: the three phase boundaries and the seconds spent compiling go
# to the last line of stderr.
CHILD = """\
import time
t1 = time.monotonic()
import builtins, sys
compiling = 0.0
def timed_compile(*args, _compile=builtins.compile, **kwargs):
    global compiling
    start = time.monotonic()
    try:
        return _compile(*args, **kwargs)
    finally:
        compiling += time.monotonic() - start
builtins.compile = timed_compile
import nclab.cli
t2 = time.monotonic()
code = nclab.cli.main(sys.argv[1:] + ["--json"])
sys.stdout.flush()
sys.stderr.write(f"\\n{t1} {t2} {time.monotonic()} {compiling} {code}\\n")
"""


def run(argv):
    """(import, load, compute, compile) seconds of one fresh process running ``argv``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    lines = proc.stderr.splitlines()
    if proc.returncode not in (0, 2) or not lines:
        raise SystemExit(f"job {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    t1, t2, t3, compiling, _ = map(float, lines[-1].split())
    return t1 - start, t2 - t1, t3 - t2, compiling


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    jobs = workloads.build(args.workload, args.seed)
    run(["eval", "--f", "x1"])  # compiles the bytecode, untimed
    cache = "no bytecode cache" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "bytecode cached"
    print(f"{'job':>3}  {'import':>7}  {'load':>7}  {'compute':>8}  {'compile':>8}  command "
          f"(ms, median of {args.repeats} fresh processes, {cache})")
    totals = [0.0, 0.0, 0.0, 0.0]
    for job in jobs:
        runs = [run(job["argv"]) for _ in range(args.repeats)]
        medians = [statistics.median(phase) * 1000 for phase in zip(*runs)]
        totals = [t + m for t, m in zip(totals, medians)]
        print(f"{job['id']:>3}  {medians[0]:7.1f}  {medians[1]:7.1f}  {medians[2]:8.1f}  "
              f"{medians[3]:8.1f}  {shlex.join(job['argv'])}")
    whole = sum(totals[:3])  # compiling is a part of load and compute
    print(f"{'sum':>3}  {totals[0]:7.1f}  {totals[1]:7.1f}  {totals[2]:8.1f}  {totals[3]:8.1f}  "
          f"{args.workload} seed {args.seed}: import {totals[0] / whole:.0%}, "
          f"load {totals[1] / whole:.0%}, compute {totals[2] / whole:.0%}, "
          f"compile {totals[3] / whole:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
