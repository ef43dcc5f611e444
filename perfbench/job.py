"""One benchmark job: a fresh interpreter running one nclab command.

Usage: ``python3 perfbench/job.py META JOB_ID TRACE -- ARGV...``

Imports nclab from the checkout's ``src``, optionally installs the tracer,
notes the monotonic time at which it is ready, then calls
``nclab.cli.main(ARGV + ["--json"])`` and exits with its status.  The ready
time, and with TRACE=1 the spans, go to META (and META.spans), never to
stdout, which carries only the report.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    meta_path, job_id, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nclab.cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(job_id)
        tracer.install()
    meta = {"ready": time.monotonic(), "raised": None}
    try:
        code = nclab.cli.main(argv + ["--json"])
    except Exception as exc:  # recorded and counted as a failed job by the runner
        meta["raised"] = f"{type(exc).__name__}: {exc}"
        code = 70
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(meta_path + ".spans")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
