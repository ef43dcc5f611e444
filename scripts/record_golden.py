#!/usr/bin/env python3
"""Record the golden ``--json`` reports listed in ``tests/golden/manifest.json``.

Usage:
    PYTHONPATH=src python scripts/record_golden.py [--check]

Each manifest entry maps a file name under ``tests/golden/`` to the argv of
one ``nclab`` command (``--json`` is appended).  Without flags the reports of
the current tree are written, and a command that exits nonzero stops the
recording.  With ``--check`` they are compared instead, and each report must
also decode with ``serialize.loads`` and re-encode to the same bytes: the names
whose bytes differ, whose report does not round-trip or whose command exits
nonzero are printed, and the exit status is 1.  ``tests/test_golden.py`` runs
the same comparison.  Re-record only for an intended change of report bytes.
"""

import contextlib
import io
import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "golden")


def report(argv):
    """Exit code and stdout of one in-process ``nclab`` run with ``--json``."""
    from nclab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--json"])
    return code, buf.getvalue()


def round_trip_error(text):
    """Why a report does not decode and re-encode to the same bytes, or None if it does."""
    from nclab import serialize

    try:
        doc, rep = serialize.loads(text)
    except Exception as exc:  # any refusal of the decoder fails the check
        return f"{type(exc).__name__}: {exc}"
    if serialize.dumps({**doc, "report": serialize.encode(rep)}) != text:
        return "re-encodes to other bytes"
    return None


def main() -> int:
    check = "--check" in sys.argv[1:]
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = []
    for name, argv in manifest.items():
        code, out = report(argv)
        path = os.path.join(GOLDEN, name)
        if code != 0:
            if not check:
                raise SystemExit(f"{name}: exit {code}")
            bad.append(f"exit {code}: {name}")
        elif check:
            with open(path, encoding="utf-8") as fh:
                if fh.read() != out:
                    bad.append(f"differs: {name}")
                elif (error := round_trip_error(out)) is not None:
                    bad.append(f"does not round-trip: {name}: {error}")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
