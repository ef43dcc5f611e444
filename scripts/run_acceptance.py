#!/usr/bin/env python3
"""Run the acceptance suite with one visible line per criterion.

Usage:
    python scripts/run_acceptance.py
"""

import subprocess
import sys


def main() -> int:
    return subprocess.call([sys.executable, "-m", "pytest", "-s", "-q", "tests/test_acceptance.py"])


if __name__ == "__main__":
    raise SystemExit(main())
