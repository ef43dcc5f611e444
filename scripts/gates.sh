#!/bin/sh
# Run the repository's gates in order and stop at the first that fails:
#   1. the tier-1 test suite,
#   2. the golden reports (scripts/record_golden.py --check), also under python -O,
#      so that no report depends on an assert,
#   3. the benchmark's self-test in both trace modes (perfbench/run.py --smoke).
# Once all pass it prints the line count of src/nclab/*.py, so that a change's
# net src/ lines are the difference of two runs.
# Usage, from anywhere in a checkout:  sh scripts/gates.sh
# The exit status is that of the first failing gate, or 0.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -q --continue-on-collection-errors
echo "== golden reports =="
python scripts/record_golden.py --check
python -O scripts/record_golden.py --check
echo "== benchmark smoke =="
python3 perfbench/run.py --smoke
echo "all gates passed"
echo "src/nclab/*.py: $(cat src/nclab/*.py | wc -l) lines"
