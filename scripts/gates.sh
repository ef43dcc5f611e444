#!/bin/sh
# Run the repository's gates in order and stop at the first that fails:
#   1. the tier-1 test suite, listing its ten slowest tests, so that a change
#      shows where its tier-1 time goes,
#   2. the golden reports (scripts/record_golden.py --check), also under python -O,
#      so that no report depends on an assert; the two runs fix different string-hash
#      seeds, so that a report that depends on hash order fails, and fails every time,
#      and the second lowers Python's bound on int <-> str digits to its least, 640,
#      so that a report that depends on that bound fails too,
#   3. the benchmark's self-test in both trace modes (perfbench/run.py --smoke).
# Once all pass it prints the line count of src/nclab/*.py, so that a change's
# net src/ lines are the difference of two runs.
# Usage, from anywhere in a checkout:  sh scripts/gates.sh
# The exit status is that of the first failing gate, or 0.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -q --continue-on-collection-errors --durations=10
echo "== golden reports =="
PYTHONHASHSEED=0 python scripts/record_golden.py --check
PYTHONHASHSEED=1 PYTHONINTMAXSTRDIGITS=640 python -O scripts/record_golden.py --check
echo "== benchmark smoke =="
python3 perfbench/run.py --smoke
echo "all gates passed"
echo "src/nclab/*.py: $(cat src/nclab/*.py | wc -l) lines"
