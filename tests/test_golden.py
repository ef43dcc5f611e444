"""Report bytes of recorded commands stay identical (see scripts/record_golden.py)."""

import json
import os

import pytest

from nclab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_report_bytes_match_golden(name, capsys):
    code = main(MANIFEST[name] + ["--json"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        expected = fh.read()
    assert code == 0
    assert out == expected
