"""Report bytes of recorded commands stay identical (see scripts/record_golden.py)."""

import json
import os

import pytest

from nclab import serialize
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


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_every_golden_decodes_and_re_renders_to_its_own_bytes(name):
    # decoding rebuilds each value through its constructor: a diag report's
    # RationalFunction(num, den) inverts den's scalar factor in the report's field
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        text = fh.read()
    doc, rep = serialize.loads(text)
    assert serialize.dumps({**doc, "report": serialize.encode(rep)}) == text
