"""Report bytes of recorded commands stay identical (see scripts/record_golden.py)."""

import json
import os

import pytest

from nclab import genmat, quantize, serialize
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


def test_pipeline_goldens_have_zero_tau_and_probe_goldens_nonzero():
    # the quantized images of commuting free inputs star-commute, so their c1
    # and tau vanish; the probe's diagonal pair has tau_k = sum_i x_i^k
    commands = {}
    for name, argv in MANIFEST.items():
        if argv[0] in ("bergman-pipeline", "probe"):
            with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
                _, rep = serialize.loads(fh.read())
            assert "did not vanish" not in rep.conclusion, name
            zero = [o.tau_zero for o in rep.outcomes]
            if argv[0] == "bergman-pipeline":
                assert all(zero) and all(o.star_c1_zero for o in rep.outcomes), name
                assert rep.conclusion.endswith(
                    "; the quantized images commute through the truncation order"), name
            else:
                assert not any(zero), name
            commands[argv[0]] = commands.get(argv[0], 0) + 1
    assert commands == {"bergman-pipeline": 7, "probe": 6}


def test_pipeline_goldens_need_neither_the_reduction_nor_the_canonical_lift(monkeypatch, capsys):
    # a pipeline lifts f by evaluating it at the star-generic matrices, whose
    # h^0 coefficient is pi_n(f): neither pi_reduce nor quantize_lift runs
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(genmat, "pi_reduce", refuse)
    monkeypatch.setattr(quantize, "quantize_lift", refuse)
    names = [name for name, argv in sorted(MANIFEST.items()) if argv[0] == "bergman-pipeline"]
    for name in names:
        assert main(MANIFEST[name] + ["--json"]) == 0, name
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read(), name
    assert len(names) == 7
