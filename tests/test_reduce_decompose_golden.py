"""Frozen structured output of `algint reduce` and `algint decompose`.

tests/data/reduce_decompose.structured.json holds, for every record of the
desk corpus and of the seeded-curve corpus, the structured output of both
subcommands on the record's curve and integrand, in record order, reduce
first: the Hermite remainder (d, e and coeffs), the derivative part, the
final basis and the adjoined elements of reduce; the pole part, the
infinity part, u and both bases of decompose.  The corpus goldens pin only
integrability, antiderivatives and telescopers.  Regenerate with

    PYTHONPATH=src python tests/test_reduce_decompose_golden.py
"""
import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from algint.cli import main
from algint.polyred import _kept_decomposer

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "reduce_decompose.structured.json"
CORPORA = (ROOT / "data" / "desk_corpus.jsonl", ROOT / "tests" / "data" / "seeded_curves.jsonl")
RECORDS = [
    json.loads(line)
    for path in CORPORA
    for line in path.read_text().splitlines()
    if line.strip() and not line.startswith("#")
]


def _structured(command, curve, integrand):
    """The structured stdout of one subcommand on a curve and integrand."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--curve", curve, "--integrand", integrand,
                     "--format", "structured"])
    assert code == 0, (curve, integrand, command)
    return out.getvalue()


def _outputs():
    """(record name, subcommand, structured stdout) for every record and
    subcommand."""
    for rec in RECORDS:
        for command in ("reduce", "decompose"):
            yield rec["name"], command, _structured(command, rec["curve"], rec["integrand"])


def _golden_text(outputs):
    """The documents as the CLI prints them, as one JSON list."""
    return "[\n" + ",\n".join(out.rstrip("\n") for _, _, out in outputs) + "\n]\n"


def test_reduce_and_decompose_match_the_frozen_output():
    # a seeded curve has three records; its kept Decomposer builds the
    # initial suitable basis and the basis at infinity once
    outputs = list(_outputs())
    golden = GOLDEN.read_text()
    docs = json.loads(golden)
    assert len(docs) == len(outputs) == 2 * len(RECORDS)
    for (name, command, out), doc in zip(outputs, docs):
        assert json.loads(out) == doc, (name, command)
    assert _golden_text(outputs) == golden
    assert _kept_decomposer.cache_info().hits


@functools.cache
def _fresh(command, curve, integrand):
    """The output of a call that finds no kept Decomposer, and leaves none."""
    _kept_decomposer.cache_clear()
    try:
        return _structured(command, curve, integrand)
    finally:
        _kept_decomposer.cache_clear()


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_kept_curves_never_change_an_answer(order):
    # each curve is first met with another integrand in the two orders, so
    # its kept bases, complements and step systems come from other records
    runs = [(command, rec["curve"], rec["integrand"])
            for rec in RECORDS[::order] for command in ("reduce", "decompose", "integrate")]
    fresh = [_fresh(*run) for run in runs]
    assert [_structured(*run) for run in runs] == fresh
    info = _kept_decomposer.cache_info()
    assert info.currsize == len({rec["curve"] for rec in RECORDS})
    assert info.hits == len(runs) - info.currsize


if __name__ == "__main__":
    GOLDEN.write_text(_golden_text(_outputs()))
