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
import io
import json
from pathlib import Path

from algint import hermite, polyred
from algint.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "reduce_decompose.structured.json"
CORPORA = (ROOT / "data" / "desk_corpus.jsonl", ROOT / "tests" / "data" / "seeded_curves.jsonl")
RECORDS = [
    json.loads(line)
    for path in CORPORA
    for line in path.read_text().splitlines()
    if line.strip() and not line.startswith("#")
]


def _outputs():
    """(record name, subcommand, structured stdout) for every record and
    subcommand."""
    for rec in RECORDS:
        for command in ("reduce", "decompose"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, "--curve", rec["curve"], "--integrand",
                             rec["integrand"], "--format", "structured"])
            assert code == 0, (rec["name"], command)
            yield rec["name"], command, out.getvalue()


def _golden_text(outputs):
    """The documents as the CLI prints them, as one JSON list."""
    return "[\n" + ",\n".join(out.rstrip("\n") for _, _, out in outputs) + "\n]\n"


def _once_per_curve(monkeypatch, owner, name):
    real, bases = getattr(owner, name), {}

    def cached(curve):
        if curve not in bases:
            bases[curve] = real(curve)
        return bases[curve]

    monkeypatch.setattr(owner, name, cached)


def test_reduce_and_decompose_match_the_frozen_output(monkeypatch):
    # the initial suitable basis and the basis at infinity depend on the
    # curve alone, and a seeded curve has three records: build each once
    _once_per_curve(monkeypatch, hermite, "initial_suitable_basis")
    _once_per_curve(monkeypatch, polyred, "suitable_at_infinity")
    outputs = list(_outputs())
    golden = GOLDEN.read_text()
    docs = json.loads(golden)
    assert len(docs) == len(outputs) == 2 * len(RECORDS)
    for (name, command, out), doc in zip(outputs, docs):
        assert json.loads(out) == doc, (name, command)
    assert _golden_text(outputs) == golden


if __name__ == "__main__":
    GOLDEN.write_text(_golden_text(_outputs()))
