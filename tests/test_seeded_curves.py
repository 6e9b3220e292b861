"""Laws on seeded random curves that reach every enlargement site.

tests/data/seeded_curves.jsonl holds four irreducible curves per site (a
finite repair of the initial basis, a repair at infinity, a module update
of the Hermite reduction), drawn by scripts/seeded_curves.py.  Each curve
has three records: dx(g), dx(g) + 1/(x - pole) and the decomposition of
y/x^2.
"""
import json
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from algint import algfield, cli, hermite, polyred
from algint.cli import main
from algint.parsing import build_curve, build_element
from algint.rings import QQ

from test_acceptance import _trace_residue

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "seeded_curves.jsonl"
GOLDEN = ROOT / "tests" / "data" / "seeded_curves.structured.json"
RECORDS = [
    json.loads(line)
    for line in CORPUS.read_text().splitlines()
    if line.strip() and not line.startswith("#")
]
SITES = {
    "finite": (algfield, "_repair_suitability"),
    "infinity": (polyred, "_repair_at_infinity"),
    "update": (hermite, "basis_update"),
}


def test_every_site_has_four_curves():
    curves = defaultdict(set)
    for rec in RECORDS:
        if rec["site"] is not None:
            curves[rec["site"]].add(rec["curve"])
    assert {site: len(c) for site, c in curves.items()} == dict.fromkeys(SITES, 4)


@pytest.mark.parametrize(
    "rec", [r for r in RECORDS if r["name"].endswith("-planted")], ids=lambda r: r["name"]
)
def test_planted_pole_has_a_trace_residue(rec):
    # traces of derivatives have no residue, so a nonzero residue of the
    # trace certifies that dx(g) + 1/(x - pole) is not integrable
    curve = build_curve(rec["curve"], QQ)
    dg = build_element(rec["g"], curve).dx()
    planted = build_element(rec["integrand"], curve)
    pole = rec["pole"]
    assert planted == dg + build_element(f"1/(x - {pole})", curve)
    assert _trace_residue(planted, Fraction(pole)) == curve.n
    assert _trace_residue(dg, Fraction(pole)) == 0


def test_seeded_corpus_laws_and_frozen_output(capsys, monkeypatch):
    # one pass over the corpus: every decomposition satisfies f == dx(g) + h,
    # each record reaches the site it names, and the structured output is
    # the frozen one (run_record differentiates each antiderivative back and
    # checks the expected integrability)
    ran, checked = set(), []
    for site, (owner, attr) in SITES.items():
        real = getattr(owner, attr)

        def spy(*args, _site=site, _real=real):
            ran.add(_site)
            return _real(*args)

        monkeypatch.setattr(owner, attr, spy)
    real_decompose = cli.additive_decompose

    def checked_decompose(f):
        dec = real_decompose(f)
        assert f == dec.g.dx() + dec.remainder_element()
        checked.append(f)
        return dec

    real_run = cli.run_record

    def run_and_check_site(record):
        # a record on a kept curve would not repair its bases again
        polyred._kept_decomposer.cache_clear()
        ran.clear()
        out = real_run(record)
        if record["site"] is not None:
            assert record["site"] in ran, record["name"]
        return out

    monkeypatch.setattr(cli, "additive_decompose", checked_decompose)
    monkeypatch.setattr(cli, "run_record", run_and_check_site)
    assert main(["corpus", str(CORPUS), "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert len(checked) == len(RECORDS)
    assert all(e["status"] == "ok" for e in json.loads(out)["entries"])
    assert out == GOLDEN.read_text()
