"""Oracles for what the reduction and the telescoping loop carry between steps.

A Hermite step's rest keeps the squarefree factorisation of its
denominator, and the telescoping ledger keeps its remainders in the
coordinates of their decompositions, on which D_t acts by basis matrices.
Each carried object is checked here against the one computed from scratch:
squarefree_decomposition of the denominator, and the presentation of the
field element D_t(h) over the basis.  Every form the reduction presents
keeps the loop state (conftest.check_loop_state).
"""
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algint import hermite
from algint.cli import run_record
from algint.parsing import build_curve, build_element
from algint.polyred import Decomposer
from algint.rings import QT, T_POLY, common_denominator, squarefree_decomposition
from algint.telescoper import RemainderLedger, find_dependency

from conftest import check_loop_state, small_fractions

ROOT = Path(__file__).resolve().parents[1]


def _records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


# the desk corpus, one record with a planted pole per seeded curve, and two
# whose repeated pole misses a prime of e, so that presenting inflates the
# form to e | u*v (no corpus record needs that)
DESK = _records(ROOT / "data" / "desk_corpus.jsonl")
RECORDS = DESK + [
    rec
    for rec in _records(ROOT / "tests" / "data" / "seeded_curves.jsonl")
    if rec["name"].endswith("-planted")
] + [
    {"name": "pole-off-e", "curve": "y^2 - x", "integrand": "y/(x + 1)^3"},
    {"name": "pole-off-e-telescope", "mode": "telescope",
     "curve": "y^2 - x*(x - 1)*(x - t)", "integrand": "y/(x - 2)^2"},
]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: r["name"])
def test_carried_factorisations_are_squarefree_decompositions(rec, monkeypatch):
    real_step, real_present = hermite.hermite_step, hermite._present

    def checked_step(pres, *args):
        step = real_step(pres, *args)
        if isinstance(step, hermite.StepReduced):
            assert step.rest.factors == squarefree_decomposition(step.rest.den)
        return step

    def checked_present(pres):
        out = real_present(pres)
        check_loop_state(out)
        return out

    monkeypatch.setattr(hermite, "hermite_step", checked_step)
    monkeypatch.setattr(hermite, "_present", checked_present)
    assert run_record(rec)["status"] == "ok"


def test_the_oracle_sees_reduced_steps(monkeypatch):
    # the parametrized oracle above is vacuous unless steps reduce
    steps = []
    real_step = hermite.hermite_step

    def recording(pres, *args):
        steps.append(real_step(pres, *args))
        return steps[-1]

    monkeypatch.setattr(hermite, "hermite_step", recording)
    for rec in DESK:
        run_record(rec)
    reduced = [s for s in steps if isinstance(s, hermite.StepReduced)]
    assert len(reduced) > 5
    assert any(len(s.rest.factors) > 1 for s in reduced)


# ---------------------------------------------------------------------------
# D_t of ledger remainders by basis matrices

def _moved_basis(curve):
    # y/(x - t) is integral but outside the initial module (1, y), so the
    # enlarged basis differs from the power basis
    start = Decomposer(curve).decompose(curve.gen()).basis
    return start.enlarge([build_element("y/(x-t)", curve)])


# (curve, integrand whose decomposition fixes the pair (W, V), basis or None)
PAIRS = {
    "legendre": ("y^2 - x*(x-1)*(x-t)", "1/y", None),
    "isotrivial-cubic": ("y^3 - x^2 - t", "1/y", None),
    "moving-node": ("y^2 - x*(x-1)*(x+1)*(x-t)^2", "1/y", _moved_basis),
}
_SETUPS = {}


def _setup(name):
    """(decomposer, decomposition) fixing the basis pair of PAIRS[name]."""
    if name not in _SETUPS:
        text, integrand, start = PAIRS[name]
        curve = build_curve(text, QT)
        decomposer = Decomposer(curve)
        basis = start(curve) if start else None
        dec = decomposer.decompose(build_element(integrand, curve), basis=basis)
        _SETUPS[name] = (decomposer, dec)
    return _SETUPS[name]


def _xpoly(curve, text):
    return build_element(text, curve).coords()[0].as_poly()


def _qt(a, b):
    return QT.of(T_POLY.poly([a, b]))


t_coeffs = st.builds(_qt, small_fractions, small_fractions)
# d is squarefree; x - t moves with t, and x - 1 meets the basis data
D_POOL = ("1", "x - 2", "(x + 3)*(x - 2)", "x - t - 1", "x - 1")


@st.composite
def remainders(draw, name):
    """A decomposition with random remainder coordinates over the pair."""
    decomposer, dec = _setup(name)
    ring = dec.basis.curve.xring
    n = dec.basis.curve.n

    def polys(max_degree):
        return st.lists(t_coeffs, min_size=0, max_size=max_degree + 1).map(ring.poly)

    d = _xpoly(dec.basis.curve, draw(st.sampled_from(D_POOL)))
    p = tuple(draw(polys(d.degree - 1)) for _ in range(n)) if d.degree else (ring.zero,) * n
    if not any(p):
        d = ring.one
    q = tuple(draw(polys(2)) for _ in range(n))
    return decomposer, dataclasses.replace(dec, d=d, p_nums=p, q_nums=q)


@pytest.mark.parametrize("name", PAIRS)
@settings(max_examples=12)
@given(data=st.data())
def test_dt_by_basis_matrices_matches_the_element(name, data):
    decomposer, rdec = data.draw(remainders(name))
    basis = rdec.basis
    dth = rdec.remainder_element().dt()
    pres = decomposer.dt_remainder(rdec)
    xf = basis.curve.xfrac
    assert tuple(xf.of(a, pres.den) for a in pres.numer) == basis.coords_of(dth)
    assert pres.factors == squarefree_decomposition(pres.den)
    # presented from the carried factorisation or from scratch: the same
    assert hermite._present(pres) == hermite.present(dth, basis)


def test_known_factorisation_covers_moving_and_fixed_poles():
    # d = (x - 2)*(x - t - 1) is coprime to the basis data: in D_t h its
    # fixed prime keeps multiplicity 1 and its moving prime gets 2
    decomposer, dec = _setup("legendre")
    curve = dec.basis.curve
    ring = curve.xring
    d = _xpoly(curve, "(x - 2)*(x - t - 1)")
    rdec = dataclasses.replace(dec, d=d, p_nums=(ring.zero, ring.poly([_qt(1, 1)])))
    pres = decomposer.dt_remainder(rdec)
    assert pres.factors == squarefree_decomposition(pres.den)
    for prime, mult in (("x - 2", 1), ("x - t - 1", 2)):
        r = _xpoly(curve, prime)
        assert [k for p, k in pres.factors if not p % r] == [mult]


@settings(max_examples=8)
@given(data=st.data())
def test_rebased_ledger_rows_give_the_dependency_of_the_elements(data):
    # a ledger whose second decomposition ends on an enlarged basis rebases
    # its first entry; its coordinate rows must still give the dependency
    # the field elements give
    curve = build_curve("y^2 - x*(x-1)*(x+1)*(x-t)^2", QT)
    decomposer = Decomposer(curve)
    w1 = _moved_basis(curve)
    num = data.draw(st.sampled_from(("1", "x", "x^2 - t", "2*x + t")))
    f = build_element(f"({num})/y", curve)
    ledger = RemainderLedger(decomposer, decomposer.decompose(f))
    dec1 = decomposer.decompose(ledger.entries[0].dec.remainder_element().dt(), basis=w1)
    ledger.extend(dec1, ledger.entries[0].gamma.dt() + dec1.g)
    assert ledger.basis is w1
    hs = [entry.dec.remainder_element() for entry in ledger.entries]
    for i, (entry, h) in enumerate(zip(ledger.entries, hs)):
        df = f if i == 0 else f.dt()
        assert df == entry.gamma.dx() + h
    _, element_rows = common_denominator([h.coords() for h in hs])
    rows = decomposer.remainder_rows([entry.dec for entry in ledger.entries])
    assert find_dependency(rows) == find_dependency(element_rows)
