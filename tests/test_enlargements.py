"""Each module enlargement adjoins the one element its lemma certifies.

Three sites enlarge a module: the Hermite update (Bronstein's lemma on the
row kernel of a degenerate step), the finite repair of a basis whose e is
not squarefree, and the repair of the basis at infinity.  For each, the
lemma holds on every element it could pick, and the site calls its
integrality oracle once per enlargement.
"""
import pytest

from algint import algfield, hermite, polyred
from algint.algfield import (
    AlgElem,
    FieldBasis,
    _repair_suitability,
    initial_suitable_basis,
    power_basis,
)
from algint.hermite import basis_update, hermite_step, lazy_hermite_reduce, present
from algint.parsing import build_curve, build_element
from algint.polyred import (
    _max_deg,
    _suitable_at_inf,
    _val_inf,
    start_at_infinity,
    suitable_at_infinity,
)
from algint.rings import QQ, squarefree_decomposition

from conftest import RANDOM_QUARTIC, REPAIR_CUBIC, REPAIR_QUARTIC, count_calls

FINITE = pytest.mark.parametrize(
    "text", [REPAIR_CUBIC, REPAIR_QUARTIC], ids=["cubic", "quartic"]
)
AT_INFINITY = pytest.mark.parametrize(
    "text", [REPAIR_QUARTIC, RANDOM_QUARTIC], ids=["ci-quartic", "random-quartic"]
)


# ---------------------------------------------------------------------------
# finite repair

def _unsuitable_bases(text):
    """The power basis of the curve, each basis its repairs lead through,
    and (on the cubic) an enlargement by an update element that leaves e
    non-squarefree; only those with a non-squarefree e."""
    curve = build_curve(text, QQ)
    bases = [power_basis(curve)]
    while not bases[-1].e_squarefree:
        bases.append(_repair_suitability(bases[-1]))
    if text == REPAIR_CUBIC:
        breaking = build_element(
            "((5/3*x + 2/27)/x^2)*y^2 + ((-10/9*x - 2/9)/x)*y - 7/27*x", curve
        )
        bases.append(bases[-1].enlarge([breaking]))
    return [b for b in bases if not b.e_squarefree]


@FINITE
def test_repeated_factor_quotients_are_new_integral_elements(text):
    # for p squarefree and w integral, p*w' is integral; so with p^2 | e,
    # (1/p) * M_i*W = (e/p^2) * (p*w_i') is integral, and it lies outside
    # the module exactly when the row M_i is not 0 mod p
    checked = 0
    for basis in _unsuitable_bases(text):
        for p in (p for p, mult in squarefree_decomposition(basis.e) if mult >= 2):
            rows = [row for row in basis.mmat if any(a % p for a in row)]
            assert rows  # e is the least common denominator
            for row in rows:
                theta = basis.element(p, row)
                assert theta.is_integral()
                assert not basis.member(theta)
                checked += 1
    assert checked >= (2 if text == REPAIR_CUBIC else 1)


@FINITE
def test_each_suitability_repair_calls_the_oracle_once(text, monkeypatch):
    counts = {}
    count_calls(monkeypatch, counts, AlgElem, "char_poly")
    count_calls(monkeypatch, counts, algfield, "_repair_suitability", "repairs")
    basis = initial_suitable_basis(build_curve(text, QQ))
    assert basis.e_squarefree
    assert counts["repairs"] >= 1
    assert counts["char_poly"] == counts["repairs"]


# ---------------------------------------------------------------------------
# repair at infinity

@AT_INFINITY
def test_scaled_derivatives_at_infinity_are_new_integral_elements(text):
    # x*v' is integral at infinity for v integral there, and k >= 2, so
    # x^(3-k) * v_i' = x^(2-k) * (x*v_i') is; its V-coordinates
    # x^(3-k)/a * B_i have valuation -1 where B_i reaches the top degree
    curve = build_curve(text, QQ)
    vb = FieldBasis(curve, start_at_infinity(curve))
    assert not _suitable_at_inf(vb)
    top = _max_deg(vb.mmat)
    k = 2 + top - vb.e.degree
    assert k >= 2
    xf = curve.xfrac
    scale = xf.gen ** (3 - k) / xf.of(vb.e)
    rows = [row for row in vb.mmat if any(p.degree == top for p in row)]
    assert rows
    for row in rows:
        coords = [scale * xf.of(p) for p in row]
        assert min(_val_inf(c) for c in coords) == -1
        assert vb.combine(coords).is_integral_at_infinity()


def test_each_repair_at_infinity_calls_the_oracle_once(monkeypatch):
    counts = {}
    count_calls(monkeypatch, counts, AlgElem, "char_poly")
    count_calls(monkeypatch, counts, polyred, "_repair_at_infinity", "repairs")
    inf = suitable_at_infinity(build_curve(REPAIR_QUARTIC, QQ))
    assert _suitable_at_inf(inf)
    assert counts == {"char_poly": 1, "repairs": 1}


# ---------------------------------------------------------------------------
# Hermite update

@FINITE
def test_each_module_update_calls_the_oracle_once(text, monkeypatch):
    # the update adjoins the first row kernel quotient, which the lemma
    # certifies, so the integrality oracle runs once per update (and once
    # per suitability repair, the other enlargement of the reduction)
    curve = build_curve(text, QQ)
    counts = {}
    count_calls(monkeypatch, counts, AlgElem, "char_poly")
    count_calls(monkeypatch, counts, hermite, "basis_update", "updates")
    count_calls(monkeypatch, counts, algfield, "_repair_suitability", "repairs")
    f = build_element("y/x^2", curve)
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    assert counts["updates"] == len(result.adjoined) >= 1
    assert counts["char_poly"] == counts["updates"] + counts["repairs"]
    assert f == result.g_part.dx() + result.remainder.element()


def test_update_adjoins_the_first_row_kernel_quotient():
    curve = build_curve(REPAIR_CUBIC, QQ)
    basis = initial_suitable_basis(curve)
    step = hermite_step(present(build_element("y/x^2", curve), basis))
    leaf = step.outcome.leaves[0]
    assert leaf.status == step.outcome.status == "inconsistent"
    assert basis_update(step) == basis.element(leaf.modulus, leaf.kernel[0])
    assert str(basis_update(step)) == "1/x^2*y^2"
