"""Function-field elements, bases, derivations, and integrality tests."""
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algint.algfield import (
    AlgElem,
    Curve,
    FieldBasis,
    initial_suitable_basis,
    power_basis,
)
from algint.errors import CurveReducible, DomainError, PreconditionError, RankDeficient
from algint.linalg import det
from algint.parsing import build_curve, build_element
from algint.rings import QQ, QT, POLY_X_QQ, RAT_X_QQ, T_POLY, PolyRing, is_squarefree

from conftest import (
    count_calls,
    curve_elements,
    discriminant,
    elem,
    module_equal,
    polys_over_qq,
    small_fractions,
    trace,
)

R = POLY_X_QQ
ROOT = Path(__file__).resolve().parents[1]


def P(*coeffs):
    return R.poly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# curve and element arithmetic

def test_curve_is_monic_and_tracks_lead(parabola):
    assert parabola.n == 2
    assert parabola.m.lc == parabola.yring.coeff.one

    scaled = build_curve("x*y^2 - 1", QQ)
    assert scaled.m.lc == scaled.yring.coeff.one
    assert str(scaled.lead) == "x"


def test_element_arithmetic_respects_relation(parabola):
    y = parabola.gen()
    assert y * y == parabola.from_x(parabola.xfrac.gen)
    assert (y + 1) * (y - 1) == y * y - parabola.one()


def test_inverse_of_generator(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    assert y.inv() * y == parabola.one()
    assert y.inv() == y / x  # 1/y = y/x on y^2 = x


def test_zero_division_rejected(parabola):
    with pytest.raises(DomainError):
        parabola.zero().inv()


def _constants(field):
    """Small elements of the coefficient field: Q, or Q(t) with a
    denominator t + c."""
    if field == QQ:
        return small_fractions
    return st.builds(
        lambda a, b, c: QT.of(T_POLY.poly([a, b]), T_POLY.poly([c, 1])),
        small_fractions, small_fractions, small_fractions,
    )


def _x_fractions(curve):
    polys = st.lists(_constants(curve.field), min_size=1, max_size=3).map(
        curve.xring.poly
    )
    return st.builds(curve.xfrac.of, polys, polys.filter(bool))


@pytest.mark.parametrize("name", ["parabola", "trefoil", "legendre"])
@given(st.data())
def test_y_free_factors_act_by_scaling(request, name, data):
    curve = request.getfixturevalue(name)
    a = curve.from_coords([data.draw(_x_fractions(curve)) for _ in range(curve.n)])
    c = data.draw(st.one_of(_constants(curve.field), _x_fractions(curve)))
    s = curve.from_x(c)
    product = AlgElem(curve, (a.poly * s.poly) % curve.m)
    assert a * s == s * a == product
    assert a * c == c * a == product
    if s:
        assert s.inv() * s == curve.one()
        assert (a / s) * s == a
        assert (a / c) * c == a
    else:
        with pytest.raises(DomainError, match="inversion of zero"):
            s.inv()


@pytest.mark.parametrize(
    "text, calls",
    [("(3)/(x - 2)^3*y + (2*x)*y/(2*(x^3 - x))", 0), ("x/(x - 1) + 1/y", 1)],
)
def test_only_y_bearing_divisors_take_an_extended_gcd(
    monkeypatch, trefoil, text, calls
):
    counts = {}
    count_calls(monkeypatch, counts, Curve, "_inv_ypoly")
    build_element(text, trefoil)
    assert counts["_inv_ypoly"] == calls


def test_m_y_is_inverted_once_per_curve(monkeypatch):
    # y' under d/dx and under d/dt both divide by m_y(y)
    counts = {}
    count_calls(monkeypatch, counts, Curve, "_inv_ypoly")
    curve = build_curve("y^2 - x*(x - 1)*(x - t)", QT)
    y = curve.gen()
    dx, dt = y.dx(), y.dt()
    assert counts["_inv_ypoly"] == 1
    assert (y.dx(), y.dt(), (y * y).dt()) == (dx, dt, 2 * y * dt)
    assert counts["_inv_ypoly"] == 1


def test_reducible_curve_detected_on_inversion():
    # past degree 2 a curve that is no binomial is refuted only when an
    # inversion meets its factor: here (y - x)*(y^2 + x)
    curve = build_curve("y^3 - x*y^2 + x*y - x^2", QQ)
    y = curve.gen()
    x = curve.from_x(curve.xfrac.gen)
    with pytest.raises(CurveReducible):
        (y - x).inv()


@pytest.mark.parametrize(
    "text, field, factor",
    [
        ("y^2 - x^2", QQ, "y - x"),
        ("y^2 - 4*x^2", QQ, "y - 2*x"),
        ("y^2 - t^2*x^2", QT, "y - t*x"),
        ("y^2 + 2*x*y + x^2", QQ, "y + x"),  # discriminant 0
    ],
    ids=str,
)
def test_reducible_quadratic_curve_refuted(text, field, factor):
    with pytest.raises(CurveReducible, match=re.escape(f"discovered factor {factor}") + "$"):
        build_curve(text, field)


@pytest.mark.parametrize(
    "text, field",
    [
        ("y^2 - 2*x^2", QQ),
        ("y^2 - t*x^2", QT),
        ("y^2 - x^2*(x + 1)", QQ),  # node
        ("y^2 - x^3", QQ),  # cusp
        ("y^2 - x*(x - 1)*(x - t)", QT),  # Legendre
        ("y^2 - x*(x - 1)*(x - t)*(x + t)", QT),
        ("x*y^2 - 1", QQ),
    ],
    ids=str,
)
def test_irreducible_quadratic_curve_accepted(text, field):
    assert build_curve(text, field).n == 2


def test_quadratic_reducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs, ys = sympy.symbols("x y")
    yring = PolyRing(RAT_X_QQ, "y")

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * xs**k
            for k, c in enumerate(p.coeffs)
        )

    @given(polys_over_qq(), polys_over_qq(), st.booleans())
    def check(a, b, product):
        # half the time (y + a)(y + b), otherwise y^2 + a*y + b
        c1, c0 = (a + b, a * b) if product else (a, b)
        m = yring.poly([RAT_X_QQ.coerce(c0), RAT_X_QQ.coerce(c1), 1])
        try:
            Curve(m, QQ)
            refuted = False
        except CurveReducible:
            refuted = True
        expr = ys**2 + to_sympy(c1) * ys + to_sympy(c0)
        _, factors = sympy.factor_list(expr, ys, xs)
        in_y = sum(mult for fac, mult in factors if sympy.degree(fac, ys) > 0)
        assert refuted == (in_y >= 2)

    check()


@pytest.mark.parametrize(
    "text, field, factor",
    [
        ("y^4 - x^2", QQ, "y^2 - x"),
        ("y^3 - x^3", QQ, "y - x"),
        ("y^6 - x^3", QQ, "y^2 - x"),
        ("y^4 + 4*x^4", QQ, "y^2 - 2*x*y + 2*x^2"),  # p = -4*s^4
        ("y^3 - t^3*x^6", QT, "y - t*x^2"),
        ("x^3*y^3 + 8", QQ, "y + 2/x"),
    ],
    ids=str,
)
def test_reducible_binomial_curve_refuted(text, field, factor):
    with pytest.raises(CurveReducible, match=re.escape(f"discovered factor {factor}") + "$"):
        build_curve(text, field)


@pytest.mark.parametrize(
    "text, field",
    [
        ("y^3 - x^2", QQ),
        ("y^4 - x", QQ),
        ("y^4 + x^4", QQ),  # -x^4 is neither a square nor -4 times a 4th power
        ("y^6 - x^3*(x + 1)", QQ),  # even degree, yet no square
        ("y^3 - x*(x - 1)*(x - t)", QT),
        ("y^2 - x^3", QQ),  # cusp
        ("y^3 - 3*x^2*y + 2*x^3 + x^2", QQ),  # trefoil
        ("y^2 - x*(x - 1)*(x - t)", QT),  # Legendre
    ],
    ids=str,
)
def test_irreducible_curve_passes_the_binomial_test(text, field):
    assert build_curve(text, field).n >= 2


def test_binomial_reducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs, ys = sympy.symbols("x y")
    yring = PolyRing(RAT_X_QQ, "y")

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * xs**k
            for k, c in enumerate(p.coeffs)
        )

    @given(
        st.integers(min_value=3, max_value=6),
        polys_over_qq(max_degree=2),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1, -1, 2, -4, 8, -27]),
    )
    def check(n, s, k, c):
        # y^n - c*s^k: powers and the -4*s^4 shape make reducible cases common
        p = s**k * c
        m = yring.poly([RAT_X_QQ.coerce(-p)] + [0] * (n - 1) + [1])
        try:
            Curve(m, QQ)
            refuted = False
        except CurveReducible:
            refuted = True
        _, factors = sympy.factor_list(ys**n - to_sympy(p), ys, xs)
        in_y = sum(mult for fac, mult in factors if sympy.degree(fac, ys) > 0)
        assert refuted == (in_y >= 2)

    check()


def test_pow_matches_repeated_multiplication(parabola):
    y = parabola.gen()
    assert y ** 5 == y * y * y * y * y
    assert y ** 0 == parabola.one()
    assert y ** -2 == (y * y).inv()


# ---------------------------------------------------------------------------
# derivations

def test_dx_of_generator_frozen(parabola):
    y = parabola.gen()
    assert y.dx() == parabola.one() / (y + y)  # y' = 1/(2y) on y^2 = x


def test_dx_leibniz_frozen(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    lhs = (x * y).dx()
    assert lhs == y + x * y.dx()


@given(st.data())
def test_dx_is_a_derivation(parabola, data):
    f = data.draw(curve_elements(parabola, denom_pool=(P(0, 1), P(1, 1))))
    g = data.draw(curve_elements(parabola, denom_pool=(P(0, 1), P(1, 1))))
    assert (f + g).dx() == f.dx() + g.dx()
    assert (f * g).dx() == f.dx() * g + f * g.dx()


def test_dt_requires_parameter_field(parabola):
    with pytest.raises(PreconditionError):
        parabola.gen().dt()


def test_dt_on_legendre_matches_implicit_differentiation(legendre):
    y = legendre.gen()
    # differentiating y^2 = x(x-1)(x-t) in t: 2y y_t = -x(x-1)
    m_t = build_element("-x*(x - 1)", legendre)
    assert (y + y) * y.dt() == m_t
    assert y.dt() == m_t / (y + y)


def test_dt_dx_commute_on_legendre(legendre):
    f = build_element("y/(x - t)", legendre)
    assert f.dx().dt() == f.dt().dx()


@pytest.mark.parametrize("text", ["1/y", "y/(x - t)", "x*y/(x - 2)^2", "t/(x*y)"])
def test_dt_dx_commute_on_quartic(text):
    curve = build_curve("y^2 - x*(x - 1)*(x - t)*(x + t)", QT)
    f = build_element(text, curve)
    assert f.dx().dt() == f.dt().dx()


# ---------------------------------------------------------------------------
# trace, norm, characteristic polynomial

def test_char_poly_of_generator(parabola):
    c1, c2 = parabola.gen().char_poly()
    assert not c1
    assert c2 == -parabola.xfrac.gen


@given(small_fractions, small_fractions)
def test_char_poly_quadratic_formula(parabola, a, b):
    # for f = a + b*y on y^2 = x: T^2 - 2a T + (a^2 - b^2 x)
    xr = parabola.xfrac
    f = parabola.from_x(xr.from_int(0) + a) + parabola.gen() * parabola.from_x(
        xr.coerce(b)
    )
    c1, c2 = f.char_poly()
    assert c1 == -(xr.coerce(2 * a))
    assert c2 == xr.coerce(a * a) - xr.coerce(b * b) * xr.gen
    assert trace(f) == xr.coerce(2 * a)


@settings(max_examples=10)
@given(st.data())
def test_cayley_hamilton(trefoil, data):
    f = data.draw(curve_elements(trefoil, max_degree=1))
    coeffs = f.char_poly()
    # T^n + c1 T^(n-1) + ... + cn, evaluated at f itself
    acc = trefoil.one()
    value = trefoil.zero()
    for c in reversed(coeffs):
        value = value + trefoil.from_x(c) * acc
        acc = acc * f
    assert acc + value == trefoil.zero()


def test_trace_is_linear(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    f, g = x + y, x * y
    assert trace(f + g) == trace(f) + trace(g)


# ---------------------------------------------------------------------------
# integrality

def test_integrality_frozen_table(parabola, cusp):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    assert y.is_integral()
    assert (x * y).is_integral()
    assert not (y / x).is_integral()

    # on the cusp y^2 = x^3 the power basis is not normal: y/x is integral
    yc = cusp.gen()
    xc = cusp.from_x(cusp.xfrac.gen)
    assert (yc / xc).is_integral()
    assert not (yc / (xc * xc)).is_integral()


def test_integrality_at_infinity_frozen(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    assert not y.is_integral_at_infinity()
    assert (y / x).is_integral_at_infinity()
    assert parabola.one().is_integral_at_infinity()
    assert not x.is_integral_at_infinity()


# ---------------------------------------------------------------------------
# discriminants

def test_discriminant_frozen_values(parabola):
    y = parabola.gen()
    one = parabola.one()
    w = elem(parabola, "(x^2 + 1)*y")
    assert str(discriminant((one, y))) == "4*x"
    assert str(discriminant((one, w))) == "4*x^5 + 8*x^3 + 4*x"  # 4(x^2+1)^2 x


@given(polys_over_qq(max_degree=2))
def test_discriminant_transform_rule(parabola, q):
    # W = (1, y) -> (1, y + q*1) is unimodular, discriminant unchanged;
    # scaling the second vector by x multiplies it by x^2
    y = parabola.gen()
    one = parabola.one()
    qx = parabola.from_x(parabola.xfrac.of(q))
    x = parabola.from_x(parabola.xfrac.gen)
    base = discriminant((one, y))
    assert discriminant((one, y + qx * one)) == base
    assert discriminant((one, x * y)) == parabola.xfrac.gen ** 2 * base


def _corpus_curves():
    """(curve, field) of every desk-corpus and seeded curve, once each."""
    out = {}
    for name in ("data/desk_corpus.jsonl", "tests/data/seeded_curves.jsonl"):
        for line in (ROOT / name).read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                rec = json.loads(line)
                out[rec["curve"]] = QT if rec["mode"] == "telescope" else QQ
    return sorted(out.items())


@pytest.mark.parametrize("text, field", _corpus_curves())
def test_newton_sum_discriminant_is_the_trace_form(text, field):
    # compute_u's disc(W) = det(trans)^2 * disc(1, y, ..., y^(n-1)), the
    # second factor from Newton's identities, against the trace form
    curve = build_curve(text, field)
    for basis in (power_basis(curve), initial_suitable_basis(curve)):
        newton = det(basis.trans, curve.xfrac) ** 2 * curve.power_discriminant
        assert newton == discriminant(basis.elements)


# ---------------------------------------------------------------------------
# bases and modules

def test_derivation_data_frozen_for_reference_bases(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    one = parabola.one()

    b1 = FieldBasis(parabola, (one, y))
    assert str(b1.e) == "x"
    assert [[str(c) for c in row] for row in b1.mmat] == [["0", "0"], ["0", "1/2"]]

    b2 = FieldBasis(parabola, (x, x * y))
    assert str(b2.e) == "x"
    assert [[str(c) for c in row] for row in b2.mmat] == [["1", "0"], ["0", "3/2"]]

    b3 = FieldBasis(parabola, (x, y))
    assert str(b3.e) == "x"

    b4 = FieldBasis(parabola, (x, (x + one) * y))
    assert str(b4.e) == "x^2 + x"
    assert not b4.e_squarefree or is_squarefree(b4.e)


def test_basis_requires_independent_elements(parabola):
    y = parabola.gen()
    with pytest.raises(RankDeficient):
        FieldBasis(parabola, (y, y + y))


def test_coords_roundtrip_frozen(parabola):
    basis = FieldBasis(parabola, (parabola.one(), parabola.gen()))
    f = elem(parabola, "y/x + 3")
    coords = basis.coords_of(f)
    assert [str(c) for c in coords] == ["3", "1/x"]
    assert basis.combine(coords) == f


@given(st.data())
def test_coords_of_combine_roundtrip(parabola, data):
    y = parabola.gen()
    one = parabola.one()
    basis = FieldBasis(parabola, (one, elem(parabola, "(x^2 + 1)*y")))
    f = data.draw(curve_elements(parabola, denom_pool=(P(0, 1), P(1, 0, 1))))
    assert basis.combine(basis.coords_of(f)) == f


def test_membership_frozen(parabola):
    basis = FieldBasis(parabola, (parabola.one(), parabola.gen()))
    assert basis.member(elem(parabola, "x^3 + x*y"))
    assert not basis.member(elem(parabola, "y/x"))


def test_enlarge_reaches_full_power_module(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    start = FieldBasis(parabola, (x, y))
    bigger = start.enlarge([x + parabola.one()])
    target = FieldBasis(parabola, (parabola.one(), y))
    assert module_equal(bigger, target)
    assert not module_equal(target, start)


def test_module_contains_in_both_directions(parabola):
    y = parabola.gen()
    sub = FieldBasis(parabola, (parabola.from_x(parabola.xfrac.gen), y))
    sup = FieldBasis(parabola, (parabola.one(), y))
    assert sup.module_contains(sub)
    assert not sub.module_contains(sup)


def test_power_basis_handles_nontrivial_leading_coefficient():
    curve = build_curve("x*y^2 - 1", QQ)
    basis = power_basis(curve)
    assert all(w.is_integral() for w in basis.elements)
    squared = basis.elements[1] * basis.elements[1]
    assert squared == curve.from_x(curve.xfrac.gen)  # (xy)^2 = x


def test_initial_suitable_basis_certificates(parabola, trefoil, legendre):
    # the power basis of the last curve has a non-squarefree e
    repaired = build_curve("y^3 + x*y^2 + x^4", QQ)
    assert not power_basis(repaired).e_squarefree
    for curve in (parabola, trefoil, legendre, repaired):
        basis = initial_suitable_basis(curve)
        assert all(w.is_integral() for w in basis.elements)
        assert basis.e_squarefree
        assert is_squarefree(basis.e)
        assert basis.module_contains(power_basis(curve))


@given(polys_over_qq(max_degree=2))
def test_e_invariant_under_unimodular_change(parabola, q):
    y = parabola.gen()
    one = parabola.one()
    basis = FieldBasis(parabola, (one, elem(parabola, "(x^2 + 1)*y")))
    w1, w2 = basis.elements
    qx = parabola.from_x(parabola.xfrac.of(q))
    changed = FieldBasis(parabola, (w1, w2 + qx * w1))
    assert changed.e == basis.e
    swapped = FieldBasis(parabola, (w2 + qx * w1, w1))
    assert swapped.e == basis.e
