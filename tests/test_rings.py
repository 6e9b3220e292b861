"""Polynomial and rational-function arithmetic over exact coefficients."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algint import rings
from algint.rings import (
    QQ,
    QT,
    T_POLY,
    POLY_X_QQ,
    POLY_X_QT,
    RAT_X_QQ,
    RAT_X_QT,
    ext_gcd,
    gcd,
    invert_mod,
    is_squarefree,
    kth_root,
    lcm,
    lcm_many,
    poly_crt,
    square_part_root,
    squarefree_decomposition,
)

from conftest import polys_over_qq, ratfuncs_over_qq, small_fractions

R = POLY_X_QQ
F = RAT_X_QQ
x = R.gen


def P(*coeffs):
    """Polynomial from low-to-high coefficient list."""
    return R.poly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# frozen values

def test_divmod_matches_long_division():
    q, r = divmod(P(-1, 0, 0, 1), P(-1, 1))  # x^3-1 by x-1
    assert q == P(1, 1, 1)
    assert not r


def test_divmod_by_a_constant():
    p = P(3, 0, 2)
    assert divmod(p, R.one) == (p, R.zero)
    assert divmod(p, P(2)) == (P(Fraction(3, 2), 0, 1), R.zero)
    tx = POLY_X_QT.gen * QT.of(T_POLY.gen)  # t*x over Q(t)
    q, r = divmod(tx * tx + POLY_X_QT.one, POLY_X_QT.from_coeff(QT.of(T_POLY.gen)))
    assert q == POLY_X_QT.poly([QT.one / QT.of(T_POLY.gen), 0, QT.of(T_POLY.gen)])
    assert not r


def test_gcd_is_monic_common_factor():
    a = P(-1, 0, 1) * P(2, 1)  # (x^2-1)(x+2)
    b = P(1, 1) * P(3, 1)      # (x+1)(x+3)
    assert gcd(a, b) == P(1, 1)


def test_ext_gcd_bezout_identity_frozen():
    g, s = ext_gcd(P(0, 0, 1), P(-1, 1))  # x^2, x-1
    assert g == R.one
    (R.one - s * P(0, 0, 1)).exact_div(P(-1, 1))


def test_product_multiplies_only_nonzero_coefficient_pairs(monkeypatch):
    # x^3 + t and x^4 + 1 over Q(t) have two nonzero coefficients each, so
    # their product takes four coefficient products, whichever comes first
    tx = POLY_X_QT.from_coeff(QT.gen)
    a, b = POLY_X_QT.gen**3 + tx, POLY_X_QT.gen**4 + POLY_X_QT.one
    calls = []
    real = rings.RatFunc.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(rings.RatFunc, "__mul__", counted)
    for left, right in ((a, b), (b, a)):
        calls.clear()
        prod = left * right
        assert len(calls) == 4
        assert prod == POLY_X_QT.gen**7 + tx * POLY_X_QT.gen**4 + POLY_X_QT.gen**3 + tx


def test_lcm_of_coprime_is_product():
    assert lcm(P(0, 1), P(1, 1)) == P(0, 1, 1)
    assert lcm_many([P(0, 1), P(0, 1), P(1, 1)]) == P(0, 1, 1)


def test_squarefree_decomposition_frozen():
    p = P(1, 1) ** 3 * P(0, 1) ** 2 * P(-2, 1) * 4
    parts = squarefree_decomposition(p)
    assert p.lc == Fraction(4)
    assert [m for _, m in parts] == [1, 2, 3]
    table = {m: f for f, m in parts}
    assert table[3] == P(1, 1)
    assert table[2] == P(0, 1)
    assert table[1] == P(-2, 1)


def test_square_part_root_frozen():
    p = P(1, 1) ** 3 * P(0, 1) ** 2
    # square part is (x+1)^2 * x^2, its root (x+1)*x
    assert square_part_root(p) == P(0, 1) * P(1, 1)


def test_is_squarefree():
    assert is_squarefree(P(1, 1) * P(0, 1))
    assert not is_squarefree(P(0, 0, 1))


def test_invert_mod_frozen():
    inv = invert_mod(P(1, 1), P(0, 0, 1))  # (x+1)^-1 mod x^2 = 1 - x
    assert (inv * P(1, 1)) % P(0, 0, 1) == R.one


def test_poly_crt_two_moduli():
    r, mod = poly_crt([(P(1), P(0, 1)), (P(2), P(-1, 1))])
    assert mod == P(0, 1) * P(-1, 1)
    assert r % P(0, 1) == P(1)
    assert r % P(-1, 1) == P(2)


def test_poly_str_canonical():
    assert str(P(1, -2, 1)) == "x^2 - 2*x + 1"
    assert str(P(0, Fraction(1, 2))) == "1/2*x"
    assert str(R.zero) == "0"
    assert str(F.of(P(1), P(0, 1))) == "1/x"


def test_ratfunc_normalizes_to_monic_denominator():
    r = F.of(P(0, 2), P(0, 0, 4))  # 2x / 4x^2
    assert r.den.lc == 1
    assert r == F.of(P(1), P(0, 2))


def test_ratfunc_derivative_quotient_rule():
    r = F.of(R.one, P(0, 1))  # 1/x
    assert r.derivative() == F.of(P(-1), P(0, 0, 1))
    assert (r * r).derivative() == F.of(P(-2), P(0, 0, 0, 1))
    # ((t*x + 1)/x)_t = 1: the t-free factor x cancels
    assert RAT_X_QT.of(X * t + 1, X).derivative(dt_xpoly) == RAT_X_QT.one


# ---------------------------------------------------------------------------
# algebraic laws

@given(polys_over_qq(), polys_over_qq(nonzero=True))
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys_over_qq(nonzero=True), polys_over_qq(nonzero=True))
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert g.lc == 1
    assert not a % g
    assert not b % g


@given(polys_over_qq(), polys_over_qq(nonzero=True))
def test_ext_gcd_identity(a, b):
    g, s = ext_gcd(a, b)
    # the Bezout identity: b divides g - s*a, the quotient is t
    (g - s * a).exact_div(b)


@given(polys_over_qq(nonzero=True), polys_over_qq(nonzero=True))
def test_gcd_lcm_product(a, b):
    assert gcd(a, b) * lcm(a, b) == (a * b).monic()


@given(polys_over_qq(nonzero=True))
def test_squarefree_decomposition_reassembles(p):
    prod = R.from_coeff(p.lc)
    for f, m in squarefree_decomposition(p):
        assert is_squarefree(f)
        assert f.lc == 1
        prod = prod * f ** m
    assert prod == p


@given(polys_over_qq(nonzero=True))
def test_square_part_root_squared_divides(p):
    r = square_part_root(p)
    assert not p % (r * r)


@given(polys_over_qq(), polys_over_qq())
def test_derivative_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(ratfuncs_over_qq(), ratfuncs_over_qq())
def test_ratfunc_derivative_additive(ra, rb):
    assert (ra + rb).derivative() == ra.derivative() + rb.derivative()


@given(ratfuncs_over_qq(), ratfuncs_over_qq())
def test_ratfunc_field_ops(ra, rb):
    assert ra + rb == rb + ra
    assert ra * rb == rb * ra
    if rb:
        assert (ra / rb) * rb == ra


@given(ratfuncs_over_qq())
def test_ratfunc_coprime_normal_form(r):
    if r:
        assert gcd(r.num, r.den) == R.one
    assert r.den.lc == 1


# ---------------------------------------------------------------------------
# gcd shortcuts and Henrici arithmetic against their textbook definitions

def euclid(p, q):
    """Plain Euclid, the definition the shortcuts in gcd must agree with."""
    while q:
        p, q = q, p % q
    return p.monic() if p else p


t = QT.of(T_POLY.gen)
X = POLY_X_QT.gen


def qt_elements():
    coeffs = st.lists(small_fractions, min_size=1, max_size=3)
    return st.builds(
        lambda n, d: QT.of(T_POLY.poly(n), T_POLY.poly(d)),
        coeffs,
        coeffs.filter(any),
    )


def polys_over_qt(max_degree=2):
    return st.lists(qt_elements(), min_size=1, max_size=max_degree + 1).map(
        POLY_X_QT.poly
    )


@given(polys_over_qq(), polys_over_qq(), polys_over_qq(max_degree=2))
def test_gcd_matches_euclid_over_qq(a, b, g):
    assert gcd(a, b) == euclid(a, b)
    assert gcd(a * g, b * g) == euclid(a * g, b * g)


@given(polys_over_qt(), polys_over_qt(), polys_over_qt(max_degree=1))
def test_gcd_matches_euclid_over_qt(a, b, g):
    assert gcd(a, b) == euclid(a, b)
    assert gcd(a * g, b * g) == euclid(a * g, b * g)


def _product(polys, one=R.one):
    out = one
    for p in polys:
        out = out * p
    return out


# denominators drawn from a few factors, so that operands often share one
_FACTORS = (P(0, 1), P(-1, 1), P(1, 1), P(1, 0, 1))
shared_ratfuncs = st.builds(
    lambda num, picks: F.of(num, _product(picks)),
    polys_over_qq(),
    st.lists(st.sampled_from(_FACTORS), max_size=3),
)


def _check_field_ops(r, s):
    field = r.field
    assert r + s == field.of(r.num * s.den + s.num * r.den, r.den * s.den)
    assert r - s == field.of(r.num * s.den - s.num * r.den, r.den * s.den)
    assert r * s == field.of(r.num * s.num, r.den * s.den)
    if s:
        assert r / s == field.of(r.num * s.den, r.den * s.num)
    for k in (-2, 0, 3):
        if k >= 0:
            assert r**k == field.of(r.num**k, r.den**k)
        elif r:
            assert r**k == field.of(r.den ** -k, r.num ** -k)


@given(shared_ratfuncs, shared_ratfuncs)
def test_ratfunc_ops_match_textbook_formulas(r, s):
    _check_field_ops(r, s)


@given(polys_over_qt(max_degree=1), polys_over_qt(max_degree=1), qt_elements())
def test_ratfunc_ops_match_textbook_formulas_over_qt(a, b, c):
    den = X + t  # a shared factor in x over Q(t)
    _check_field_ops(RAT_X_QT.of(a, den * b if b else den), RAT_X_QT.of(den * c, X))


def test_gcd_constant_and_zero_arguments():
    assert gcd(P(5), P(1, 1)) == R.one
    assert gcd(P(2, 2), P(3)) == R.one
    assert gcd(R.zero, R.zero) == R.zero
    assert gcd(R.zero, P(2, 2)) == P(1, 1)
    assert gcd(P(2, 2), R.zero) == P(1, 1)
    assert gcd(R.zero, P(7)) == R.one


def test_gcd_falls_back_when_leading_coefficient_vanishes():
    # t - t0 vanishes at the evaluation point, so the image of g is constant
    # and the images of p and q are coprime although p and q are not
    t0 = QT.from_int(rings._POINTS["t"])
    g = POLY_X_QT.poly([1, t - t0])
    p, q = g * (X + 2), g * (X + 3)
    assert not rings._coprime_mod(p, q)
    assert gcd(p, q) == g.monic()


def test_gcd_falls_back_when_a_denominator_is_the_prime():
    g = P(Fraction(1, rings._PRIME), 1)
    p, q = g * P(2, 1), g * P(3, 1)
    assert not rings._coprime_mod(p, q)
    assert gcd(p, q) == g


def test_gcd_falls_back_on_an_unlucky_prime():
    # x + prime and x have the same image but are coprime
    p, q = P(rings._PRIME, 1), P(0, 1)
    assert not rings._coprime_mod(p, q)
    assert gcd(p, q) == R.one


def test_coprime_certificate_accepts_coprime_pairs():
    assert rings._coprime_mod(P(1, 1) * P(2, 1), P(3, 1))
    assert rings._coprime_mod(POLY_X_QT.poly([t, 1]), POLY_X_QT.poly([1 / t, t, 1]))


def test_gcd_over_qt_matches_sympy():
    sympy = pytest.importorskip("sympy")
    ts, xs = sympy.symbols("t x")
    domain = sympy.QQ.frac_field(ts)

    def in_t(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * ts**i
            for i, c in enumerate(p.coeffs)
        )

    def to_sympy(p):
        expr = sum(in_t(c.num) / in_t(c.den) * xs**k for k, c in enumerate(p.coeffs))
        return sympy.Poly(expr, xs, domain=domain)

    @given(polys_over_qt(), polys_over_qt(), polys_over_qt(max_degree=1))
    def check(a, b, g):
        p, q = a * g, b * g
        if p or q:
            assert to_sympy(gcd(p, q)) == sympy.gcd(to_sympy(p), to_sympy(q))

    check()


# ---------------------------------------------------------------------------
# the quotient rule against its textbook definition


def dt_xpoly(p):
    """d/dt on Q(t)[x], coefficient by coefficient."""
    return POLY_X_QT.poly([c.derivative() for c in p.coeffs])


def _check_quotient_rule(r, dpoly=None):
    """r' must equal of(n'd - nd', d^2): the same reduced fraction."""
    n, d = r.num, r.den
    if dpoly is None:
        got, dn, dd = r.derivative(), n.derivative(), d.derivative()
    else:
        got, dn, dd = r.derivative(dpoly), dpoly(n), dpoly(d)
    assert got == r.field.of(dn * d - n * dd, d * d)


@given(shared_ratfuncs)
def test_quotient_rule_matches_textbook_over_qq(r):
    _check_quotient_rule(r)


@given(qt_elements())
def test_quotient_rule_matches_textbook_over_qt(c):
    _check_quotient_rule(c)


# factors of denominators over Q(t): two t-free, three not
_QT_FACTORS = (X, X - 1, X + t, X - t, X * X + t)


def _t_free_plus(a, b):
    """a + t*x*b with a t-free: its t-derivative is divisible by x."""
    return POLY_X_QT.poly(a.coeffs) + X * b * t


qt_ratfuncs = st.builds(
    lambda num, picks: RAT_X_QT.of(num, _product(picks, POLY_X_QT.one)),
    st.one_of(
        polys_over_qt(max_degree=1),
        st.builds(_t_free_plus, polys_over_qq(max_degree=2), polys_over_qt(max_degree=0)),
    ),
    # two factors at most: the textbook reference runs Euclid over Q(t)[x]
    st.lists(st.sampled_from(_QT_FACTORS), max_size=2),
)


@given(qt_ratfuncs)
def test_quotient_rule_matches_textbook_over_qt_x(r):
    _check_quotient_rule(r)
    _check_quotient_rule(r, dt_xpoly)


@pytest.mark.parametrize(
    "num, den",
    [
        pytest.param(X * t + 1, X, id="(t*x + 1)/x"),  # the t-free x cancels
        pytest.param(X * t, X * X, id="t/x^2"),
        pytest.param(POLY_X_QT.one, X * X * (X + t), id="1/(x^2*(x + t))"),
        pytest.param(X, (X - t) * (X - t), id="x/(x - t)^2"),
    ],
)
def test_quotient_rule_frozen_over_qt_x(num, den):
    r = RAT_X_QT.of(num, den)
    _check_quotient_rule(r)
    _check_quotient_rule(r, dt_xpoly)


# ---------------------------------------------------------------------------
# k-th roots through the tower


def test_square_root_frozen():
    assert kth_root(Fraction(9, 4), 2) == Fraction(3, 2)
    assert kth_root(Fraction(2), 2) is None
    assert kth_root(Fraction(-4), 2) is None
    assert kth_root(R.zero, 2) == R.zero
    assert kth_root(P(1, 2, 1), 2) == P(1, 1)
    assert kth_root(P(0, 0, 4), 2) == P(0, 2)
    assert kth_root(P(0, 0, 2), 2) is None
    assert kth_root(P(0, 0, 0, 1), 2) is None
    assert kth_root(F.of(P(4), P(1, 2, 1)), 2) == F.of(P(2), P(1, 1))
    assert kth_root(RAT_X_QT.of(X * X * t * t), 2) == RAT_X_QT.of(X * t)
    assert kth_root(RAT_X_QT.of(X * X * t), 2) is None


def test_kth_root_frozen():
    assert kth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert kth_root(Fraction(16, 81), 4) == Fraction(2, 3)
    assert kth_root(Fraction(-16), 4) is None
    assert kth_root(Fraction(3**90 + 1) ** 5, 5) == Fraction(3**90 + 1)
    assert kth_root(Fraction(3**90 + 1) ** 5 + 1, 5) is None
    assert kth_root(P(0, 0, 0, -8), 3) == P(0, -2)
    assert kth_root(P(1, 2, 1), 3) is None
    # degree 3, but x^2*(x+1) is no cube
    assert kth_root(P(0, 0, 1, 1), 3) is None
    assert kth_root(F.of(P(1), P(0, 0, 0, 1)), 3) == F.of(P(1), P(0, 1))
    assert kth_root(RAT_X_QT.of(X**4 * t**4), 4) == RAT_X_QT.of(X * t)


@given(ratfuncs_over_qq())
def test_square_root_of_a_square(r):
    s = kth_root(r * r, 2)
    assert s is not None and s * s == r * r


@given(ratfuncs_over_qq(), st.integers(min_value=3, max_value=5))
def test_kth_root_of_a_kth_power(r, k):
    s = kth_root(r**k, k)
    assert s is not None and s**k == r**k
