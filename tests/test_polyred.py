"""Post-Hermite reduction: infinity bases, image complements, decomposition."""
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algint.algfield import AlgElem, FieldBasis
from algint.hermite import lazy_hermite_reduce
from algint.parsing import build_curve, build_element
from algint import polyred
from algint.errors import PreconditionError
from algint.linalg import inverse, mat_mul
from algint.polyred import (
    ComplementNV,
    Decomposer,
    PhiMap,
    _repair_at_infinity,
    _suitable_at_inf,
    _val_inf,
    additive_decompose,
    antiderivative,
    compute_u,
    euclid_split,
    integer_roots,
    start_at_infinity,
    suitable_at_infinity,
)
from algint.rings import QQ, QT, POLY_X_QQ, POLY_X_QT, T_POLY, gcd

from conftest import (
    apply_tilde,
    complement_is_final,
    count_calls,
    curve_elements,
    elem,
    reference_complement,
    small_fractions,
)

R = POLY_X_QQ
ROOT = Path(__file__).resolve().parents[1]


def P(*coeffs):
    return R.poly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# behaviour at infinity

def test_start_at_infinity_frozen(parabola):
    assert start_at_infinity(parabola) == [parabola.one(), elem(parabola, "y/x")]


def test_suitable_at_infinity_without_repair_builds_one_basis_and_no_char_poly(
    parabola, legendre, monkeypatch
):
    counts = {"char_poly": 0, "FieldBasis": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(AlgElem, "char_poly", counted("char_poly", AlgElem.char_poly))
    monkeypatch.setattr(
        FieldBasis, "__init__", counted("FieldBasis", FieldBasis.__init__)
    )
    for curve in (parabola, legendre):
        counts.update(char_poly=0, FieldBasis=0)
        suitable_at_infinity(curve)
        assert counts == {"char_poly": 0, "FieldBasis": 1}


def test_infinity_basis_parabola(parabola):
    inf = suitable_at_infinity(parabola)
    assert [str(w) for w in inf.elements] == ["1", "1/x*y"]
    assert str(inf.e) == "x"
    # deg B < deg a entrywise
    assert all(b.degree < inf.e.degree for row in inf.mmat for b in row)
    # derivation identity a*V' = B*V
    xf = parabola.xfrac
    a = parabola.from_x(xf.of(inf.e))
    for i, w in enumerate(inf.elements):
        rhs = parabola.zero()
        for j, v in enumerate(inf.elements):
            rhs = rhs + parabola.from_x(xf.of(inf.mmat[i][j])) * v
        assert a * w.dx() == rhs


def test_infinity_basis_legendre(legendre):
    inf = suitable_at_infinity(legendre)
    assert [str(w) for w in inf.elements] == ["1", "1/x^2*y"]
    assert str(inf.e) == "x^3 + (-t - 1)*x^2 + t*x"
    assert all(b.degree < inf.e.degree for row in inf.mmat for b in row)


def test_repairs_at_infinity_reach_a_suitable_basis():
    # the start basis of this quartic is not suitable at infinity; an
    # enlargement of the local module makes it so
    curve = build_curve("y^4 + x^2*y^3 + x^2*y - x^3", QQ)
    start = FieldBasis(curve, start_at_infinity(curve))
    assert not _suitable_at_inf(start)
    inf = suitable_at_infinity(curve)
    assert _suitable_at_inf(inf)
    assert all(w.is_integral_at_infinity() for w in inf.elements)
    for w in start.elements:
        assert all(_val_inf(c) >= 0 for c in inf.coords_of(w))


def test_enlargement_at_infinity_adds_no_finite_pole(monkeypatch):
    # one repair of the quartic's start basis: the new basis differs from
    # the old one only at x = 0 and at infinity, so e gains at most a power
    # of x, and it holds the candidate theta over the local ring at infinity
    curve = build_curve("y^4 + x^2*y^3 + x^2*y - x^3", QQ)
    start = FieldBasis(curve, start_at_infinity(curve))
    enlarge = polyred._dvr_enlarge
    thetas = []

    def spy(vb, coords):
        thetas.append(vb.combine(coords))
        return enlarge(vb, coords)

    monkeypatch.setattr(polyred, "_dvr_enlarge", spy)
    inf = _repair_at_infinity(start)
    (theta,) = thetas
    assert start.e.degree == inf.e.degree == 10
    assert (start.e * R.gen ** inf.e.degree) % inf.e == R.zero
    assert all(_val_inf(c) >= 0 for c in inf.coords_of(theta))
    assert all(w.is_integral_at_infinity() for w in inf.elements)


def test_infinity_basis_elements_integral_at_infinity(parabola, cusp, trefoil):
    for curve in (parabola, cusp, trefoil):
        inf = suitable_at_infinity(curve)
        for w in inf.elements:
            assert w.is_integral_at_infinity()
        assert all(
            b.degree < inf.e.degree for row in inf.mmat for b in row
        )


# ---------------------------------------------------------------------------
# denominator bound and remainder splitting

def test_compute_u_frozen(parabola):
    one = parabola.one()
    w = elem(parabola, "(x^2 + 1)*y")
    basis = FieldBasis(parabola, (one, w))
    assert str(compute_u(basis, R.one)) == "x^2 + 1"
    plain = FieldBasis(parabola, (one, parabola.gen()))
    assert str(compute_u(plain, R.one)) == "1"


def test_euclid_split_identity(parabola):
    one = parabola.one()
    basis = FieldBasis(parabola, (one, parabola.gen()))
    f = elem(parabola, "y/(x*(x+1)) + 1/(x-3)")
    rem = lazy_hermite_reduce(f, basis).remainder
    d, r, s = euclid_split(rem)
    e = rem.basis.e
    for h, ri, si in zip(rem.nums, r, s):
        assert h == ri * e + si * d
        assert ri.degree < d.degree


def test_euclid_split_constant_denominator(parabola):
    one = parabola.one()
    basis = FieldBasis(parabola, (one, parabola.gen()))
    f = elem(parabola, "y/x")  # pole only inside e = x
    rem = lazy_hermite_reduce(f, basis).remainder
    assert rem.d.degree == 0
    d, r, s = euclid_split(rem)
    assert all(not ri for ri in r)


# ---------------------------------------------------------------------------
# the phi map and its complement

def _phi_as_elements(phi, inf, row):
    """(1/a) phi(row) * V computed through field arithmetic."""
    cur = inf.curve
    xf = cur.xfrac
    u_rf = xf.of(phi.u)
    combo = inf.combine([xf.of(p) / u_rf for p in row])
    return combo.dx()


def test_phi_matches_derivative_of_quotient(parabola):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    u = P(1, 0, 1)  # x^2 + 1
    comp = dec.complement(u, inf.e)
    phi = comp.phi
    row = (P(1, 2), P(0, 0, 3))
    image = apply_tilde(phi, row)
    # u^2 * phi(row) recovers ((row/u) * V)' after clearing (1/a)(1/u^2)
    cur = parabola
    xf = cur.xfrac
    lhs = _phi_as_elements(phi, inf, row)
    a_rf = xf.of(phi.a)
    u2 = xf.of(phi.u * phi.u)
    rhs = inf.combine([xf.of(c) / (a_rf * u2) for c in image])
    assert lhs == rhs


def _complement(curve, second):
    """A complement made afresh on the phi of the one Decomposer.complement
    keeps: for u = x^2 + 1 when second is None, else for the u and a that
    decompose finds over the basis (1, second)."""
    dec = Decomposer(curve)
    if second is None:
        u = P(1, 0, 1)
        built = dec.complement(u, dec.inf_basis.e * u)
    else:
        basis = FieldBasis(curve, (curve.one(), elem(curve, second)))
        out = Decomposer(curve).decompose(elem(curve, "y"), basis=basis)
        assert out.basis is basis
        built = dec.complement(out.u, out.a)
    return ComplementNV(built.phi)


def test_complement_standard_monomials_frozen(parabola):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    comp = dec.complement(P(1, 0, 1), P(0, 1) * P(1, 0, 1))  # u = x^2+1, a = x^3+x
    assert comp.standard_monomials() == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))


def test_complement_dimension_schedule_independent(parabola, cusp, trefoil):
    # inserting image rows past the proved bound must not change the
    # complement frozen there
    for curve in (parabola, cusp, trefoil):
        dec = Decomposer(curve)
        u = P(1, 0, 1)
        comp = dec.complement(u, dec.inf_basis.e * u)
        assert complement_is_final(comp)


def _leads_are_images(comp):
    """Every echelon row of the built complement is phi of its preimage."""
    usq = comp.phi.u * comp.phi.u
    return all(
        apply_tilde(comp.phi, hit["preim"]) == tuple(usq * p for p in hit["row"])
        for hit in comp.leads.values()
    )


def _desk_records():
    lines = (ROOT / "data" / "desk_corpus.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("record", _desk_records(), ids=lambda r: r["name"])
def test_desk_complement_leads_are_images(record):
    field = QT if record["mode"] == "telescope" else QQ
    curve = build_curve(record["curve"], field)
    dec = Decomposer(curve)
    dec.decompose(build_element(record["integrand"], curve))
    assert dec._complements
    assert all(_leads_are_images(comp) for comp in dec._complements.values())


@pytest.mark.parametrize(
    "curve_text, second",
    [
        ("y^2 - x^2*(x-1)", None),
        ("y^2 - x^2*(x-1)", "y"),
        ("y^2 - x^3", None),
        ("y^2 - x^3", "y"),
        ("y^3 - 3*x^2*y + 2*x^3 + x^2", None),
    ],
)
def test_singular_complement_leads_are_images(curve_text, second):
    comp = _complement(build_curve(curve_text, QQ), second)
    assert _leads_are_images(comp)
    assert complement_is_final(comp)
    assert _leads_are_images(comp)


def _reduce_identity_holds(parabola, comp, inf, row):
    """Oracle: (1/a) row*V == ((p1/u)*V)' + (1/a) q2*V in the field."""
    p1, q2 = comp.reduce(row)
    xf = parabola.xfrac
    a_rf = xf.of(comp.phi.a)
    u_rf = xf.of(comp.phi.u)
    lhs = inf.combine([xf.of(c) / a_rf for c in row])
    quotient = inf.combine([xf.of(c) / u_rf for c in p1])
    rhs = quotient.dx() + inf.combine([xf.of(c) / a_rf for c in q2])
    return lhs == rhs, q2


def test_complement_reduce_identity_frozen(parabola):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    comp = dec.complement(P(1, 0, 1), P(0, 1) * P(1, 0, 1))
    ok, q2 = _reduce_identity_holds(parabola, comp, inf, (P(0, 1, 2), P(1, 1)))
    assert ok
    monos = comp.standard_monomials()
    for j, poly in enumerate(q2):
        for k in range(poly.degree + 1):
            if poly.coeff(k):
                assert (k, j) in monos


@settings(max_examples=15)
@given(st.lists(st.lists(small_fractions, min_size=5, max_size=9),
                min_size=2, max_size=2))
def test_complement_reduce_identity_random(parabola, coeff_rows):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    comp = dec.complement(P(1, 0, 1), P(0, 1) * P(1, 0, 1))
    row = tuple(R.poly(cs) for cs in coeff_rows)
    ok, _ = _reduce_identity_holds(parabola, comp, inf, row)
    assert ok


def test_complement_handles_high_degree_late_feed(parabola):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    comp = dec.complement(P(1, 0, 1), P(0, 1) * P(1, 0, 1))
    row = (R.monomial(R.coeff.one, 40), R.zero)
    ok, _ = _reduce_identity_holds(parabola, comp, inf, row)
    assert ok


def test_complement_constant_u(parabola):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    comp = dec.complement(R.one, inf.e)
    ok, _ = _reduce_identity_holds(parabola, comp, inf, (P(3, 1, 4), P(1, 5)))
    assert ok


# ---------------------------------------------------------------------------
# the proved bound of the complement

T = QT.of(T_POLY.gen)


def _qt(c):
    return QT.coerce(Fraction(c))


@pytest.mark.parametrize(
    "coeffs, field, roots",
    [
        ((Fraction(-5),), QQ, [5]),
        ((Fraction(-11, 2), Fraction(15, 2)), QQ, [3]),  # (T - 3)(T - 5/2)
        ((Fraction(5, 2), Fraction(3, 2), Fraction(0), Fraction(0)), QQ, [-1, 0]),
        ((Fraction(0), Fraction(1)), QQ, []),  # T^2 + 1
        ((Fraction(1, 2),), QQ, []),
        ((Fraction(-12), Fraction(0), Fraction(0)), QQ, [0, 12]),
        ((-T,), QT, []),  # T - t: an integer at t = 0 only
        ((T - 3, -3 * T), QT, [3]),  # (T + t)(T - 3)
        ((_qt(-7), _qt(10)), QT, [2, 5]),
        ((-T - 1, T), QT, [1]),  # (T - 1)(T - t)
        ((1 / (T + 1),), QT, []),
    ],
)
def test_integer_roots(coeffs, field, roots):
    assert integer_roots(coeffs, field) == roots


def _hand_made(btop_diag, u, a_degree, field=QQ):
    """A complement over field for phi with u, a = x^a_degree and the
    diagonal B whose top part is btop_diag at x^(a_degree - 1), plus the
    constants below it."""
    ring = POLY_X_QQ if field == QQ else POLY_X_QT
    top = ring.monomial(field.one, a_degree - 1)
    bmat = tuple(
        tuple(top.scale(c) + ring.from_int(i + 1) if i == j else ring.zero
              for j in range(len(btop_diag)))
        for i, c in enumerate(btop_diag)
    )
    a = ring.monomial(field.one, a_degree)
    return ComplementNV(PhiMap(u=u, a=a, bmat=bmat))


@pytest.mark.parametrize(
    "btop_diag, u, field, s_star",
    [
        ((Fraction(-5), Fraction(1, 2)), P(1, 1), QQ, 7),  # root 5 + deg u = 6
        ((Fraction(-1, 3), Fraction(2)), P(1, 1), QQ, 1),  # no root: deg u
        ((Fraction(0), Fraction(7)), R.one, QQ, 1),  # root s = 0 only
        ((-T, _qt(-4)), POLY_X_QT.gen + POLY_X_QT.one, QT, 6),  # t is no integer
    ],
    ids=["root-above-deg-u", "no-root", "u-one", "over-qt"],
)
def test_complement_bound_on_hand_made_top_matrix(btop_diag, u, field, s_star):
    comp = _hand_made(btop_diag, u, 3, field)
    delta = comp.phi.a.degree - u.degree - 1
    assert comp._frozen == s_star + delta - 1
    assert all(k <= comp._frozen for k, _ in comp.leads)
    assert complement_is_final(comp)
    ring = comp.ring
    usq = u * u
    monos = set(comp.standard_monomials())
    for top in (comp._frozen + 1, comp._frozen + 5, 30):
        row = (ring.monomial(field.one, top), ring.monomial(field.from_int(2), top - 1))
        p1, q2 = comp.reduce(row)
        lhs = tuple(usq * (r - q) for r, q in zip(row, q2))
        assert apply_tilde(comp.phi, p1) == lhs
        assert all(
            (k, j) in monos for j, q in enumerate(q2) for k in range(q.degree + 1) if q.coeff(k)
        )


def test_complement_needs_monic_u_and_a_and_deg_b_below_deg_a():
    row = ((P(0, 0, 1), R.zero), (R.zero, R.zero))
    with pytest.raises(PreconditionError):
        ComplementNV(PhiMap(u=R.one, a=P(0, 0, 1), bmat=row))
    with pytest.raises(PreconditionError):
        ComplementNV(PhiMap(u=P(1, 2), a=P(0, 0, 0, 1), bmat=row))


def test_kernel_row_is_u_times_coords_of_one_and_p1_avoids_its_lead(parabola):
    dec = Decomposer(parabola)
    inf = dec.inf_basis
    u = P(1, 0, 1)
    comp = dec.complement(u, inf.e * u)
    assert len(comp._kernel) == 1
    (k, j), kappa = comp._kernel[0]
    assert not any(apply_tilde(comp.phi, kappa))
    # (kappa/u)*V is a nonzero constant: kappa is u*coords_V(1) up to scale
    value = inf.element(u, kappa).poly
    assert value.degree == 0
    assert value.lc.num.degree == 0 and value.lc.den.degree == 0
    for top in range(12):
        for comp_j in range(2):
            row = [R.zero, R.zero]
            row[comp_j] = R.monomial(Fraction(1), top)
            p1, _ = comp.reduce(tuple(row))
            assert not p1[j].coeff(k)


def _oracle_cases():
    """(label, record) for the complements decompose builds on the desk and
    seeded curves, and for u = x^2 + 1 on the criterion-8 curves."""
    seeded = (ROOT / "tests" / "data" / "seeded_curves.jsonl").read_text().splitlines()
    out = [(rec["name"], rec) for rec in _desk_records()]
    for line in seeded:
        rec = json.loads(line) if line.strip() and not line.startswith("#") else {}
        if rec.get("mode") == "decompose":
            out.append((rec["name"], rec))
    for text, field in (("y^2 - x", QQ), ("y^2 - x^3", QQ),
                        ("y^3 - 3*x^2*y + 2*x^3 + x^2", QQ),
                        ("y^2 - x*(x - 1)*(x - t)", QT)):
        out.append((f"{text} u=x^2+1", {"curve": text, "field": field}))
    return out


_ORACLE_CACHE = {}


def _oracle_pairs(label, rec):
    """Each complement of the case with its reference, built once."""
    hit = _ORACLE_CACHE.get(label)
    if hit is None:
        if "field" in rec:
            curve = build_curve(rec["curve"], rec["field"])
            dec = Decomposer(curve)
            u = curve.xring.poly([curve.field.one, curve.field.zero, curve.field.one])
            comps = [dec.complement(u, dec.inf_basis.e * u)]
        else:
            field = QT if rec["mode"] == "telescope" else QQ
            curve = build_curve(rec["curve"], field)
            dec = Decomposer(curve)
            dec.decompose(build_element(rec["integrand"], curve))
            comps = list(dec._complements.values())
        hit = _ORACLE_CACHE[label] = [
            (comp, reference_complement(comp.phi, comp.n, comp.field)) for comp in comps
        ]
    return hit


_ORACLE_CASES = dict(_oracle_cases())


@pytest.mark.parametrize("label", sorted(_ORACLE_CASES))
@settings(max_examples=4)
@given(data=st.data())
def test_complement_agrees_with_window_schedule(label, data):
    for comp, ref in _oracle_pairs(label, _ORACLE_CASES[label]):
        assert comp.standard_monomials() == ref.standard_monomials()
        assert ref._frozen <= comp._frozen
        ring, field = comp.ring, comp.field
        terms = data.draw(st.lists(
            st.tuples(st.integers(0, comp.n - 1), st.integers(0, 40), small_fractions),
            min_size=1, max_size=5,
        ))
        row = [ring.zero] * comp.n
        for j, k, c in terms:
            row[j] = row[j] + ring.monomial(field.coerce(c), k)
        assert comp.reduce(tuple(row)) == ref.reduce(tuple(row))


_ROOTS = (0, 1, -1, 2)


@st.composite
def _random_phis(draw):
    """A PhiMap over QQ with n <= 3: u = (x - r)^2*w or w, w of degree at
    most 1, a a product of up to three linear factors from the same roots
    (so it often shares one with u), and B of degree < deg a whose top
    matrix S*T*S^-1 has T upper triangular with planted eigenvalues, most
    of them integers in -4..2, so that s* often comes from a root."""
    n = draw(st.integers(1, 3))
    square = draw(st.sampled_from((None,) + _ROOTS))
    u_roots = ([square] * 2 if square is not None else []) + draw(
        st.lists(st.sampled_from(_ROOTS), max_size=1))
    a_roots = draw(st.lists(st.sampled_from(_ROOTS), min_size=1, max_size=3))
    u, a = R.one, R.one
    for r in u_roots:
        u = u * P(-r, 1)
    for r in a_roots:
        a = a * P(-r, 1)
    eigen = st.one_of(st.integers(-4, 2).map(Fraction), st.just(Fraction(1, 2)))
    upper = {(i, j): draw(small_fractions) for i in range(n) for j in range(i + 1, n)}
    tmat = [[draw(eigen) if i == j else upper.get((i, j), Fraction(0)) for j in range(n)]
            for i in range(n)]
    smat = [[Fraction(1) if i == j else Fraction(draw(st.integers(-2, 2))) if j < i
             else Fraction(0) for j in range(n)] for i in range(n)]
    btop = mat_mul(mat_mul(smat, tmat), inverse(smat, QQ))
    low = a.degree - 1
    bmat = tuple(
        tuple(R.poly([draw(small_fractions) for _ in range(low)] + [btop[i][j]])
              for j in range(n))
        for i in range(n)
    )
    return PhiMap(u=u, a=a, bmat=bmat)


@settings(max_examples=40)
@given(phi=_random_phis(), data=st.data())
def test_complement_on_random_phi_agrees_with_the_generator_feed(phi, data):
    n = len(phi.bmat)
    inserted = []
    insert = ComplementNV._insert

    def record(self, row, pre):
        inserted.append((row, pre))
        insert(self, row, pre)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ComplementNV, "_insert", record)
        comp = ComplementNV(phi)
    ref = reference_complement(phi, n, QQ)
    assert comp.standard_monomials() == ref.standard_monomials()
    usq = phi.u * phi.u
    assert all(apply_tilde(phi, pre) == tuple(usq * p for p in row) for row, pre in inserted)
    for _ in range(3):
        terms = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 20), small_fractions),
            min_size=1, max_size=5,
        ))
        row = [R.zero] * n
        for j, k, c in terms:
            row[j] = row[j] + R.monomial(c, k)
        assert comp.reduce(tuple(row)) == ref.reduce(tuple(row))


# ---------------------------------------------------------------------------
# full additive decomposition

def test_decompose_frozen_integrable(parabola):
    # f = y/x^3 certifies integrability with antiderivative -2y/(3x^2)
    f = elem(parabola, "y/x^3")
    expected = elem(parabola, "-2*y/(3*x^2)")
    one = parabola.one()
    for second in ("y", "(x^2 + 1)*y"):
        basis = FieldBasis(parabola, (one, elem(parabola, second)))
        dec = Decomposer(parabola).decompose(f, basis=basis)
        assert dec.integrable
        assert not any(dec.p_nums)
        assert not any(dec.q_nums)
        g = dec.antiderivative()
        assert g.dx() == f
        assert (g - expected).dx() == parabola.zero()
        assert g == expected


def test_decompose_frozen_u_and_a(parabola):
    one = parabola.one()
    basis = FieldBasis(parabola, (one, elem(parabola, "(x^2 + 1)*y")))
    dec = Decomposer(parabola).decompose(elem(parabola, "y/x^3"), basis=basis)
    assert str(dec.u) == "x^2 + 1"
    assert str(dec.a) == "x^3 + x"


def test_decompose_frozen_non_integrable(parabola):
    f = elem(parabola, "y/(x^2*(x+1))")
    dec = Decomposer(parabola).decompose(f)
    assert not dec.integrable
    assert dec.antiderivative() is None
    # reconstruction: f = dx(g) + remainder
    assert f == dec.g.dx() + dec.remainder_element()


@settings(max_examples=12)
@given(st.data())
def test_decompose_reconstruction_random(parabola, data):
    f = data.draw(
        curve_elements(parabola, max_degree=2,
                       denom_pool=(P(0, 1), P(0, 0, 1), P(1, 1), P(-2, 1)))
    )
    dec = Decomposer(parabola).decompose(f)
    assert f == dec.g.dx() + dec.remainder_element()
    assert gcd(dec.d, dec.basis.e) == R.one


@settings(max_examples=12)
@given(st.data())
def test_decompose_certifies_constructed_integrables(parabola, data):
    g = data.draw(
        curve_elements(parabola, max_degree=2, denom_pool=(P(0, 1), P(1, 1)))
    )
    dec = Decomposer(parabola).decompose(g.dx())
    assert dec.integrable
    recovered = dec.antiderivative()
    assert (recovered - g).dx() == parabola.zero()


@settings(max_examples=8)
@given(st.data())
def test_decompose_rejects_planted_residue(parabola, data):
    # g' is integrable; adding c/(x - 2) plants a residue at x = 2,
    # certified nonzero through the trace: res Tr(f) = 2c there
    g = data.draw(curve_elements(parabola, max_degree=1, denom_pool=(P(0, 1),)))
    c = data.draw(small_fractions.filter(bool))
    f = g.dx() + parabola.from_x(parabola.xfrac.of(R.from_coeff(c), P(-2, 1)))
    dec = Decomposer(parabola).decompose(f)
    assert not dec.integrable


def test_antiderivative_wrapper(parabola):
    f = elem(parabola, "y/x^3")
    assert antiderivative(f) == elem(parabola, "-2*y/(3*x^2)")
    assert antiderivative(elem(parabola, "y/(x^2*(x+1))")) is None


def test_additive_decompose_entry_point(parabola):
    f = elem(parabola, "y/x^3")
    dec = additive_decompose(f)
    assert dec.integrable


def test_rational_curve_degenerates_to_partial_fractions():
    line = build_curve("y - 1", QQ)
    f = build_element("1/x^2", line)
    dec = Decomposer(line).decompose(f)
    assert dec.integrable
    assert dec.antiderivative() == build_element("-1/x", line)
    assert not Decomposer(line).decompose(build_element("1/x", line)).integrable


def test_decompose_on_trefoil_curve(trefoil):
    g = elem(trefoil, "y/x")
    dec = Decomposer(trefoil).decompose(g.dx())
    assert dec.integrable
    assert (dec.antiderivative() - g).dx() == trefoil.zero()


def test_integrate_over_a_repaired_initial_basis():
    # the power basis of this cubic has a non-squarefree e
    curve = build_curve("y^3 + x*y^2 + x^4", QQ)
    g = elem(curve, "y^2/x")
    assert antiderivative(g.dx()) == g
    assert antiderivative(g.dx() + elem(curve, "1/(x - 5)")) is None


# ---------------------------------------------------------------------------
# a basis is its elements: equal bases share the per-basis data


def test_a_basis_rebuilt_from_its_elements_reuses_the_per_basis_data(legendre, monkeypatch):
    dec = Decomposer(legendre)
    basis = dec.decompose(elem(legendre, "1/y^3")).basis
    rebuilt = FieldBasis(legendre, basis.elements)
    other = FieldBasis(legendre, (legendre.one(), elem(legendre, "(x - t)*y")))
    assert rebuilt is not basis and rebuilt == basis and hash(rebuilt) == hash(basis)
    assert other != basis and basis != basis.elements
    assert len({basis, rebuilt, other}) == 2
    built = {}
    count_calls(monkeypatch, built, polyred, "compute_u")
    count_calls(monkeypatch, built, polyred, "product_factors")
    assert dec._basis_data(rebuilt) is dec._basis_data(basis)
    assert dec._dt_data(rebuilt) is dec._dt_data(basis)
    assert built == {"compute_u": 0, "product_factors": 2}  # the D_t data, built once
    v = legendre.xring.gen
    before = dec.step_system.cache_info()
    assert dec.step_system(rebuilt, v ** 3 * basis.e, v, 3) is dec.step_system(
        basis, v ** 3 * basis.e, v, 3
    )
    after = dec.step_system.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
