"""Creative telescoping over the parameter field Q(t)."""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algint import hermite, polyred
from algint.algfield import initial_suitable_basis
from algint.cli import run_record
from algint.errors import AlgintError, DomainError, MaxOrderExceeded, PreconditionError
from algint.parsing import build_curve, build_element
from algint.polyred import ComplementNV, Decomposer, _kept_decomposer
from algint.rings import QQ, QT, T_POLY, common_denominator
from algint.telescoper import (
    RemainderLedger,
    _normalize_dependency,
    apply_telescoper,
    find_dependency,
    telescope,
    verify_telescoper,
)


def tpoly(*coeffs):
    return T_POLY.poly([Fraction(c) for c in coeffs])


def qt(*coeffs):
    return QT.of(tpoly(*coeffs), T_POLY.one)


# ---------------------------------------------------------------------------
# frozen flagship results

def test_legendre_picard_fuchs(legendre):
    f = build_element("1/y", legendre)
    tel = telescope(f)
    assert tel.order == 2
    assert tel.ranks == (1, 2, 2)
    assert [str(c) for c in tel.coeffs] == ["1", "8*t - 4", "4*t^2 - 4*t"]
    assert verify_telescoper(f, tel.coeffs, tel.certificate)
    assert str(tel.certificate) == "(-2/(x^2 - 2*t*x + t^2))*y"


def test_legendre_order_one_dependency_absent(legendre):
    # the rank profile certifies there is no order-1 relation
    f = build_element("1/y", legendre)
    tel = telescope(f)
    assert tel.ranks[1] == 2  # two independent remainders at order 1


def test_order_zero_case():
    curve = build_curve("y^2 - x - t", QT)
    f = curve.gen()
    tel = telescope(f)
    assert tel.order == 0
    assert [str(c) for c in tel.coeffs] == ["1"]
    assert verify_telescoper(f, tel.coeffs, tel.certificate)
    # f itself is a derivative: certified by the telescoper L = 1
    assert tel.certificate.dx() == f


def test_rational_function_first_order():
    line = build_curve("y - 1", QT)
    f = build_element("1/(x - t)", line)
    tel = telescope(f)
    assert tel.order == 1
    assert [str(c) for c in tel.coeffs] == ["0", "1"]
    assert verify_telescoper(f, tel.coeffs, tel.certificate)
    assert str(tel.certificate) == "-1/(x - t)"


# ---------------------------------------------------------------------------
# the operator action and its verification

def test_apply_telescoper_is_linear_combination_of_t_derivatives(legendre):
    f = build_element("1/y", legendre)
    c0, c1 = qt(3), qt(0, 1)  # 3 + t*D_t
    applied = apply_telescoper(f, (c0, c1))
    const3 = legendre.from_x(legendre.xfrac.from_int(3))
    tvar = legendre.from_x(legendre.xfrac.of(legendre.xring.from_coeff(qt(0, 1))))
    assert applied == const3 * f + tvar * f.dt()


def test_verify_telescoper_rejects_wrong_certificate(legendre):
    f = build_element("1/y", legendre)
    tel = telescope(f)
    wrong = tel.certificate + legendre.gen()
    assert not verify_telescoper(f, tel.coeffs, wrong)


def test_verify_telescoper_rejects_wrong_coefficients(legendre):
    f = build_element("1/y", legendre)
    tel = telescope(f)
    bad = (qt(2),) + tuple(tel.coeffs[1:])
    assert not verify_telescoper(f, bad, tel.certificate)


def test_verify_telescoper_refuses_the_zero_operator():
    # the zero operator maps every integrand to 0 = dx(0)
    curve = build_curve("y^2 - x - t", QT)
    f = build_element("y", curve)
    assert apply_telescoper(f, (qt(0),)) == curve.zero()
    assert not verify_telescoper(f, (qt(0),), curve.zero())
    assert not verify_telescoper(f, (qt(0), qt(0)), curve.zero())


# ---------------------------------------------------------------------------
# normalization and scaling behaviour

@pytest.mark.parametrize(
    "vec, expected",
    [
        ((qt(2), qt(-4)), ((-1,), (2,))),  # content 2 and a negative last lead
        ((qt(1, 1), qt(0, 3)), ((1, 1), (0, 3))),  # already normalized
        ((QT.of(tpoly(1), tpoly(0, 2)), qt(-3)), ((-1,), (0, 6))),
    ],
    ids=["content-and-sign", "unchanged", "denominators"],
)
def test_normalize_dependency_content_and_sign(vec, expected):
    got = _normalize_dependency(vec)
    assert got == tuple(qt(*c) for c in expected)

def test_coefficients_are_t_polynomial_and_primitive(legendre):
    f = build_element("1/y", legendre)
    tel = telescope(f)
    for c in tel.coeffs:
        assert c.is_polynomial
    # integer content 1 on the polynomial coefficients, positive leading
    top = tel.coeffs[-1].as_poly()
    assert top.lc.numerator > 0


def test_telescoper_invariant_under_scaling(legendre):
    f = build_element("1/y", legendre)
    g = build_element("7/y", legendre)
    tf, tg = telescope(f), telescope(g)
    assert tf.order == tg.order
    assert [str(c) for c in tf.coeffs] == [str(c) for c in tg.coeffs]


def test_max_order_exceeded_carries_rank_profile(legendre):
    f = build_element("1/y", legendre)
    with pytest.raises(MaxOrderExceeded) as err:
        telescope(f, max_order=1)
    assert err.value.max_order == 1
    assert err.value.ranks == (1, 2)


def test_negative_order_cap_is_refused_before_any_work():
    curve = build_curve("y^2 - x - t", QT)
    f = build_element("y", curve)
    assert telescope(f, max_order=0).order == 0
    with pytest.raises(DomainError, match="order cap must be >= 0, got -1"):
        telescope(f, max_order=-1)


def test_telescope_requires_parameter_field(parabola):
    with pytest.raises(PreconditionError):
        telescope(parabola.gen())


# ---------------------------------------------------------------------------
# ledger maintenance

def test_ledger_rebase_preserves_entry_identities():
    # a singular point moving with t: y/(x - t) is integral but lies outside
    # the initial module, so decomposing over the enlarged module rebases
    curve = build_curve("y^2 - x*(x-1)*(x+1)*(x-t)^2", QT)
    f = curve.gen()
    w0 = initial_suitable_basis(curve)
    assert [str(w) for w in w0.elements] == ["1", "y"]
    decomposer = Decomposer(curve)
    dec0 = decomposer.decompose(f, basis=w0)
    assert dec0.basis is w0
    ledger = RemainderLedger(decomposer, dec0)

    w1 = w0.enlarge([build_element("y/(x-t)", curve)])
    dec1 = decomposer.decompose(ledger.entries[0].dec.remainder_element().dt(), basis=w1)
    gamma1 = ledger.entries[0].gamma.dt() + dec1.g
    ledger.extend(dec1, gamma1)

    assert ledger.basis is w1
    # identity D_t^i f = dx(gamma_i) + h_i survives the rebase for both rows
    h0, h1 = (entry.dec.remainder_element() for entry in ledger.entries)
    assert f == ledger.entries[0].gamma.dx() + h0
    assert f.dt() == ledger.entries[1].gamma.dx() + h1


def test_dependency_missing_the_newest_remainder_is_refused(legendre):
    # the earlier entries of a round are independent, so a dependency among
    # them alone breaks the loop's invariant
    h = build_element("1/y", legendre)
    k = build_element("x/y", legendre)
    _, rows = common_denominator([e.coords() for e in (h, h + h, k)])
    with pytest.raises(AlgintError):
        find_dependency(rows)


def test_third_kind_integrand_reads_the_pole_part_of_its_remainders(legendre, monkeypatch):
    # 1/((x-2)*y) has a simple pole where the curve is smooth, so its
    # remainders keep a pole part over W, and D_t acts on it through Nw
    seen = []
    real = Decomposer.dt_remainder

    def recording(self, dec):
        seen.append(dec)
        return real(self, dec)

    monkeypatch.setattr(Decomposer, "dt_remainder", recording)
    f = build_element("1/((x-2)*y)", legendre)
    tel = telescope(f)
    assert tel.order == 3
    assert verify_telescoper(f, tel.coeffs, tel.certificate)
    assert any(any(dec.p_nums) for dec in seen)


def test_telescope_verifies_before_returning(legendre):
    # telescope() runs its own verification; a returned operator always applies
    f = build_element("x/y", legendre)
    tel = telescope(f)
    assert verify_telescoper(f, tel.coeffs, tel.certificate)
    assert tel.order <= 2


# ---------------------------------------------------------------------------
# kept Decomposers: reuse never changes an answer

LEGENDRE = "y^2 - x*(x - ({}))*(x - t)"
DESK_AND_LEGENDRE = [
    ("y^2 - x - t", "y"),
    ("y - 1", "1/(x - t)"),
    ("y^2 - x*(x - 1)*(x - t)", "1/y"),
] + [
    (LEGENDRE.format(a), form.format(c))
    for a, c in ((1, 2), (-1, -1), (2, 3), (-2, 1), (3, -1), (-3, 2))
    for form in ("{}/y", "{}*x/y")
]
# equal curves, with leading coefficients 1, 2, -1 and t as given
LEADS = [
    (curve, integrand)
    for curve in (
        "y^2 - x*(x - 1)*(x - t)",
        "2*y^2 - 2*x*(x - 1)*(x - t)",
        "-y^2 + x*(x - 1)*(x - t)",
        "t*y^2 - t*x*(x - 1)*(x - t)",
    )
    for integrand in ("1/y", "x/y")
]


def _answer(curve, integrand, max_order=20):
    """The structured output of algint telescope."""
    record = {"name": "r", "mode": "telescope", "curve": curve,
              "integrand": integrand, "max_order": max_order}
    return run_record(record)


@functools.cache
def _fresh_answer(record):
    """The answer of a call that finds no kept Decomposer, and leaves none."""
    _kept_decomposer.cache_clear()
    try:
        return _answer(*record)
    finally:
        _kept_decomposer.cache_clear()


def _kept_key(text):
    curve = build_curve(text, QT)
    return curve, curve.lead


@pytest.mark.parametrize(
    "first, second",
    [
        (DESK_AND_LEGENDRE, DESK_AND_LEGENDRE[::-1]),
        (DESK_AND_LEGENDRE[1::2] + DESK_AND_LEGENDRE[::2], DESK_AND_LEGENDRE),
        (LEADS, LEADS[::-1]),
        (LEADS[::-1], LEADS),
    ],
    ids=["desk-legendre", "desk-legendre-interleaved", "leads", "leads-reversed"],
)
def test_kept_decomposers_never_change_an_answer(first, second):
    fresh = [_fresh_answer(record) for record in first + second]
    got = [_answer(*record) for record in first + second]
    assert got == fresh
    assert all(answer["status"] == "ok" for answer in got)
    assert _kept_decomposer.cache_info().currsize == len(
        {_kept_key(curve) for curve, _ in first}
    )


def test_a_call_past_its_order_cap_leaves_the_kept_data_whole():
    record = ("y^2 - x*(x - 1)*(x - t)", "1/y")
    fresh = _fresh_answer(record)
    capped = _answer(*record, max_order=0)
    assert capped["status"] == "error" and "MaxOrderExceeded" in capped["error"]
    assert _answer(*record) == fresh


class Interrupted(BaseException):
    """Stands for a timer signal or Ctrl-C inside a call."""


def test_a_call_interrupted_inside_a_complement_feed_leaves_nothing_half_built(
    monkeypatch,
):
    # the first build stops after its first insert that adds an echelon
    # row; a complement kept in that state would insert that row again and
    # keep a zero kernel row
    record = ("y^2 - x*(x - 1)*(x - t)", "1/y")
    fresh = _fresh_answer(record)
    real_insert = ComplementNV._insert
    armed = [True]

    def insert(self, row, pre):
        real_insert(self, row, pre)
        if armed[0] and self.leads:
            armed[0] = False
            raise Interrupted

    monkeypatch.setattr(ComplementNV, "_insert", insert)
    f = build_element(record[1], build_curve(record[0], QT))
    with pytest.raises(Interrupted):
        telescope(f)
    assert not armed[0]
    assert _answer(*record) == fresh


# ---------------------------------------------------------------------------
# kept Hermite step systems: reuse never changes an answer

KEPT_STEPS = [("y^2 - x*(x - 1)*(x - t)", f) for f in ("1/y", "2/y", "x/y", "1/y^3")]
MOVING_NODE = ("y^2 - x*(x-1)*(x+1)*(x-t)^2", "1/y")  # degenerate steps


def _logged_steps(monkeypatch):
    """Every Hermite step, as (pres, step, number of systems its Decomposer
    keeps after it), and the arguments of every solve_mod of a step or of a
    new system."""
    log, solves = [], []
    real_step, real_solve = hermite.hermite_step, hermite.solve_mod

    def logged(pres, system_of):
        step = real_step(pres, system_of)
        log.append((pres, step, system_of.cache_info().currsize))
        return step

    def counted(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(hermite, "hermite_step", logged)
    monkeypatch.setattr(hermite, "solve_mod", counted)
    return log, solves


def _step_key(pres):
    return (pres.basis, pres.den) + pres.factors[-1]


def test_kept_step_systems_never_change_an_answer(monkeypatch):
    records = KEPT_STEPS + KEPT_STEPS[::-1] + [MOVING_NODE, MOVING_NODE]
    fresh = [_fresh_answer(record) for record in records]
    log, solves = _logged_steps(monkeypatch)
    assert [_answer(*record) for record in records] == fresh
    assert len(solves) < len(log) / 2
    assert any(isinstance(step, hermite.StepDegenerate) for _, step, _ in log)
    infos = [_kept_decomposer(*_kept_key(curve)).step_system.cache_info()
             for curve in {KEPT_STEPS[0][0], MOVING_NODE[0]}]
    assert all(info.hits and info.currsize for info in infos)
    # one solve on a zero right-hand side per new system, and one of the
    # numerator per step on a system without an inverse (a singular one here)
    no_inverse = [step for _, step, _ in log if step.outcome.inverse is None]
    assert len(solves) == sum(info.misses for info in infos) + len(no_inverse)
    assert all(isinstance(step, hermite.StepDegenerate) for step in no_inverse)


@pytest.mark.parametrize("bound", [0, 2])
def test_the_step_system_table_never_exceeds_its_bound(monkeypatch, bound):
    # with bound 0 no system is ever reused
    records = KEPT_STEPS + KEPT_STEPS[::-1]
    fresh = [_fresh_answer(record) for record in records]
    monkeypatch.setattr(polyred, "KEPT_SYSTEMS", bound)
    log, solves = _logged_steps(monkeypatch)
    assert [_answer(*record) for record in records] == fresh
    assert max(size for _, _, size in log) == bound
    info = _kept_decomposer(*_kept_key(KEPT_STEPS[0][0])).step_system.cache_info()
    assert info.maxsize == bound and info.currsize == bound
    assert (info.hits == 0) == (bound == 0)
    assert (len(solves) == len(log)) == (bound == 0)
    assert len({_step_key(pres) for pres, _, _ in log}) > 2
