"""Pole-order reduction: presentation, step classification, module growth."""
import functools
import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from algint.algfield import FieldBasis, initial_suitable_basis
from algint import hermite, polyred
from algint.errors import AlgintError, PreconditionError
from algint.hermite import (
    Remainder,
    StepDegenerate,
    StepReduced,
    basis_update,
    hermite_step,
    lazy_hermite_reduce,
    present,
    step_system,
)
from algint.cli import run_record
from algint.linalg import mat_mul, solve_mod
from algint.parsing import build_curve, build_element
from algint.rings import QQ, QT, POLY_X_QQ, gcd, is_squarefree

from conftest import check_loop_state, curve_elements, elem, module_equal, small_fractions

R = POLY_X_QQ


def P(*coeffs):
    return R.poly([Fraction(c) for c in coeffs])


def reference_bases(parabola):
    y = parabola.gen()
    x = parabola.from_x(parabola.xfrac.gen)
    one = parabola.one()
    return {
        "(x, x*y)": FieldBasis(parabola, (x, x * y)),
        "(x, y)": FieldBasis(parabola, (x, y)),
        "(x, (x+1)*y)": FieldBasis(parabola, (x, (x + one) * y)),
        "(1, y)": FieldBasis(parabola, (one, y)),
    }


# ---------------------------------------------------------------------------
# presentation

def pole(pres):
    """(u, v, d) of a presented form with the repeated pole (v, d) =
    factors[-1] and u = den/v^d."""
    v, d = pres.factors[-1]
    return pres.den.exact_div(v**d), v, d


def test_present_extracts_highest_multiplicity(parabola):
    basis = FieldBasis(parabola, (parabola.one(), parabola.gen()))
    f = elem(parabola, "y/(x^2*(x+1))")
    pres = present(f, basis)
    u, v, d = pole(pres)
    assert str(v) == "x"
    assert d == 2
    assert str(u) == "x + 1"
    assert pres.element() == f


def test_present_simple_poles_is_remainder(parabola):
    # with simple poles only, the presented form is the remainder, which
    # the reduction normalizes at exit
    basis = FieldBasis(parabola, (parabola.one(), parabola.gen()))
    f = elem(parabola, "y/(x*(x+1))")
    pres = present(f, basis)
    assert [k for _, k in pres.factors] == [1]
    rem = hermite._remainder(pres)
    assert isinstance(rem, Remainder)
    assert rem.element() == f
    assert is_squarefree(rem.d)
    assert gcd(rem.d, basis.e) == R.one
    assert lazy_hermite_reduce(f, basis).remainder == rem


def test_present_scales_into_derivation_denominator(parabola):
    # u*v must absorb e = x: a pole at x+1 alone forces u to pick up x
    basis = FieldBasis(parabola, (parabola.one(), parabola.gen()))
    f = elem(parabola, "y/(x+1)^2")
    pres = present(f, basis)
    u, v, d = pole(pres)
    assert str(v) == "x + 1"
    assert d == 2
    assert not u % P(0, 1)
    assert pres.element() == f
    assert check_loop_state(pres)


# ---------------------------------------------------------------------------
# step classification on the three reference bases

def test_step_classification_matrix(parabola):
    bases = reference_bases(parabola)
    f = elem(parabola, "y/(x^2*(x+1))")
    expected = {
        "(x, x*y)": "unique",
        "(x, y)": "underdetermined",
        "(x, (x+1)*y)": "inconsistent",
    }
    for label, status in expected.items():
        step = hermite_step(present(f, bases[label]))
        assert step.outcome.status == status, label
        if status == "unique":
            assert isinstance(step, StepReduced)
        else:
            assert isinstance(step, StepDegenerate)


def test_unique_step_removes_a_pole_order(parabola):
    bases = reference_bases(parabola)
    f = elem(parabola, "y/(x^2*(x+1))")
    pres = present(f, bases["(x, x*y)"])
    # coordinates on (x, x*y) put x^3(x+1) in the denominator
    u, v, d = pole(pres)
    assert d == 3
    step = hermite_step(pres)
    assert step.rest.den == u * v ** (d - 1)
    assert step.rest.basis is bases["(x, x*y)"]
    rest = step.rest.element()
    assert f == step.g_part.dx() + rest
    assert pole(present(rest, step.rest.basis))[2] == 2  # one multiplicity peeled off


# ---------------------------------------------------------------------------
# module updates from degenerate steps

def test_underdetermined_update_adjoins_unit(parabola):
    bases = reference_bases(parabola)
    f = elem(parabola, "y/(x^2*(x+1))")
    step = hermite_step(present(f, bases["(x, y)"]))
    theta = basis_update(step)
    assert theta.is_integral()
    assert not bases["(x, y)"].member(theta)
    enlarged = bases["(x, y)"].enlarge([theta])
    assert module_equal(enlarged, bases["(1, y)"])


def test_inconsistent_update_adjoins_generator(parabola):
    bases = reference_bases(parabola)
    f = elem(parabola, "y/(x^2*(x+1))")
    step = hermite_step(present(f, bases["(x, (x+1)*y)"]))
    theta = basis_update(step)
    assert theta.is_integral()
    assert not bases["(x, (x+1)*y)"].member(theta)
    enlarged = bases["(x, (x+1)*y)"].enlarge([theta])
    target = FieldBasis(parabola, (parabola.from_x(parabola.xfrac.gen), parabola.gen()))
    assert module_equal(enlarged, target)


# degenerate steps on singular curves, each from the initial suitable basis
DEGENERATE_STEPS = [
    ("y^2 - x^2*(x + 1)", "y/x^2"),  # node, inconsistent
    ("y^2 - x^2*(x + 1)", "1/x^2"),  # node, underdetermined
    ("y^3 + x*y^2 + x^4", "y/x^2"),  # cubic, inconsistent
    ("y^3 + x*y^2 + x^4", "1/x^2"),  # cubic, underdetermined
    ("y^4 + x^2*y^3 + x^2*y - x^3", "y/x^2"),  # quartic, inconsistent
    ("y^4 + x^2*y^3 + x^2*y - x^3", "y^3/x^3"),  # quartic, inconsistent
]


@pytest.mark.parametrize("curve_text, integrand", DEGENERATE_STEPS)
def test_row_kernel_quotients_are_new_integral_elements(curve_text, integrand):
    # Bronstein's lemma: c*A = 0 mod w makes (1/w) * c*W integral, and
    # outside the module since c is nonzero mod w
    curve = build_curve(curve_text, QQ)
    basis = initial_suitable_basis(curve)
    assert basis.e_squarefree
    step = hermite_step(present(build_element(integrand, curve), basis))
    assert isinstance(step, StepDegenerate)
    degenerate = [leaf for leaf in step.outcome.leaves if leaf.status != "unique"]
    assert degenerate
    for leaf in degenerate:
        assert leaf.kernel
        for c in leaf.kernel:
            theta = basis.element(leaf.modulus, c)
            assert theta.is_integral()
            assert not basis.member(theta)


def test_quartic_update_is_certified():
    # the step of y/x^2 on the quartic is inconsistent; its row kernel
    # gives the update that the cokernel alone did not
    curve = build_curve("y^4 + x^2*y^3 + x^2*y - x^3", QQ)
    f = build_element("y/x^2", curve)
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    assert len(result.adjoined) == 1
    assert f == result.g_part.dx() + result.remainder.element()


def test_every_presented_basis_is_suitable(monkeypatch):
    # an update whose enlargement leaves e non-squarefree is repaired before
    # the integrand is presented over it, so every presented form keeps the
    # loop state, gcd(u, v) = 1 included
    curve = build_curve("y^3 + x*y^2 + x^4", QQ)
    breaking = build_element(
        "((5/3*x + 2/27)/x^2)*y^2 + ((-10/9*x - 2/9)/x)*y - 7/27*x", curve
    )
    assert breaking.is_integral()
    assert not initial_suitable_basis(curve).enlarge([breaking]).e_squarefree
    real_update, real_present = hermite.basis_update, hermite._present
    updates, repeated = [], []

    def first_update_breaks(step):
        updates.append(step)
        return breaking if len(updates) == 1 else real_update(step)

    def checked_present(pres):
        out = real_present(pres)
        assert out.basis.e_squarefree
        repeated.append(check_loop_state(out))
        return out

    monkeypatch.setattr(hermite, "basis_update", first_update_breaks)
    monkeypatch.setattr(hermite, "_present", checked_present)
    f = build_element("y/x^2", curve)
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    assert updates
    assert result.adjoined[0] == breaking
    assert any(repeated)
    assert f == result.g_part.dx() + result.remainder.element()


# ---------------------------------------------------------------------------
# full reduction

def test_full_reduction_frozen_walkthrough(parabola):
    f = elem(parabola, "y/(x^2*(x+1))")
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    h = result.remainder.element()
    assert result.g_part == elem(parabola, "-2*y/x")
    assert h == elem(parabola, "-y/(x*(x+1))")
    assert f == result.g_part.dx() + h
    target = FieldBasis(parabola, (parabola.one(), parabola.gen()))
    assert module_equal(result.basis, target)


def test_full_reduction_from_degenerate_start_adjoins(parabola):
    bases = reference_bases(parabola)
    f = elem(parabola, "y/(x^2*(x+1))")
    result = lazy_hermite_reduce(f, bases["(x, y)"])
    assert result.adjoined
    for theta in result.adjoined:
        assert theta.is_integral()
    assert module_equal(result.basis, bases["(1, y)"])
    assert f == result.g_part.dx() + result.remainder.element()


def test_reduction_on_scaled_basis_frozen(parabola):
    # starting from (1, (x^2+1)y): remainder y/(3x), derivative part summed
    one = parabola.one()
    w = elem(parabola, "(x^2 + 1)*y")
    basis = FieldBasis(parabola, (one, w))
    f = elem(parabola, "y/x^3")
    result = lazy_hermite_reduce(f, basis)
    assert result.remainder.element() == elem(parabola, "y/(3*x)")
    assert result.g_part == elem(parabola, "-2*(x^2 + 1)*y/(3*x^2)")
    assert f == result.g_part.dx() + result.remainder.element()


def test_remainder_invariants_hold(parabola):
    one = parabola.one()
    basis = FieldBasis(parabola, (one, parabola.gen()))
    f = elem(parabola, "y/(x^2*(x+1)^3) + 1/(x-2)^2")
    result = lazy_hermite_reduce(f, basis)
    rem = result.remainder
    assert is_squarefree(rem.d)
    assert gcd(rem.d, result.basis.e) == R.one
    content = rem.d
    for num in rem.nums:
        content = gcd(content, num)
    assert content == R.one or not any(rem.nums)


def test_integrable_input_leaves_zero_remainder(parabola):
    g = elem(parabola, "y/(x^2*(x+1))")
    f = g.dx()
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    assert not any(result.remainder.nums)
    assert (result.g_part - g).dx() == parabola.zero()


@settings(max_examples=15)
@given(st.data())
def test_reduction_identity_random(parabola, data):
    f = data.draw(
        curve_elements(parabola, max_degree=2,
                       denom_pool=(P(0, 1), P(0, 0, 1), P(1, 1), P(0, 1, 1)))
    )
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    h = result.remainder.element()
    assert f == result.g_part.dx() + h
    assert is_squarefree(result.remainder.d)
    assert gcd(result.remainder.d, result.basis.e) == R.one


@settings(max_examples=10)
@given(st.data())
def test_reduction_identity_random_cubic(trefoil, data):
    f = data.draw(
        curve_elements(trefoil, max_degree=1, denom_pool=(P(0, 1), P(1, 1)))
    )
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    assert f == result.g_part.dx() + result.remainder.element()


def test_derivatives_of_module_elements_are_fully_integrated(parabola):
    # dx of anything in the (1, y) module with poles only at x = 0
    g = elem(parabola, "(x^3 + 2)*y/x^4")
    result = lazy_hermite_reduce(g.dx(), initial_suitable_basis(parabola))
    assert not any(result.remainder.nums)


def test_step_without_progress_is_an_error(parabola, monkeypatch):
    # a step whose rest keeps the pole order breaks the termination
    # measure; the reduction must refuse it at once instead of looping
    presented = []
    real_present = hermite._present

    def counting_present(pres):
        presented.append(pres.den)
        return real_present(pres)

    def stalled_step(pres, *args):
        return StepReduced(g_part=parabola.zero(), rest=pres, outcome=None)

    monkeypatch.setattr(hermite, "_present", counting_present)
    monkeypatch.setattr(hermite, "hermite_step", stalled_step)
    with pytest.raises(AlgintError, match="pole order"):
        lazy_hermite_reduce(elem(parabola, "y/x^3"), initial_suitable_basis(parabola))
    assert len(presented) <= 3


# ---------------------------------------------------------------------------
# step systems and their inverse mod v

ROOT = Path(__file__).resolve().parents[1]


def _records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


class _Recorded(NamedTuple):
    forms: tuple  # the presented form of every Hermite step
    inverted: tuple  # (system, v) for every system built with an inverse


@functools.cache
def _recorded_steps():
    """The Hermite steps of the desk and seeded records, in the order the
    records reach them, and the systems with an inverse that their
    Decomposers built, each record on a curve table cleared first."""
    forms, inverted = [], []
    real_step, real_system = hermite.hermite_step, polyred.step_system

    def recording(pres, *args):
        forms.append(pres)
        return real_step(pres, *args)

    def built(basis, den, v, d):
        system = real_system(basis, den, v, d)
        if system.inverse is not None:
            inverted.append((system, v))
        return system

    records = _records(ROOT / "data" / "desk_corpus.jsonl") + _records(
        ROOT / "tests" / "data" / "seeded_curves.jsonl"
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermite, "hermite_step", recording)
        mp.setattr(polyred, "step_system", built)
        for record in records:
            polyred._kept_decomposer.cache_clear()
            assert run_record(record)["status"] == "ok", record["name"]
    return _Recorded(tuple(forms), tuple(inverted))


def _system(pres):
    v, d = pres.factors[-1]
    return step_system(pres.basis, pres.den, v, d)


def _solve(pres, system):
    return solve_mod(system.matrix, pres.numer, pres.factors[-1][0], pres.basis.curve.xring)


def test_every_inverse_built_on_the_records_inverts_its_matrix():
    inverted = _recorded_steps().inverted
    for system, v in inverted:
        product = mat_mul(system.matrix, system.inverse)
        ring = v.ring
        assert [[p % v for p in row] for row in product] == [
            [ring.one if i == j else ring.zero for j in range(len(row))]
            for i, row in enumerate(product)
        ]
    # radical curves have a diagonal M, so a transposed inverse would pass
    # on them alone; the seeded curves are general ones
    assert len(inverted) >= 40
    assert any(p for system, _ in inverted for i, row in enumerate(system.matrix)
               for p in row[:i])


def test_a_kept_inverse_gives_the_solution_of_every_unique_step(monkeypatch):
    with_inverse = 0
    for pres in _recorded_steps().forms:
        system = _system(pres)
        outcome = _solve(pres, system)
        solved = hermite_step(pres, lambda *key: system._replace(inverse=None))
        assert solved.outcome == outcome
        if system.inverse is None:
            assert outcome.status != "unique" or len(outcome.leaves) > 1
            continue
        assert outcome.inverse == system.inverse
        with monkeypatch.context() as mp:
            mp.setattr(hermite, "solve_mod", None)  # a step with an inverse solves nothing
            kept = hermite_step(pres, lambda *key: system)
        assert kept == solved
        with_inverse += 1
    assert with_inverse > 40


def test_a_system_without_an_inverse_solves_its_numerator_on_every_step(monkeypatch):
    # a unique solve that splits v has no inverse mod v; a system with its
    # inverse dropped stands for one.  A singular system has none either.
    forms = _recorded_steps().forms
    split = next(p for p in forms if _system(p).inverse is not None)
    singular = next(p for p in forms if _solve(p, _system(p)).status != "unique")
    real_solve = hermite.solve_mod
    for pres in (split, singular):
        plain = hermite_step(pres)
        system = _system(pres)._replace(inverse=None)
        solves = []

        def counted(*args):
            solves.append(args)
            return real_solve(*args)

        with monkeypatch.context() as mp:
            mp.setattr(hermite, "solve_mod", counted)
            for k in (1, 2):
                step = hermite_step(pres, lambda *key: system)
                assert len(solves) == k and solves[-1][1] == tuple(a % pres.factors[-1][0]
                                                                    for a in pres.numer)
                assert type(step) is type(plain) and step.outcome == plain.outcome
                if isinstance(plain, StepReduced):
                    assert (step.g_part, step.rest) == (plain.g_part, plain.rest)


@functools.cache
def _legendre_step():
    curve = build_curve("y^2 - x*(x - 1)*(x - t)", QT)
    pres = present(build_element("(x^2 + t)/((x - 2)^3*y^3)", curve),
                   initial_suitable_basis(curve))
    return pres, _system(pres)


@settings(max_examples=30)
@given(st.lists(st.lists(small_fractions, min_size=1, max_size=8), min_size=4, max_size=4))
def test_a_kept_legendre_inverse_solves_every_numerator(coeff_lists):
    pres, system = _legendre_step()
    assert system.inverse is not None and pres.factors[-1][1] >= 2
    ring, t = pres.basis.curve.xring, QT.gen
    numer = tuple(
        ring.poly([QT.of(c) for c in low]) + ring.poly([c * t for c in high])
        for low, high in zip(coeff_lists[::2], coeff_lists[1::2])
    )
    pres = pres._replace(numer=numer)
    v = pres.factors[-1][0]
    rem = tuple(a % v for a in numer)
    assert hermite._kept_outcome(system, rem, v) == _solve(pres, system)
