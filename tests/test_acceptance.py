"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints exactly one PASS/FAIL
line, and enforces the criterion's runtime budget.  Everything here is
exact arithmetic: there are no numeric tolerances anywhere.

Run standalone for the full report:  python3 tests/test_acceptance.py
"""
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from algint.algfield import FieldBasis, initial_suitable_basis
from algint.cli import main as cli_main, run_record
from algint.errors import AlgintError, CurveReducible
from algint.hermite import basis_update, hermite_step, lazy_hermite_reduce, present
from algint.parsing import build_curve, build_element
from algint.polyred import Decomposer
from algint.rings import QQ, QT, POLY_X_QQ, squarefree_decomposition
from algint.telescoper import telescope, verify_telescoper

from conftest import complement_is_final, discriminant, module_equal, trace

ROOT = pathlib.Path(__file__).resolve().parents[1]
R = POLY_X_QQ


def P(*coeffs):
    return R.poly([Fraction(c) for c in coeffs])


def _report(label, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _parabola_data():
    curve = build_curve("y^2 - x", QQ)
    y = curve.gen()
    x = curve.from_x(curve.xfrac.gen)
    one = curve.one()
    f = build_element("y/(x^2*(x+1))", curve)
    return curve, x, y, one, f


# ---------------------------------------------------------------------------
# 1. classification of the reduction step's linear system

def test_criterion_01_step_classification():
    t0 = time.time()
    curve, x, y, one, f = _parabola_data()
    expected = [
        ((x, x * y), "unique"),
        ((x, y), "underdetermined"),
        ((x, (x + one) * y), "inconsistent"),
    ]
    results = []
    for elems, want in expected:
        step = hermite_step(present(f, FieldBasis(curve, elems)))
        results.append(step.outcome.status == want)
    elapsed = time.time() - t0
    _report(
        "criterion 1: step outcomes unique/underdetermined/inconsistent on the "
        "three reference bases",
        all(results) and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. module updates from the two degenerate steps

def test_criterion_02_module_updates():
    t0 = time.time()
    curve, x, y, one, f = _parabola_data()
    checks = []

    start = FieldBasis(curve, (x, y))
    theta = basis_update(hermite_step(present(f, start)))
    checks.append(theta.is_integral())
    checks.append(not start.member(theta))
    checks.append(module_equal(start.enlarge([theta]), FieldBasis(curve, (one, y))))

    start2 = FieldBasis(curve, (x, (x + one) * y))
    theta2 = basis_update(hermite_step(present(f, start2)))
    checks.append(theta2.is_integral())
    checks.append(not start2.member(theta2))
    checks.append(module_equal(start2.enlarge([theta2]), FieldBasis(curve, (x, y))))

    elapsed = time.time() - t0
    _report(
        "criterion 2: degenerate steps certify integral elements enlarging to "
        "the modules of (1, y) and (x, y)",
        all(checks) and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. the full reduction walkthrough

def test_criterion_03_full_reduction():
    t0 = time.time()
    curve, x, y, one, f = _parabola_data()
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    h = result.remainder.element()
    g_ref = build_element("-2*y/x", curve)
    checks = [
        h == build_element("-y/(x*(x+1))", curve),
        f == result.g_part.dx() + h,
        (result.g_part - g_ref).dx() == curve.zero(),  # equal up to a constant
        module_equal(result.basis, FieldBasis(curve, (one, y))),
    ]
    elapsed = time.time() - t0
    _report(
        "criterion 3: y/((x+1)x^2) reduces to remainder -y/(x(x+1)) with "
        "derivative part -2y/x and final module (1, y)",
        all(checks) and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. remainder, denominator bound, and certified antiderivative

def test_criterion_04_decomposition_certifies_antiderivative():
    t0 = time.time()
    curve, x, y, one, _ = _parabola_data()
    f = build_element("y/x^3", curve)
    basis = FieldBasis(curve, (one, build_element("(x^2 + 1)*y", curve)))

    her = lazy_hermite_reduce(f, basis)
    checks = [
        her.remainder.element() == build_element("y/(3*x)", curve),
        f == her.g_part.dx() + her.remainder.element(),
    ]

    dec = Decomposer(curve).decompose(f, basis=basis)
    g = dec.antiderivative()
    checks += [
        str(dec.u) == "x^2 + 1",
        dec.integrable,
        g is not None and g.dx() == f,
        g == build_element("-2*y/(3*x^2)", curve),
    ]
    elapsed = time.time() - t0
    _report(
        "criterion 4: from basis (1, (x^2+1)y) the remainder is y/(3x), the "
        "denominator bound is x^2+1, and y/x^3 integrates to -2y/(3x^2)",
        all(checks) and elapsed < 2.0,
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. discriminants of the two reference bases

def test_criterion_05_discriminants():
    curve, x, y, one, _ = _parabola_data()
    w = build_element("(x^2 + 1)*y", curve)
    d1 = discriminant((one, y))
    d2 = discriminant((one, w))
    checks = [
        str(d1) == "4*x",
        d2 == curve.xfrac.of(P(0, 4) * P(1, 0, 1) ** 2),  # 4x(x^2+1)^2
    ]
    _report(
        "criterion 5: disc(1, y) = 4x and disc(1, (x^2+1)y) = 4(x^2+1)^2 x "
        "exactly",
        all(checks),
    )


# ---------------------------------------------------------------------------
# 6. integrability decided on randomized families

def _random_poly(rng, max_degree, ring=R):
    degree = rng.randint(1, max_degree)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([1, 2, 3, -1, -2])))
    return ring.poly(coeffs)


def _admissible_radicand(rng, max_degree, index):
    """Random p making y^index - p irreducible even after constant extension:
    some squarefree-decomposition multiplicity must not divide by index."""
    while True:
        p = _random_poly(rng, max_degree)
        if any(m % index for _, m in squarefree_decomposition(p)):
            return p


def _denominator_pool(rng):
    pool = [R.one, P(0, 1), P(1, 1), P(-1, 1), P(-2, 1), P(1, 0, 1)]
    pool.append(P(0, 1) ** 2)
    pool.append(P(1, 1) ** 2)
    return pool


def _random_element(rng, curve, pool, max_degree=2):
    coords = []
    for _ in range(curve.n):
        num = R.poly([Fraction(rng.randint(-4, 4)) for _ in range(max_degree + 1)])
        den = rng.choice(pool)
        coords.append(curve.xfrac.of(num, den))
    return curve.from_coords(coords)


def _eval_poly(poly, value):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * value + c
    return acc


def _trace_residue(f, a):
    """Residue of Tr(f) at x = a, via ((x - a) * Tr f)(a); exact."""
    tr = trace(f)
    shifted = tr * f.curve.xfrac.of(R.poly([-a, Fraction(1)]))
    den_val = _eval_poly(shifted.den, a)
    if not den_val:
        return None  # pole of order > 1 survived; not a usable certificate
    return _eval_poly(shifted.num, a) / den_val


def test_criterion_06_randomized_integrability():
    t0 = time.time()
    rng = random.Random(20260821)
    integrable_checked = 0
    non_integrable_checked = 0

    plans = [(2, 5, 12, 14), (3, 3, 4, 8)]  # (index, max deg p, curves, inputs)
    for index, max_deg, n_curves, n_inputs in plans:
        built = 0
        while built < n_curves:
            p = _admissible_radicand(rng, max_deg, index)
            try:
                curve = build_curve(f"y^{index} - ({p})", QQ)
                dec_engine = Decomposer(curve)
                pool = _denominator_pool(rng)
                for _ in range(n_inputs):
                    g = _random_element(rng, curve, pool)
                    dec = dec_engine.decompose(g.dx())
                    assert dec.integrable, f"false negative on y^{index} - {p}"
                    assert not any(dec.p_nums) and not any(dec.q_nums)
                    assert dec.d.degree == 0  # unit denominator
                    recovered = dec.antiderivative()
                    assert (recovered - g).dx() == curve.zero()
                    integrable_checked += 1
            except (CurveReducible, AlgintError):
                continue  # resample the curve; counts only completed runs
            built += 1

    # planted simple poles, certified through the trace residue
    while non_integrable_checked < 50:
        p = _admissible_radicand(rng, 5, 2)
        a = Fraction(rng.choice([3, -4, 5, 7]))
        c = Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2]))
        try:
            curve = build_curve(f"y^2 - ({p})", QQ)
            dec_engine = Decomposer(curve)
            pool = [q for q in _denominator_pool(rng)]
            g = _random_element(rng, curve, pool, max_degree=1)
            pole = curve.from_x(curve.xfrac.of(R.from_coeff(c), R.poly([-a, Fraction(1)])))
            f = g.dx() + pole
            residue = _trace_residue(f, a)
            if residue is None:
                continue
            assert residue == curve.n * c  # independent non-integrability witness
            dec = dec_engine.decompose(f)
            assert not dec.integrable, f"false positive on y^2 - {p} + pole at {a}"
            non_integrable_checked += 1
        except (CurveReducible, AlgintError):
            continue

    elapsed = time.time() - t0
    _report(
        "criterion 6: randomized integrability decisions "
        f"({integrable_checked} constructed derivatives certified integrable, "
        f"{non_integrable_checked} planted residues certified non-integrable)",
        integrable_checked >= 200 and non_integrable_checked >= 50
        and elapsed < 600.0,
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. derivation denominator invariant under unimodular basis changes

def test_criterion_07_denominator_invariance():
    t0 = time.time()
    rng = random.Random(104729)
    curve, x, y, one, _ = _parabola_data()
    trefoil = build_curve("y^3 - 3*x^2*y + 2*x^3 + x^2", QQ)
    bases = [
        FieldBasis(curve, (one, build_element("(x^2 + 1)*y", curve))),
        FieldBasis(curve, (one, y)),
        initial_suitable_basis(trefoil),
    ]
    checked = 0
    ok = True
    while checked < 50:
        basis = rng.choice(bases)
        elems = list(basis.elements)
        n = len(elems)
        # a few random elementary operations: unimodular over K[x]
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if op == 0 and i != j:
                q = _random_poly(rng, 2)
                cur = basis.curve
                elems[i] = elems[i] + cur.from_x(cur.xfrac.of(q)) * elems[j]
            elif op == 1:
                elems[i], elems[j] = elems[j], elems[i]
            else:
                elems[i] = -elems[i]
        changed = FieldBasis(basis.curve, tuple(elems))
        ok = ok and changed.e == basis.e
        checked += 1
    elapsed = time.time() - t0
    _report(
        "criterion 7: derivation denominator e invariant under 50 random "
        "unimodular changes of basis",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. image complement stabilizes: building on past the frozen bound
#    changes nothing

def test_criterion_08_complement_stability():
    curves = [
        ("y^2 - x", QQ),
        ("y^2 - x^3", QQ),
        ("y^3 - 3*x^2*y + 2*x^3 + x^2", QQ),
        ("y^2 - x*(x - 1)*(x - t)", QT),
    ]
    ok = True
    dims = []
    for text, field in curves:
        curve = build_curve(text, field)
        dec = Decomposer(curve)
        u = curve.xring.poly([field.one, field.zero, field.one])  # x^2 + 1
        comp = dec.complement(u, dec.inf_basis.e * u)
        dims.append(len(comp.standard_monomials()))
        ok = ok and complement_is_final(comp)
    _report(
        "criterion 8: complement of the derivative image stabilizes, and "
        "building far past its frozen bound leaves it unchanged on all four "
        "test curves",
        ok,
        f"dims {dims}",
    )


# ---------------------------------------------------------------------------
# 9. telescoping: order-0 case and the order-2 family

def test_criterion_09_telescoping():
    t0 = time.time()
    checks = []

    curve0 = build_curve("y^2 - x - t", QT)
    f0 = curve0.gen()
    tel0 = telescope(f0)
    checks.append(tel0.order == 0)
    checks.append(verify_telescoper(f0, tel0.coeffs, tel0.certificate))

    curve2 = build_curve("y^2 - x*(x - 1)*(x - t)", QT)
    f2 = build_element("1/y", curve2)
    tel2 = telescope(f2)
    checks.append(tel2.order == 2)
    checks.append(tel2.ranks[1] == 2)  # full rank at order 1: no shorter relation
    checks.append(verify_telescoper(f2, tel2.coeffs, tel2.certificate))

    elapsed = time.time() - t0
    _report(
        "criterion 9: y on y^2 = x + t has a verified order-0 telescoper; "
        "1/y on the degree-2 pencil has a verified telescoper of order "
        "exactly 2",
        all(checks) and elapsed < 120.0,
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 10. the bundled corpus replaces non-reproducible large-scale timings

def test_criterion_10_corpus(capsys):
    t0 = time.time()
    corpus_path = ROOT / "data" / "desk_corpus.jsonl"
    records = [
        json.loads(line)
        for line in corpus_path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    checks = [len(records) == 12]
    outcomes = [run_record(rec) for rec in records]
    checks.append(all(out["status"] == "ok" for out in outcomes))

    argv = ["corpus", str(corpus_path), "--format", "structured"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv + ["--jobs", "2"]) == 0
    second = capsys.readouterr().out
    checks.append(first == second and bool(first))

    readme = (ROOT / "README.md").read_text()
    checks.append("not reproducible at desk scale" in readme)

    elapsed = time.time() - t0
    _report(
        "criterion 10: all 12 corpus entries verified with byte-deterministic "
        "structured output; README declares the large-scale timings are not "
        "reproduced here",
        all(checks),
        f"{elapsed:.1f}s",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
