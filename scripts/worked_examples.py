#!/usr/bin/env python3
"""Walk through the engine's flagship computations, printing each stage.

Covers: classification of the reduction step's linear system on three bases
of the same field, module enlargement when the step degenerates, a full
Hermite pass, the additive decomposition that certifies an antiderivative,
and the Picard-Fuchs operator of the Legendre family.
"""
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from algint.algfield import Curve, FieldBasis, initial_suitable_basis, power_basis
from algint.hermite import hermite_step, lazy_hermite_reduce, present
from algint.parsing import build_curve, build_element
from algint.polyred import Decomposer, antiderivative
from algint.rings import QQ, QT
from algint.telescoper import telescope


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def step_classification():
    banner("Linear-system classification on three bases of Q(x)[y]/(y^2 - x)")
    curve = build_curve("y^2 - x", QQ)
    f = build_element("y/(x^2*(x+1))", curve)
    y = curve.gen()
    x = curve.from_x(curve.xfrac.gen)
    for label, elems in (
        ("(x, x*y)", (x, x * y)),
        ("(x, y)", (x, y)),
        ("(x, (x+1)*y)", (x, (x + curve.one()) * y)),
    ):
        basis = FieldBasis(curve, elems)
        step = hermite_step(present(f, basis))
        print(f"  basis {label:14s} e = {basis.e}   outcome: {step.outcome.status}")


def module_enlargement():
    banner("Module enlargement driven by degenerate steps")
    curve = build_curve("y^2 - x", QQ)
    f = build_element("y/(x^2*(x+1))", curve)
    y = curve.gen()
    x = curve.from_x(curve.xfrac.gen)
    for label, elems in (
        ("(x, y)", (x, y)),
        ("(x, (x+1)*y)", (x, (x + curve.one()) * y)),
    ):
        result = lazy_hermite_reduce(f, FieldBasis(curve, elems))
        adjoined = ", ".join(str(a) for a in result.adjoined) or "(none)"
        final = ", ".join(str(w) for w in result.basis.elements)
        print(f"  start {label:14s} adjoined: {adjoined:12s} final basis: {final}")


def hermite_walkthrough():
    banner("Full Hermite pass: f = y/((x+1)*x^2) on y^2 - x")
    curve = build_curve("y^2 - x", QQ)
    f = build_element("y/(x^2*(x+1))", curve)
    result = lazy_hermite_reduce(f, initial_suitable_basis(f.curve))
    h = result.remainder.element()
    print(f"  f = {f}")
    print(f"  g = {result.g_part}")
    print(f"  h = {h}")
    print(f"  check f == dx(g) + h: {f == result.g_part.dx() + h}")


def decomposition():
    banner("Additive decomposition: f = y/x^3 from the basis (1, (x^2+1)*y)")
    curve = build_curve("y^2 - x", QQ)
    f = build_element("y/x^3", curve)
    one = curve.one()
    w1 = build_element("(x^2 + 1)*y", curve)
    basis = FieldBasis(curve, (one, w1))
    dec = Decomposer(curve).decompose(f, basis=basis)
    print(f"  u = {dec.u}   a = {dec.a}")
    print(f"  integrable: {dec.integrable}")
    g = dec.antiderivative()
    print(f"  antiderivative: {g}")
    print(f"  check dx(g) == f: {g.dx() == f}")
    print(f"  same result from the default basis: {antiderivative(f)}")


def picard_fuchs():
    banner("Telescoper for the Legendre family: f = 1/y on y^2 - x(x-1)(x-t)")
    curve = build_curve("y^2 - x*(x - 1)*(x - t)", QT)
    f = build_element("1/y", curve)
    t0 = time.time()
    tel = telescope(f)
    elapsed = time.time() - t0
    print(f"  order: {tel.order}   ranks per order: {tel.ranks}")
    for i, c in enumerate(tel.coeffs):
        print(f"  c_{i} = {c}")
    print(f"  certificate: {tel.certificate}")
    print(f"  elapsed: {elapsed:.2f}s")


def main():
    step_classification()
    module_enlargement()
    hermite_walkthrough()
    decomposition()
    picard_fuchs()
    print()


if __name__ == "__main__":
    main()
