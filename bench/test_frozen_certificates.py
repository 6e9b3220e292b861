"""sympy cross-checks of the benchmark's expected answers.

Independent of algint: derivatives are taken implicitly in
Q(t)(x)[y]/(m), with dy/dx = -m_x/m_y and dy/dt = -m_t/m_y, and an
element is zero when the numerator of its normal form vanishes modulo the
monic m.  Run from the repository root:

    python3 -m pytest bench/test_frozen_certificates.py

The tests skip when sympy is not installed.
"""

from __future__ import annotations

import itertools
import pathlib
import sys

import pytest

sympy = pytest.importorskip("sympy")

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import workloads  # noqa: E402

X, Y, T = sympy.symbols("x y t")


def expr(text):
    return sympy.parse_expr(text.replace("^", "**"), {"x": X, "y": Y, "t": T})


class Field:
    """Q(t)(x)[y]/(m) with m monic in y."""

    def __init__(self, curve_text):
        m = sympy.Poly(expr(curve_text), Y)
        self.m = sympy.Poly(m.as_expr() / m.LC(), Y)
        m_expr = self.m.as_expr()
        m_y = sympy.diff(m_expr, Y)
        self.dydx = -sympy.diff(m_expr, X) / m_y
        self.dydt = -sympy.diff(m_expr, T) / m_y

    def dx(self, f):
        return sympy.diff(f, X) + sympy.diff(f, Y) * self.dydx

    def dt(self, f):
        return sympy.diff(f, T) + sympy.diff(f, Y) * self.dydt

    def is_zero(self, f):
        num, den = sympy.fraction(sympy.together(f))
        reduce = lambda p: sympy.Poly(sympy.expand(p), Y).rem(self.m)  # noqa: E731
        assert not reduce(den).is_zero, "denominator is a zero divisor"
        return reduce(num).is_zero


@pytest.mark.parametrize(
    "pair", workloads.load_frozen(), ids=lambda p: f"{p['curve']} | {p['integrand']}"
)
def test_frozen_telescoper_certifies(pair):
    field = Field(pair["curve"])
    f = expr(pair["integrand"])
    lhs, df = 0, f
    for i, c in enumerate(pair["coefficients"]):
        if i:
            df = field.dt(df)
        lhs += expr(c) * df
    assert len(pair["coefficients"]) == pair["order"] + 1
    assert field.is_zero(lhs - field.dx(expr(pair["certificate"])))


def _first(workload, seed, kind, count):
    stream = (r for r in workloads.records(workload, seed) if r["kind"] == kind)
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("seed", [0, 1])
def test_integrands_are_derivatives_plus_planted_pole(seed):
    for rec in _first("integrate-qq", seed, "integrate", 16):
        field = Field(rec["record"]["curve"])
        f = expr(rec["record"]["integrand"])
        if rec["witness"] is not None:
            pole = rec["witness"]["pole"]
            residue = sympy.Rational(rec["witness"]["trace_residue"]) / field.m.degree()
            assert not rec["record"]["expect"]["integrable"]
            f -= residue / (X - pole)
        assert field.is_zero(f - field.dx(expr(rec["g"]))), rec["id"]


@pytest.mark.parametrize("seed", [0, 1])
def test_claims_hold_unless_perturbed(seed):
    for rec in _first("verify-text", seed, "claim", 12):
        field = Field(rec["curve"])
        holds = field.is_zero(expr(rec["f"]) - field.dx(expr(rec["g"])))
        assert holds == rec["expect"], rec["id"]
