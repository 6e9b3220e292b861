"""Seeded record streams for the three benchmark workloads.

Every record carries an expected answer that is known without running the
engine:

- telescope-qt: orders from Picard-Fuchs theory.  A nonzero class in the
  first de Rham cohomology of a non-isotrivial elliptic family generates the
  whole rank-2 Gauss-Manin module, so its minimal telescoper has order 2.
  ``c/y`` and ``c*x/y`` with ``c != 0`` are such classes (``dx/y`` and
  ``x dx/y`` span the cohomology), and so is ``1/y^3``: with
  ``A f + B f' = 1`` for ``f = x(x-a)(x-t)`` one has
  ``dx/y^3 = (A + 2B') dx/y + d(-2B/y)`` and ``A + 2B'`` is the nonzero
  ``(2(a^2 - a t + t^2) x - a t (a + t)) / (a t (t - a))^2``.  The curve
  ``y^3 = x^2 + t`` is isotrivial: scaling ``x -> s^3 x, y -> s^2 y,
  t -> s^6 t`` shows the period of ``dx/y`` is ``c * t^(1/6)``, hence order
  1.  The desk records keep their own ``expect`` blocks.
- integrate-qq: integrands are written down as ``dx(g)`` symbolically, by
  the product rule and ``y' = -m_x/m_y``, so they are integrable by
  construction.  A planted simple pole ``c/(x - a)`` makes the residue of
  the trace at ``a`` equal to ``n*c != 0``; the trace of a derivative is
  the derivative of a rational function and has no residues, so such an
  integrand is not integrable.
- verify-text: claims built the same way are true by construction;
  perturbed claims add ``x`` to an antiderivative or certificate (which
  adds ``dx(x) = 1`` to its derivative; ``y`` would not do on ``y - 1``) or
  add 1 to the ``D_t^0`` coefficient of a telescoper (which adds ``f != 0``
  to ``L(f)``), so they are false.

The streams are infinite and deterministic in the seed.  Record kinds
follow a fixed cycle, and the structural parameters that drive the cost
(curve, degree, pole order, frozen pair) are dealt from shuffled decks, so
every run holds nearly the same mix; the seed deals the decks and draws the
coefficients.
"""

from __future__ import annotations

import json
import pathlib
import random
from fractions import Fraction

WORKLOADS = ("telescope-qt", "integrate-qq", "verify-text")

FROZEN = pathlib.Path(__file__).resolve().parent / "frozen_telescopers.json"


class Deck:
    """Deals items in seeded order and reshuffles when empty, so any stretch
    of draws holds each item in nearly equal proportion."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


# -- polynomial text, independent of the engine


def poly_text(coeffs):
    """Ascending rational coefficients in x as parser input."""
    terms = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if not c:
            continue
        lit = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        mono = "" if k == 0 else ("*x" if k == 1 else f"*x^{k}")
        terms.append(f"({lit}){mono}")
    return " + ".join(reversed(terms)) or "0"


def poly_deriv(coeffs):
    return [k * Fraction(c) for k, c in enumerate(coeffs)][1:]


def poly_from_roots(lead, roots):
    out = [Fraction(lead)]
    for r in roots:
        shifted = [Fraction(0)] + out
        for k, c in enumerate(out):
            shifted[k] -= r * c
        out = shifted
    return out


# -- telescope-qt


def legendre(a):
    return f"y^2 - x*(x - ({a}))*(x - t)"


def _telescope(rid, curve, integrand, order):
    return {
        "id": rid,
        "kind": "telescope",
        "record": {"name": rid, "mode": "telescope", "curve": curve,
                   "integrand": integrand, "expect": {"order": order}},
    }


# The desk records open the stream and are checked in the warm-up of every
# run (see WARMUP).
_TELESCOPE_HEAD = (
    ("desk-sqrt-shift", "y^2 - x - t", "y", 0),
    ("desk-rational-log", "y - 1", "1/(x - t)", 1),
    ("desk-legendre-period", "y^2 - x*(x - 1)*(x - t)", "1/y", 2),
)
# A constant term beside x (as in (x + 1)/y) would triple the cost of some
# records, so numerators are c/y or c*x/y.
_CONSTANT_NUMERATORS = ("1/y", "2/y", "-1/y", "3/y")
_X_NUMERATORS = ("x/y", "2*x/y", "-x/y", "3*x/y")


def _telescope_cycle(rng):
    """Each Legendre parameter a once, three of them with c/y and three with
    c*x/y, and the isotrivial cubic, in seeded order: every cycle holds the
    same curves, so runs differ in coefficients and order, not in the mix."""
    a_values = [1, -1, 2, -2, 3, -3]
    rng.shuffle(a_values)
    forms = [_CONSTANT_NUMERATORS] * 3 + [_X_NUMERATORS] * 3
    rng.shuffle(forms)
    cycle = [("legendre", legendre(a), rng.choice(form), 2)
             for a, form in zip(a_values, forms)]
    cycle.insert(rng.randrange(len(cycle) + 1), ("isotrivial-cubic", "y^3 - x^2 - t", "1/y", 1))
    return cycle


def _telescope_records(rng):
    i = 0
    kinds = _TELESCOPE_HEAD
    while True:
        for name, curve, integrand, order in kinds:
            yield _telescope(f"tq{i}-{name}", curve, integrand, order)
            i += 1
        kinds = _telescope_cycle(rng)


def slow_records(workload, seed):
    """Records that take ten seconds or more: checked and traced by the
    traced run only.  For telescope-qt the seed picks the quartic
    y^2 - x(x-1)(x-t)(x+t) with 1/y or a Legendre curve with 1/y^3."""
    if workload != "telescope-qt":
        return []
    rng = random.Random(f"{workload}:{seed}:slow")
    if rng.random() < 0.5:
        return [_telescope("tq-slow-quartic", "y^2 - x*(x - 1)*(x - t)*(x + t)", "1/y", 2)]
    a = rng.choice([1, -1, 2, -2, 3, -3])
    return [_telescope("tq-slow-legendre-inv-cube", legendre(a), "1/y^3", 2)]


# -- integrate-qq and the antiderivative claims of verify-text


def _radical_curve(n, p, special):
    """y^n - p; special lists the integer roots of p (branch points)."""
    pt = poly_text(p)
    return {
        "curve": f"y^{n} - ({pt})",
        "n": n,
        "yprime": f"({poly_text(poly_deriv(p))})*y/({n}*({pt}))",
        "special": special,
    }


# Singular models whose power basis is not integrally closed, so the
# reduction must update its module.  The trefoil is not a radical curve;
# y' = -m_x/m_y is written out by hand.
_SINGULAR = {
    "node": _radical_curve(2, [0, 0, -1, 1], [0, 1]),  # y^2 - x^2*(x - 1)
    "cusp": _radical_curve(2, [0, 0, 0, 1], [0]),  # y^2 - x^3
    "trefoil": {
        "curve": "y^3 - 3*x^2*y + 2*x^3 + x^2",
        "n": 3,
        "yprime": "(6*x*y - 6*x^2 - 2*x)/(3*y^2 - 3*x^2)",
        "special": [0],
    },
}

# Degrees of p for y^n - p (genus 1 and 2 for y^2).  Cost grows about
# twofold per degree for y^3 and y^4, and a degree-3 p there would make a
# tenth of the records as slow as the rest together.
_RADICAL_DEGREES = {2: (3, 4, 5), 3: (1, 2), 4: (1, 2)}

# Records on y^2 curves (hyperelliptic, node, cusp) cost a third of the
# others; they are three in ten, so the median record sits inside the
# distribution of the costlier curves rather than in the gap between the
# two groups.
_INTEGRATE_CYCLE = ("radical-3", "radical-2", "radical-4", "node", "radical-3",
                    "trefoil", "radical-4", "cusp", "radical-3", "radical-4")


class _ElementDraws:
    def __init__(self, rng):
        self.rng = rng
        self.pole_order = Deck(rng, [1, 2, 3]).draw
        self.poly_len = Deck(rng, [1, 2, 3]).draw
        self.at_special = Deck(rng, [True, False]).draw
        self.degree = {n: Deck(rng, ds).draw for n, ds in _RADICAL_DEGREES.items()}

    def curve(self, kind):
        if kind in _SINGULAR:
            return _SINGULAR[kind]
        n = int(kind.split("-")[1])
        # y^n - p with p = c * prod(x - r_i), distinct roots: p is
        # squarefree, so the curve is irreducible (Eisenstein at any root)
        roots = self.rng.sample(range(-3, 4), self.degree[n]())
        lead = self.rng.choice([1, 2, -1, 3])
        return _radical_curve(n, poly_from_roots(lead, roots), sorted(roots))

    def coefficient(self, curve):
        """A_k = P_k + c/(x - b)^j: a pole of order 1-3, at a branch or
        singular point half of the time, plus a polynomial part.  Returns
        (A_k text, dA_k/dx text)."""
        rng = self.rng
        poly = [Fraction(rng.randint(-3, 3)) for _ in range(self.poly_len())]
        c = Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 1, 2]))
        special = curve["special"]
        if self.at_special():
            b = rng.choice(special)
        else:
            b = rng.choice([b for b in range(-3, 4) if b not in special])
        j = self.pole_order()
        pole = f"x - ({b})"
        a_text = f"({poly_text(poly)} + ({c})/({pole})^{j})"
        da_text = f"({poly_text(poly_deriv(poly))} + ({-j * c})/({pole})^{j + 1})"
        return a_text, da_text

    def derivative_pair(self, curve):
        """(g, dx(g)) as text, dx(g) by the product rule term by term."""
        g_terms, f_terms = [], []
        for k in range(curve["n"]):
            a_text, da_text = self.coefficient(curve)
            if k == 0:
                g_terms.append(a_text)
                f_terms.append(da_text)
                continue
            ypow = "y" if k == 1 else f"y^{k}"
            lower = "" if k == 1 else ("*y" if k == 2 else f"*y^{k - 1}")
            g_terms.append(f"{a_text}*{ypow}")
            f_terms.append(f"{da_text}*{ypow}")
            f_terms.append(f"{k}*{a_text}{lower}*{curve['yprime']}")
        return " + ".join(g_terms), " + ".join(f_terms)


def _integrate_records(rng):
    draws = _ElementDraws(rng)
    i = 0
    while True:
        for kind in _INTEGRATE_CYCLE:
            curve = draws.curve(kind)
            g, f = draws.derivative_pair(curve)
            # every other record, shifted each cycle, gets a planted pole
            planted = (i + i // len(_INTEGRATE_CYCLE)) % 2 == 1
            witness = None
            if planted:
                pole_at = rng.choice([4, -4, 5, 7])
                c = Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2]))
                f = f"{f} + ({c})/(x - ({pole_at}))"
                witness = {"pole": pole_at, "trace_residue": str(curve["n"] * c)}
            rid = f"iq{i}-{kind}"
            yield {
                "id": rid,
                "kind": "integrate",
                "record": {"name": rid, "mode": "integrate", "curve": curve["curve"],
                           "integrand": f, "expect": {"integrable": not planted}},
                "g": g,
                "witness": witness,
            }
            i += 1


# -- verify-text


def load_frozen():
    with open(FROZEN, encoding="utf-8") as fh:
        return json.load(fh)["pairs"]


# Each frozen pair once per cycle, in seeded order, each after three
# antiderivative claims, so the median record is a claim (parse, dx,
# compare, print) and the tail is telescoper checks (parse, D_t, dx,
# compare).  A quarter of the claims and of the telescoper checks are
# perturbed negatives; the warm-up is four such groups of four.
_VERIFY_GROUP = ("claim", "claim", "claim", "telescoper")
_VERIFY_WARMUP_GROUPS = 4


def _verify_records(rng):
    draws = _ElementDraws(rng)
    curve_kind = Deck(rng, _INTEGRATE_CYCLE).draw
    pairs = load_frozen()
    perturbation = Deck(rng, ["certificate", "coefficient"]).draw
    claims = len(pairs) * (len(_VERIFY_GROUP) - 1)
    i = 0
    order = rng.sample(pairs, _VERIFY_WARMUP_GROUPS)
    while True:
        bad_claims = set(rng.sample(range(claims), claims // 4))
        bad_pairs = set(rng.sample(range(len(order)), len(order) // 4))
        k = 0
        for j, p in enumerate(order):
            for kind in _VERIFY_GROUP:
                rid = f"vt{i}-{kind}"
                i += 1
                if kind == "claim":
                    negative = k in bad_claims
                    k += 1
                    curve = draws.curve(curve_kind())
                    g, f = draws.derivative_pair(curve)
                    if negative:
                        g = f"{g} + x"
                    yield {"id": rid, "kind": "claim", "curve": curve["curve"],
                           "g": g, "f": f, "expect": not negative}
                    continue
                negative = j in bad_pairs
                coeffs, cert = list(p["coefficients"]), p["certificate"]
                if negative and perturbation() == "certificate":
                    cert = f"{cert} + x"
                elif negative:
                    coeffs[0] = f"{coeffs[0]} + 1"
                yield {"id": rid, "kind": "telescoper", "curve": p["curve"],
                       "integrand": p["integrand"], "coefficients": coeffs,
                       "certificate": cert, "expect": not negative}
        order = rng.sample(pairs, len(pairs))


# Records at the head of each stream that a run checks before its timed
# window opens: the desk records of telescope-qt, one cycle of
# integrate-qq, four groups of verify-text.
WARMUP = {
    "telescope-qt": len(_TELESCOPE_HEAD),
    "integrate-qq": len(_INTEGRATE_CYCLE),
    "verify-text": _VERIFY_WARMUP_GROUPS * len(_VERIFY_GROUP),
}
# Records per cycle of each stream after the warm-up; the timed window
# holds whole cycles, so every run times the same mix.
CYCLE = {
    "telescope-qt": 7,
    "integrate-qq": len(_INTEGRATE_CYCLE),
    "verify-text": len(load_frozen()) * len(_VERIFY_GROUP),
}


def records(workload, seed):
    """Infinite deterministic record stream of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    streams = {
        "telescope-qt": _telescope_records,
        "integrate-qq": _integrate_records,
        "verify-text": _verify_records,
    }
    if workload not in streams:
        raise ValueError(f"unknown workload {workload!r}")
    return streams[workload](rng)
