"""Lazy Hermite reduction.

Works over a suitable basis W: integral elements whose derivation
denominator e is squarefree.  The integrand is kept as
(1/(u*v^d)) * numer*W with v squarefree, gcd(u, v) = 1 and e | u*v.  Each
step removes one order from the repeated pole v by solving the row system
b*A = numer mod v with A = (uv/e)*M - (d-1)*u*v'*I.  When A is singular
modulo a factor w of v, Bronstein's lemma turns every row vector c with
c*A = 0 mod w and c nonzero mod w into an integral element (1/w) * c*W
outside the module (basis_update).  The module is enlarged by that one
element for the first row kernel vector of the solve, made suitable again
(algfield.make_suitable), and the integrand is presented anew over it.

The reduction never computes an integral basis.  Degenerate steps and the
suitability repairs after them are the only module enlargements; each
strictly enlarges the module inside the integral closure, so only finitely
many can occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algfield import AlgElem, FieldBasis, initial_suitable_basis, make_suitable
from .errors import AlgintError, UpdateCandidatesExhausted
from .linalg import SolveOutcome, solve_mod, vec_mat
from .rings import Poly, common_denominator, gcd, squarefree_decomposition


@dataclass(frozen=True)
class PolePresentation:
    """f = (1/(u*v^d)) * numer*W with v squarefree, gcd(u, v) = 1, d >= 2,
    e | u*v, and gcd(v, numer) = 1."""

    basis: FieldBasis
    u: Poly
    v: Poly
    d: int
    numer: tuple

    def element(self):
        return self.basis.element(self.u * self.v**self.d, self.numer)


@dataclass(frozen=True)
class Remainder:
    """h = (1/(d*e)) * nums*W with d squarefree, gcd(d, e) = 1 and
    gcd(d, nums) = 1; e is the derivation denominator of the basis."""

    basis: FieldBasis
    d: Poly
    nums: tuple

    def element(self):
        return self.basis.element(self.d * self.basis.e, self.nums)


@dataclass(frozen=True)
class StepReduced:
    """f = g_part' + (1/rest_den) * rest_numer*W over the step's basis."""

    g_part: AlgElem
    rest_den: Poly
    rest_numer: tuple
    outcome: SolveOutcome


@dataclass(frozen=True)
class StepDegenerate:
    presentation: PolePresentation
    outcome: SolveOutcome


@dataclass(frozen=True)
class HermiteResult:
    g_part: AlgElem
    remainder: Remainder
    basis: FieldBasis
    adjoined: tuple = field(default_factory=tuple)


def present(f, basis):
    """Rewrite f over the basis as a PolePresentation (repeated poles left)
    or a normalized Remainder (denominator squarefree)."""
    q, (numer,) = common_denominator([basis.coords_of(f)])
    return _present(basis, q, numer)


def _present(basis, q, numer):
    """present() of (1/q) * numer*W, with q monic."""
    g = q
    for a in numer:
        g = gcd(g, a)
    if g.degree > 0:
        q = q.exact_div(g)
        numer = tuple(a.exact_div(g) for a in numer)
    _, factors = squarefree_decomposition(q)
    d = max((mult for _, mult in factors), default=0)
    if d <= 1:
        return _normalize_remainder(basis, q, numer)
    v = basis.curve.xring.one
    for p, mult in factors:
        if mult == d:
            v = v * p
    u = q
    for _ in range(d):
        u = u.exact_div(v)
    # enforce e | u*v by inflating u and the numerator by the missing part
    scale = basis.e.exact_div(gcd(basis.e, u * v))
    if scale.degree > 0:
        u = u * scale
        numer = tuple(a * scale for a in numer)
    return PolePresentation(basis=basis, u=u, v=v, d=d, numer=numer)


def _normalize_remainder(basis, q, numer):
    g = gcd(q, basis.e) if q.degree > 0 else basis.curve.xring.one
    d = q.exact_div(g)
    scale = basis.e.exact_div(g)
    nums = tuple(a * scale for a in numer)
    return Remainder(basis=basis, d=d, nums=nums)


def hermite_step(pres):
    """One reduction step.  Solves b*(uv/e * M - (d-1)*u*v'*I) = numer mod v.

    A unique solution yields g = (1/v^(d-1)) * b*W and the reduced rest of
    the integrand,

        f - g' = (1/(u*v^(d-1))) * ((numer - u*v*b' - b*A)/v)*W.

    A degenerate system is returned with its solve outcome, whose leaves
    carry the row kernels basis_update takes its element from.
    """
    basis = pres.basis
    ring = basis.curve.xring
    uv_over_e = (pres.u * pres.v).exact_div(basis.e)
    shift = pres.u * pres.v.derivative() * ring.from_int(pres.d - 1)
    matrix = tuple(
        tuple(
            uv_over_e * p - (shift if i == j else ring.zero)
            for j, p in enumerate(row)
        )
        for i, row in enumerate(basis.mmat)
    )
    outcome = solve_mod(matrix, pres.numer, pres.v, ring)
    if outcome.status != "unique":
        return StepDegenerate(presentation=pres, outcome=outcome)
    b = outcome.solution
    vpow = pres.v ** (pres.d - 1)
    uv = pres.u * pres.v
    rest_numer = tuple(
        (a - uv * bi.derivative() - bm).exact_div(pres.v)
        for a, bi, bm in zip(pres.numer, b, vec_mat(b, matrix))
    )
    return StepReduced(
        g_part=basis.element(vpow, b),
        rest_den=pres.u * vpow,
        rest_numer=rest_numer,
        outcome=outcome,
    )


def basis_update(step):
    """The integral element outside the current module that Bronstein's
    lemma certifies for a degenerate step.

    The lemma (Bronstein, lazy Hermite reduction, INRIA RR-3562, 1998).  Let
    w be a factor of v, c a row vector with c*A = 0 mod w, and
    g = c*W / v^(d-1).  From e*W' = M*W,

        u*v^d * g' = (u*v*c' + c*A)*W,

    and w divides both terms, so the coordinates of g' over W have a pole
    of order at most d-1 at w (gcd(u, v) = 1 because e is squarefree).  W
    is integral, and d/dx deepens a pole at a place over w by the
    ramification index there, so g has pole order at most d-2 at w, and
    (1/w) * c*W = g * v^(d-1)/w is integral.  It lies outside the module
    whenever c is nonzero mod w.

    The element adjoined is (1/w) * c*W for the first leaf of the solve with
    the status of the whole solve (inconsistent if any leaf is, else
    underdetermined), w its modulus and c the first vector of its row
    kernel, which has a 1 in a free column and so is nonzero mod w.  The
    integrality oracle checks it once; UpdateCandidatesExhausted guards the
    argument.
    """
    basis, outcome = step.presentation.basis, step.outcome
    leaf = next(leaf for leaf in outcome.leaves if leaf.status == outcome.status)
    theta = basis.element(leaf.modulus, leaf.kernel[0])
    if not theta.is_integral() or basis.member(theta):
        raise UpdateCandidatesExhausted(f"the kernel quotient {theta} is not certified")
    return theta


def lazy_hermite_reduce(f, basis: Optional[FieldBasis] = None):
    """Reduce f to g' + h with h having only simple poles.

    Returns a HermiteResult carrying the derivative part g, the normalized
    remainder h, the final (possibly enlarged) basis, and the integral
    elements the module updates adjoined.  Between steps the integrand
    stays in the presentation (1/(u*v^d)) * numer*W; only a module update
    rebuilds it, by presenting the current integrand over the enlarged
    basis.  Every basis presented over is suitable (make_suitable), so
    each presentation has gcd(u, v) = 1.

    Termination: a reduction step leaves a rest whose denominator divides
    u*v^(d-1), and every factor of u has multiplicity below d, so on an
    unchanged basis the pole order d strictly drops.  A module update
    adjoins an integral element outside the module, so the module grows
    inside the integral closure, which it can do only finitely often.
    """
    basis = initial_suitable_basis(f.curve) if basis is None else make_suitable(basis)
    g_total = f.curve.zero()
    adjoined = []
    pres = present(f, basis)
    last_d = None  # pole order the previous step reduced on this basis
    while isinstance(pres, PolePresentation):
        if last_d is not None and pres.d >= last_d:
            raise AlgintError(
                f"a reduction step left pole order {pres.d}, not below {last_d}"
            )
        step = hermite_step(pres)
        if isinstance(step, StepDegenerate):
            theta = basis_update(step)
            adjoined.append(theta)
            basis = make_suitable(basis.enlarge([theta]))
            pres = present(pres.element(), basis)
            last_d = None
            continue
        g_total = g_total + step.g_part
        last_d = pres.d
        pres = _present(basis, step.rest_den, step.rest_numer)
    return HermiteResult(
        g_part=g_total, remainder=pres, basis=basis, adjoined=tuple(adjoined)
    )
