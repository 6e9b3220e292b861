"""Lazy Hermite reduction.

Works with any basis W of integral elements whose derivation denominator e
is squarefree.  Each step removes one order from a repeated pole by solving
a row system modulo the squarefree layer v; when the system is degenerate
the step instead certifies a new integral element outside the current
module, the module is enlarged, and the current integrand is presented
anew over it.

The reduction never computes an integral basis.  Degenerate systems are the
only source of module enlargements, and each enlargement strictly divides
the module discriminant, so only finitely many can occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algfield import AlgElem, FieldBasis, initial_suitable_basis
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
        return _element(self.basis, self.u * self.v**self.d, self.numer)


@dataclass(frozen=True)
class Remainder:
    """h = (1/(d*e)) * nums*W with d squarefree, gcd(d, e) = 1 and
    gcd(d, nums) = 1; e is the derivation denominator of the basis."""

    basis: FieldBasis
    d: Poly
    nums: tuple

    def element(self):
        return _element(self.basis, self.d * self.basis.e, self.nums)


def _element(basis, den, numer):
    """(1/den) * numer*W as a field element."""
    xf = basis.curve.xfrac
    return basis.combine([xf.of(a, den) for a in numer])


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
    matrix: tuple
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
    the integrand.  A degenerate system is returned with its matrix and solve
    outcome so the caller can extract update candidates (or, for a solvable
    but underdetermined system, still apply the particular solution).
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
    if outcome.status == "unique":
        return _apply_solution(pres, matrix, outcome)
    return StepDegenerate(presentation=pres, matrix=matrix, outcome=outcome)


def _apply_solution(pres, matrix, outcome):
    """f - g' = (1/(u*v^(d-1))) * ((numer - u*v*b' - b*matrix)/v)*W for
    g = (1/v^(d-1)) * b*W."""
    b = outcome.solution
    vpow = pres.v ** (pres.d - 1)
    uv = pres.u * pres.v
    rest_numer = tuple(
        (a - uv * bi.derivative() - bm).exact_div(pres.v)
        for a, bi, bm in zip(pres.numer, b, vec_mat(b, matrix))
    )
    return StepReduced(
        g_part=_element(pres.basis, vpow, b),
        rest_den=pres.u * vpow,
        rest_numer=rest_numer,
        outcome=outcome,
    )


def basis_update(step):
    """Certified integral element outside the current module, derived from a
    degenerate step.

    Candidate order: for each degenerate leaf of the solve outcome, first
    u * c*W' = (u/e) * (c*M)*W for the leaf's kernel and cokernel vectors c,
    read from e*W' = M*W, then the direct quotients (1/w) * c*W with w the
    leaf modulus.  Inconsistent systems restrict to their inconsistent
    leaves; the certificate vectors of those carry the obstruction.  Every
    candidate must pass the integrality oracle and lie outside the module.
    """
    pres = step.presentation
    basis = pres.basis
    cur = basis.curve
    degenerate = [
        leaf
        for leaf in step.outcome.leaves
        if leaf.status
        == ("inconsistent" if step.outcome.status == "inconsistent" else "underdetermined")
    ]
    leaf_vectors = []
    for leaf in degenerate:
        vectors = []
        if leaf.status == "underdetermined":
            vectors.extend(leaf.kernel)
        for v in leaf.cokernel:
            if v not in vectors:
                vectors.append(v)
        leaf_vectors.append((leaf, vectors))
    candidates = []
    for leaf, vectors in leaf_vectors:
        for c in vectors:
            cm = vec_mat(c, basis.mmat)
            candidates.append(_element(basis, basis.e, [pres.u * a for a in cm]))
    for leaf, vectors in leaf_vectors:
        for c in vectors:
            quotient = [cur.xfrac.of(ci, leaf.modulus) for ci in c]
            candidates.append(basis.combine(quotient))
    theta, rejected = basis.first_new_integral(candidates)
    if theta is None:
        raise UpdateCandidatesExhausted(
            f"no candidate certified from {len(candidates)} tried: {rejected}"
        )
    return theta


def lazy_hermite_reduce(f, basis: Optional[FieldBasis] = None):
    """Reduce f to g' + h with h having only simple poles.

    Returns a HermiteResult carrying the derivative part g, the normalized
    remainder h, the final (possibly enlarged) basis, and the integral
    elements adjoined along the way.  Between steps the integrand stays in
    the presentation (1/(u*v^d)) * numer*W; only a module update rebuilds
    it, by presenting the current integrand over the enlarged basis.

    Termination: a reduction step leaves a rest whose denominator divides
    u*v^(d-1), and every factor of u has multiplicity below d, so on an
    unchanged basis the pole order d strictly drops.  A module update
    adjoins an integral element outside the module, so the module grows
    inside the integral closure, which it can do only finitely often.
    """
    if basis is None:
        basis = initial_suitable_basis(f.curve)
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
            try:
                theta = basis_update(step)
            except UpdateCandidatesExhausted:
                if step.outcome.solution is None:
                    raise
                # forced reduction with the particular solution of a
                # solvable but underdetermined step
                step = _apply_solution(pres, step.matrix, step.outcome)
            else:
                adjoined.append(theta)
                basis = basis.enlarge([theta])
                pres = present(pres.element(), basis)
                last_d = None
                continue
        g_total = g_total + step.g_part
        last_d = pres.d
        pres = _present(basis, step.rest_den, step.rest_numer)
    return HermiteResult(
        g_part=g_total, remainder=pres, basis=basis, adjoined=tuple(adjoined)
    )
