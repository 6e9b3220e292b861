"""Lazy Hermite reduction.

Works with any basis W of integral elements whose derivation denominator e
is squarefree.  Each step removes one order from a repeated pole by solving
a row system modulo the squarefree layer v; when the system is degenerate
the step instead certifies a new integral element outside the current
module, the module is enlarged, and the reduction restarts from scratch on
the same integrand.

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
from .rings import Poly, gcd, lcm_many, squarefree_decomposition


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
        cur = self.basis.curve
        den = cur.xfrac.of(self.u * self.v**self.d)
        return self.basis.combine([cur.xfrac.of(a) / den for a in self.numer])


@dataclass(frozen=True)
class Remainder:
    """h = (1/(d*e)) * nums*W with d squarefree, gcd(d, e) = 1 and
    gcd(d, nums) = 1; e is the derivation denominator of the basis."""

    basis: FieldBasis
    d: Poly
    nums: tuple

    def element(self):
        cur = self.basis.curve
        den = cur.xfrac.of(self.d * self.basis.e)
        return self.basis.combine([cur.xfrac.of(a) / den for a in self.nums])


@dataclass(frozen=True)
class StepReduced:
    g_part: AlgElem
    rest: AlgElem
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
    cur = basis.curve
    ring = cur.xring
    coords = basis.coords_of(f)
    q = lcm_many([c.den for c in coords])
    numer = tuple((c * cur.xfrac.of(q)).as_poly() for c in coords)
    _, factors = squarefree_decomposition(q)
    d = max((mult for _, mult in factors), default=0)
    if d <= 1:
        return _normalize_remainder(basis, q, numer)
    v = ring.one
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


def _step_system(pres):
    basis = pres.basis
    ring = basis.curve.xring
    n = basis.curve.n
    uv_over_e = (pres.u * pres.v).exact_div(basis.e)
    shift = pres.u * pres.v.derivative() * ring.from_int(pres.d - 1)
    matrix = tuple(
        tuple(
            uv_over_e * basis.mmat[i][j] - (shift if i == j else ring.zero)
            for j in range(n)
        )
        for i in range(n)
    )
    return matrix


def hermite_step(pres):
    """One reduction step.  Solves b*(uv/e * M - (d-1)*u*v'*I) = numer mod v.

    A unique solution yields g = (1/v^(d-1)) * b*W and the reduced rest of
    the integrand.  A degenerate system is returned with its solve outcome
    so the caller can extract update candidates (or, for a solvable but
    underdetermined system, still apply the particular solution).
    """
    basis = pres.basis
    ring = basis.curve.xring
    matrix = _step_system(pres)
    outcome = solve_mod(matrix, pres.numer, pres.v, ring)
    if outcome.status == "unique":
        return _apply_solution(pres, outcome)
    return StepDegenerate(presentation=pres, outcome=outcome)


def _apply_solution(pres, outcome):
    basis = pres.basis
    cur = basis.curve
    ring = cur.xring
    b = outcome.solution
    vpow = pres.v ** (pres.d - 1)
    g_den = cur.xfrac.of(vpow)
    g_part = basis.combine([cur.xfrac.of(bi) / g_den for bi in b])
    uv = pres.u * pres.v
    uv_over_e = uv.exact_div(basis.e)
    bm = vec_mat(b, basis.mmat)
    shift = pres.u * pres.v.derivative() * ring.from_int(pres.d - 1)
    bracket = [
        pres.numer[i] - uv * b[i].derivative() - uv_over_e * bm[i] + shift * b[i]
        for i in range(cur.n)
    ]
    rest_den = cur.xfrac.of(pres.u * vpow)
    rest = basis.combine(
        [cur.xfrac.of(c.exact_div(pres.v)) / rest_den for c in bracket]
    )
    return StepReduced(g_part=g_part, rest=rest, outcome=outcome)


def basis_update(step):
    """Certified integral element outside the current module, derived from a
    degenerate step.

    Candidate order: for each degenerate leaf of the solve outcome, first
    u * c*W' for the leaf's kernel and cokernel vectors c, then the direct
    quotients (1/w) * c*W with w the leaf modulus.  Inconsistent systems
    restrict to their inconsistent leaves; the certificate vectors of those
    carry the obstruction.  Every candidate must pass the integrality oracle
    and lie outside the module.
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
    u_elem = cur.from_x(cur.xfrac.of(pres.u))
    candidates = []
    for leaf, vectors in leaf_vectors:
        for c in vectors:
            theta = cur.zero()
            for ci, w in zip(c, basis.elements):
                theta = theta + cur.from_x(cur.xfrac.of(ci)) * w.dx()
            candidates.append(u_elem * theta)
    for leaf, vectors in leaf_vectors:
        w_inv = cur.from_x(cur.xfrac.of(leaf.modulus)).inv()
        for c in vectors:
            candidates.append(basis.combine([cur.xfrac.of(ci) for ci in c]) * w_inv)
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
    elements adjoined along the way.  The reduction recomputes the pole
    presentation from scratch after every module update.

    Termination: a reduction step leaves a rest whose denominator divides
    u*v^(d-1), and every factor of u has multiplicity below d, so on an
    unchanged basis the pole order d strictly drops.  A module update
    adjoins an integral element outside the module, so the module grows
    inside the integral closure, which it can do only finitely often.
    """
    if basis is None:
        basis = initial_suitable_basis(f.curve)
    g_total = f.curve.zero()
    current = f
    adjoined = []
    last_d = None  # pole order the previous step reduced on this basis
    while True:
        pres = present(current, basis)
        if isinstance(pres, Remainder):
            return HermiteResult(
                g_part=g_total,
                remainder=pres,
                basis=basis,
                adjoined=tuple(adjoined),
            )
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
                step = _apply_solution(pres, step.outcome)
            else:
                adjoined.append(theta)
                basis = basis.enlarge([theta])
                last_d = None
                continue
        g_total = g_total + step.g_part
        current = step.rest
        last_d = pres.d
