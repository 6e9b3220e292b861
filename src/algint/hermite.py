"""Lazy Hermite reduction.

Works over a suitable basis W: integral elements whose derivation
denominator e is squarefree.  The integrand is kept as
(1/(u*v^d)) * numer*W with v squarefree, gcd(u, v) = 1 and e | u*v, together
with the squarefree factorisation of u*v^d.  Each step removes one order
from the repeated pole v by solving the row system b*A = numer mod v with
A = (uv/e)*M - (d-1)*u*v'*I.  The rest u*v^(d-1) is presented from the
carried factorisation: v drops to multiplicity d-1, and only what the
numerators share with a factor is cancelled, factor by factor, so
squarefree_decomposition runs only on an integrand given as a field element
or presented over a new basis.  When A is singular modulo a factor w of v,
Bronstein's lemma turns every row vector c with c*A = 0 mod w and c nonzero
mod w into an integral element (1/w) * c*W outside the module
(basis_update).  The module is enlarged by that one
element for the first row kernel vector of the solve, made suitable again
(algfield.make_suitable), and the integrand is presented anew over it.

The reduction never computes an integral basis.  Degenerate steps and the
suitability repairs after them are the only module enlargements; each
strictly enlarges the module inside the integral closure, so only finitely
many can occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .algfield import AlgElem, FieldBasis, initial_suitable_basis, make_suitable
from .errors import AlgintError, UpdateCandidatesExhausted
from .linalg import SolveOutcome, solve_mod, vec_mat
from .rings import Poly, common_denominator, gcd, squarefree_decomposition


class Presented(NamedTuple):
    """f = (1/den) * numer*W over a suitable basis, den monic with the
    squarefree factorisation factors (pairs (p, k) as
    squarefree_decomposition gives them).  den and numer may share content;
    presenting f cancels it."""

    basis: FieldBasis
    den: Poly
    numer: tuple
    factors: tuple

    def element(self):
        return self.basis.element(self.den, self.numer)


@dataclass(frozen=True)
class PolePresentation:
    """f = (1/(u*v^d)) * numer*W with v squarefree, gcd(u, v) = 1, d >= 2,
    e | u*v, and gcd(v, numer) = 1; factors is the squarefree factorisation
    of u*v^d, whose factor of multiplicity d is v."""

    basis: FieldBasis
    u: Poly
    v: Poly
    d: int
    numer: tuple
    factors: tuple

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
    """f = g_part' + (1/rest_den) * rest_numer*W over the step's basis, with
    rest_factors the squarefree factorisation of rest_den."""

    g_part: AlgElem
    rest_den: Poly
    rest_numer: tuple
    rest_factors: tuple
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
    return _present(basis, q, numer, tuple(squarefree_decomposition(q)[1]))


def _present(basis, q, numer, factors):
    """present() of (1/q) * numer*W, with q monic and factors its squarefree
    factorisation; the content is cancelled factor by factor (_cancel)."""
    q, numer, factors = _cancel(q, numer, factors)
    if not factors or factors[-1][1] <= 1:
        return _normalize_remainder(basis, q, numer)
    v, d = factors[-1]
    u = q
    for _ in range(d):
        u = u.exact_div(v)
    # enforce e | u*v by inflating u and the numerator by the missing part;
    # e is squarefree, so the scale is coprime to u*v
    scale = basis.e.exact_div(gcd(basis.e, u * v))
    if scale.degree > 0:
        u = u * scale
        numer = tuple(a * scale for a in numer)
        factors = _merge(factors + ((scale, 1),))
    return PolePresentation(basis=basis, u=u, v=v, d=d, numer=numer, factors=factors)


def _merge(pairs):
    """Squarefree factorisation from pairs (p, k) of pairwise coprime monic
    p: one product per multiplicity, ascending, without units or k = 0."""
    by_mult = {}
    for p, k in pairs:
        if k > 0 and p.degree > 0:
            by_mult[k] = by_mult[k] * p if k in by_mult else p
    return tuple((by_mult[k], k) for k in sorted(by_mult))


def product_factors(*factorisations):
    """Squarefree factorisation of a product from those of its factors: a
    prime in factors of multiplicities k and l of two of them has k + l."""
    out = []
    for fs in factorisations:
        merged = []
        for p, k in fs:
            for i, (q, l) in enumerate(out):
                g = gcd(p, q)
                if g.degree > 0:
                    merged.append((g, k + l))
                    p = p.exact_div(g)
                    out[i] = (q.exact_div(g), l)
            merged.append((p, k))
        out = list(_merge(out + merged))
    return tuple(out)


def _cancel(q, numer, factors):
    """(1/q) * numer in lowest terms, and the squarefree factorisation of the
    new q, from that of q.  For a factor p of multiplicity k, c = gcd(p,
    numer) holds the primes of p that divide every numerator: they lose one
    multiplicity, and the pass repeats on c alone."""
    pieces = []
    for p, k in factors:
        while k:
            c = p
            for a in numer:
                c = gcd(c, a)
                if c.degree == 0:
                    break
            if c.degree == 0:
                break
            pieces.append((p.exact_div(c), k))
            q = q.exact_div(c)
            numer = tuple(a.exact_div(c) for a in numer)
            p, k = c, k - 1
        pieces.append((p, k))
    return q, numer, _merge(pieces)


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
        rest_factors=_merge((p, k - 1 if k == pres.d else k) for p, k in pres.factors),
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

    f is a field element, reduced from basis (an initial suitable basis
    when None), or a Presented form, reduced from its own basis.  Returns
    a HermiteResult carrying the derivative part g, the normalized
    remainder h, the final (possibly enlarged) basis, and the integral
    elements the module updates adjoined.  Between steps the integrand
    stays in the presentation (1/(u*v^d)) * numer*W; only a module update
    rebuilds it, by presenting the current integrand over the enlarged
    basis.  Every basis presented over is suitable (make_suitable), so
    each presentation has gcd(u, v) = 1.  A step's rest keeps the
    factorisation of its denominator (StepReduced.rest_factors).

    Termination: a reduction step leaves a rest whose denominator divides
    u*v^(d-1), and every factor of u has multiplicity below d, so on an
    unchanged basis the pole order d strictly drops.  A module update
    adjoins an integral element outside the module, so the module grows
    inside the integral closure, which it can do only finitely often.
    """
    if isinstance(f, Presented):
        basis = f.basis
        pres = _present(basis, f.den, f.numer, f.factors)
    else:
        basis = initial_suitable_basis(f.curve) if basis is None else make_suitable(basis)
        pres = present(f, basis)
    g_total = basis.curve.zero()
    adjoined = []
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
        pres = _present(basis, step.rest_den, step.rest_numer, step.rest_factors)
    return HermiteResult(
        g_part=g_total, remainder=pres, basis=basis, adjoined=tuple(adjoined)
    )
