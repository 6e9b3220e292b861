"""Lazy Hermite reduction.

Works over a suitable basis W: integral elements whose derivation
denominator e is squarefree.  The integrand is one Presented form from
entry to exit, (1/den) * numer*W with the squarefree factorisation of den.
While a pole repeats, (v, d) = factors[-1] has d >= 2 and, for
u = den/v^d, gcd(u, v) = 1 and e | u*v.  Each step removes one order from
v by solving the row system b*A = numer mod v with
A = (uv/e)*M - (d-1)*u*v'*I.  Its rest over den/v carries the
factorisation with v at multiplicity d-1, and presenting it cancels only
what the numerators share with a factor, so squarefree_decomposition runs
only on an integrand given as a field element or presented over a new
basis.  A depends on the basis and (den, v, d) alone, so step_system is a
pure function of them that also takes the inverse of A mod v, when there
is one, from a solve on a zero right-hand side.  polyred.Decomposer
memoises it per curve, which turns a repeated step into one product with
that inverse.  When A is singular modulo a factor w of v, Bronstein's
lemma turns every row vector c with c*A = 0 mod w and c nonzero mod w into
an integral element (1/w) * c*W outside the module (basis_update).  The
module is enlarged by that one element for the first row kernel vector of
the solve, made suitable again (algfield.make_suitable), and the integrand
is presented anew over it.  The form left with simple poles becomes a
Remainder once, at exit.

The reduction never computes an integral basis.  Degenerate steps and the
suitability repairs after them are the only module enlargements; each
strictly enlarges the module inside the integral closure, so only finitely
many can occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .algfield import AlgElem, FieldBasis, make_suitable
from .errors import AlgintError, UpdateCandidatesExhausted
from .linalg import SolveLeaf, SolveOutcome, solve_mod, vec_mat
from .rings import Poly, common_denominator, gcd, squarefree_decomposition


class Presented(NamedTuple):
    """f = (1/den) * numer*W over a suitable basis W, den monic with the
    squarefree factorisation factors (pairs (p, k), k ascending, as
    squarefree_decomposition gives them).

    As handed in, den and numer may share content.  _present cancels it
    and, when a pole repeats, that is (v, d) = factors[-1] has d >= 2,
    multiplies both by the part of e missing from u*v, u = den/v^d.  The
    form it returns then has gcd(u, v) = 1, e | u*v and gcd(v, numer) = 1."""

    basis: FieldBasis
    den: Poly
    numer: tuple
    factors: tuple

    def element(self):
        return self.basis.element(self.den, self.numer)


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
    """f = g_part' + rest over the step's basis."""

    g_part: AlgElem
    rest: Presented
    outcome: SolveOutcome


@dataclass(frozen=True)
class StepDegenerate:
    presentation: Presented
    outcome: SolveOutcome


@dataclass(frozen=True)
class HermiteResult:
    g_part: AlgElem
    remainder: Remainder
    basis: FieldBasis
    adjoined: tuple = field(default_factory=tuple)


def present(f, basis):
    """Rewrite f over the basis as a Presented form, as _present leaves it."""
    q, (numer,) = common_denominator([basis.coords_of(f)])
    return _present(Presented(basis, q, numer, squarefree_decomposition(q)))


def _present(pres):
    """pres with its content cancelled factor by factor (_cancel) and, when
    a pole repeats, inflated so that e | u*v (see Presented)."""
    basis = pres.basis
    den, numer, factors = _cancel(pres.den, pres.numer, pres.factors)
    if factors and factors[-1][1] >= 2:
        # e is squarefree, so gcd(e, den) = gcd(e, u*v) and the scale is
        # coprime to u*v
        scale = basis.e.exact_div(gcd(basis.e, den))
        if scale.degree > 0:
            den = den * scale
            numer = tuple(a * scale for a in numer)
            factors = _merge(factors + ((scale, 1),))
    return Presented(basis, den, numer, factors)


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


def _remainder(pres):
    """The Remainder of a form _present left with simple poles only."""
    basis, q = pres.basis, pres.den
    g = gcd(q, basis.e) if q.degree > 0 else basis.curve.xring.one
    scale = basis.e.exact_div(g)
    return Remainder(basis, q.exact_div(g), tuple(a * scale for a in pres.numer))


class StepSystem(NamedTuple):
    """The system of a step on the pole (v, d) of a form with denominator
    den over a basis: vpow = v^(d-1), uv = den/vpow,
    matrix = uv/e * M - (d-1)*u*v'*I and inverse = matrix^-1 mod v, None
    when matrix is singular modulo a factor of v or its solve splits v.
    None of it depends on the numerator."""

    vpow: Poly
    uv: Poly
    matrix: tuple
    inverse: Optional[tuple]


def step_system(basis, den, v, d):
    """The StepSystem of a step on the pole (v, d) of den over basis, its
    inverse from solve_mod on a zero right-hand side."""
    ring = basis.curve.xring
    vpow = v ** (d - 1)
    uv = den.exact_div(vpow)
    uv_over_e = uv.exact_div(basis.e)
    shift = uv.exact_div(v) * v.derivative() * ring.from_int(d - 1)
    matrix = tuple(
        tuple(
            uv_over_e * p - (shift if i == j else ring.zero)
            for j, p in enumerate(row)
        )
        for i, row in enumerate(basis.mmat)
    )
    inverse = solve_mod(matrix, (ring.zero,) * len(matrix), v, ring).inverse
    return StepSystem(vpow, uv, matrix, inverse)


def hermite_step(pres, system_of=step_system):
    """One reduction step on the repeated pole (v, d) = pres.factors[-1],
    u = den/v^d.  Solves b*A = numer mod v for A the matrix of the
    StepSystem that system_of(basis, den, v, d) gives, uv/e * M -
    (d-1)*u*v'*I: b = (numer mod v)*A^-1 mod v when A has an inverse mod v,
    else by solve_mod.  b is the one solution with entries of degree below
    deg v either way.

    A unique solution yields g = (1/v^(d-1)) * b*W and the reduced rest of
    the integrand, factored as den with v at multiplicity d-1: for
    numer = q*v + r,

        f - g' = (1/(u*v^(d-1))) * (q + (r - u*v*b' - b*A)/v)*W,

    where the exact division by v checks b.  A degenerate system is
    returned with its solve outcome, whose leaves carry the row kernels
    basis_update takes its element from.
    """
    basis = pres.basis
    v, d = pres.factors[-1]
    system = system_of(basis, pres.den, v, d)
    q, r = zip(*(divmod(a, v) for a in pres.numer))
    if system.inverse is None:
        outcome = solve_mod(system.matrix, r, v, basis.curve.xring)
        if outcome.status != "unique":
            return StepDegenerate(presentation=pres, outcome=outcome)
    else:
        outcome = _kept_outcome(system, r, v)
    b = outcome.solution
    rest_numer = tuple(
        qi + (ri - system.uv * bi.derivative() - bm).exact_div(v)
        for qi, ri, bi, bm in zip(q, r, b, vec_mat(b, system.matrix))
    )
    rest_factors = _merge(pres.factors[:-1] + ((v, d - 1),))
    return StepReduced(
        g_part=basis.element(system.vpow, b),
        rest=Presented(basis, pres.den.exact_div(v), rest_numer, rest_factors),
        outcome=outcome,
    )


def _kept_outcome(system, r, v):
    """The outcome solve_mod gives on a system with an inverse for the
    numerator r mod v: one unique leaf, whose solution is r times the
    inverse mod v."""
    b = tuple(c % v for c in vec_mat(r, system.inverse))
    leaf = SolveLeaf(v, "unique", b, (), None, system.inverse)
    return SolveOutcome("unique", b, (leaf,))


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


def lazy_hermite_reduce(f, basis: Optional[FieldBasis], system_of=step_system):
    """Reduce f to g' + h with h having only simple poles.

    f is a field element, reduced from basis, or a Presented form, reduced
    from its own basis (basis is then unused).  Returns a HermiteResult
    carrying the derivative part g, the normalized remainder h, the final
    (possibly enlarged) basis, and the integral elements the module
    updates adjoined.  The integrand stays one Presented form, as _present
    leaves it, from entry to exit: a step's rest is presented from the
    factorisation it carries, and only a module update presents the
    current integrand anew, over the enlarged basis.
    Every basis presented over is suitable (make_suitable), so every form
    has gcd(u, v) = 1.  The form left with simple poles becomes the
    Remainder once, at exit.  system_of, which gives the StepSystem of a
    step (step_system or a memoised copy of it), goes to every
    hermite_step.

    Termination: a reduction step leaves a rest whose denominator divides
    u*v^(d-1), and every factor of u has multiplicity below d, so on an
    unchanged basis the pole order d strictly drops.  A module update
    adjoins an integral element outside the module, so the module grows
    inside the integral closure, which it can do only finitely often.
    """
    if isinstance(f, Presented):
        basis = f.basis
        pres = _present(f)
    else:
        basis = make_suitable(basis)
        pres = present(f, basis)
    g_total = basis.curve.zero()
    adjoined = []
    last_d = None  # pole order the previous step reduced on this basis
    while pres.factors and pres.factors[-1][1] >= 2:
        d = pres.factors[-1][1]
        if last_d is not None and d >= last_d:
            raise AlgintError(f"a reduction step left pole order {d}, not below {last_d}")
        step = hermite_step(pres, system_of)
        if isinstance(step, StepDegenerate):
            theta = basis_update(step)
            adjoined.append(theta)
            basis = make_suitable(basis.enlarge([theta]))
            pres = present(pres.element(), basis)
            last_d = None
            continue
        g_total = g_total + step.g_part
        last_d = d
        pres = _present(step.rest)
    return HermiteResult(
        g_part=g_total, remainder=_remainder(pres), basis=basis, adjoined=tuple(adjoined)
    )
