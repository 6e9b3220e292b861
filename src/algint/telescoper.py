"""Creative telescoping by iterated additive decomposition.

For f in Q(t)(x)[y]/<m> the loop decomposes D_t^r f = g_r' + h_r and stores
the remainders in a ledger.  Because every remainder lives in a space of
bounded dimension (simple poles over the current basis plus the finite
image complement), the h_r become linearly dependent over Q(t); the first
dependency sum(c_i * h_i) = 0 yields the telescoper L = sum(c_i * D_t^i)
with certificate g = sum(c_i * gamma_i), where gamma_r accumulates the
derivative parts so that D_t^r f = gamma_r' + h_r exactly.

The ledger keeps each remainder in the coordinates of its decomposition,
h = (1/d)*p_nums*W + (1/a)*q_nums*V over the basis pair (W, V), not as a
field element.  Each round takes the next remainder from those coordinates
(Decomposer.dt_decompose): h = sum c_k*u_k with c_k in Q(t) over the unit
remainders u_k = (1/a)*x^k*V_j and (1/d)*x^k*W_j, and D_t followed by the
reduction is Q(t)-semilinear, so red(D_t h) = sum c_k'*red(u_k) +
sum c_k*red(D_t u_k), where each unit's reductions are kept per curve.  A
round on units seen before takes no Hermite step, complement reduction or
squarefree factorisation.  The dependency search reads the coordinates
over V (Decomposer.remainder_rows): ranks and the normalized dependency do
not depend on the K(x)-basis they are read in.

All entries must share one basis W; u and a follow from W, so they are
shared with it.  When a unit image ends on an enlarged module, the whole
ledger is rebased before the round is taken again over the new basis:
every stored remainder is rewritten over the new basis (its representation
stays denominator-squarefree, so this never triggers Hermite steps) and the
derivative part that splits off is folded into the entry's gamma.  The
certificate is checked from scratch at the end (verify_telescoper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algfield import AlgElem
from .errors import (
    AlgintError,
    ContainmentViolated,
    DomainError,
    MaxOrderExceeded,
    PreconditionError,
)
from .linalg import nullspace
from .polyred import AdditiveDecomp, on_kept_curve
from .rings import QT, common_denominator


@dataclass
class LedgerEntry:
    """D_t^i f = dx(gamma) + h, with h the remainder of the decomposition
    dec: (1/d)*p_nums*W + (1/a)*q_nums*V."""

    dec: AdditiveDecomp
    gamma: AlgElem


class RemainderLedger:
    """Remainders of the telescoping iteration over one shared basis."""

    def __init__(self, decomposer, first_dec):
        self.decomposer = decomposer
        self.basis = first_dec.basis
        self.entries = [LedgerEntry(first_dec, first_dec.g)]

    def extend(self, dec, gamma):
        """Append the entry for dec; rebase the earlier entries if dec
        enlarged the module."""
        self.entries.append(LedgerEntry(dec, gamma))
        if dec.basis is not self.basis:
            self._rebase(dec.basis)

    def next_remainder(self):
        """The decomposition of D_t h for the newest remainder h, from the
        kept unit images (Decomposer.dt_decompose).  A unit image that ends
        on an enlarged module rebases the ledger onto it first."""
        newest = self.entries[-1]
        dec = self.decomposer.dt_decompose(newest.dec)
        while dec.basis != self.basis:
            self._rebase(dec.basis)
            dec = self.decomposer.dt_decompose(newest.dec)
        return dec

    def _rebase(self, new_basis):
        """Rewrite every entry not yet over the new basis onto it."""
        if not new_basis.module_contains(self.basis):
            raise ContainmentViolated(
                "previous basis does not lie in the enlarged module"
            )
        self.basis = new_basis
        for entry in self.entries:
            if entry.dec.basis is new_basis:
                continue
            dec = self.decomposer.decompose(entry.dec.remainder_element(), basis=new_basis)
            if dec.basis is not new_basis:
                # the rebase input has squarefree denominators, so the
                # reduction must not move the module again
                raise ContainmentViolated("module enlarged during a rebase")
            entry.gamma = entry.gamma + dec.g
            entry.dec = dec


@dataclass(frozen=True)
class Telescoper:
    """L = sum(coeffs[i] * D_t^i) with L(f) = dx(certificate)."""

    coeffs: tuple
    certificate: AlgElem
    order: int
    ranks: tuple


def _dependency_matrix(rows):
    """The linear system over Q(t) of a dependency: one column per
    remainder, one row per component j and power x^k of the numerators,
    zero rows dropped."""
    n = len(rows[0])
    out = []
    for j in range(n):
        degmax = max(row[j].degree for row in rows)
        for k in range(degmax + 1):
            out_row = tuple(row[j].coeff(k) for row in rows)
            if any(out_row):
                out.append(out_row)
    return tuple(out)


def find_dependency(rows):
    """First Q(t)-linear dependency among the ledger remainders, given as
    numerator rows over one common denominator in one K(x)-basis.

    Returns (coeffs, rank): coeffs is None while the remainders are
    independent, otherwise a normalized vector with nonzero last entry.
    """
    field = rows[0][0].ring.coeff
    m = len(rows)
    matrix = _dependency_matrix(rows)
    if not matrix:
        coeffs = (field.one,) + (field.zero,) * (m - 1)
        return coeffs, 0
    null = nullspace(matrix, field)
    rank = m - len(null)
    if not null:
        return None, rank
    vec = null[0]
    if vec[-1] == field.zero:
        # the previous round found the earlier remainders independent
        raise AlgintError("dependency misses the newest remainder")
    return _normalize_dependency(vec), rank


def _normalize_dependency(vec):
    """Scale a Q(t) dependency to integer polynomials in t without common
    content, the last one with a positive leading coefficient."""
    _, (polys,) = common_denominator([vec])
    denlcm = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    polys = [p * Fraction(denlcm) for p in polys]
    g = math.gcd(*(int(c) for p in polys for c in p.coeffs))
    if g > 1:
        polys = [p / Fraction(g) for p in polys]
    if polys[-1].lc < 0:
        polys = [-p for p in polys]
    return tuple(QT.of(p) for p in polys)


def apply_telescoper(f, coeffs):
    """sum(coeffs[i] * D_t^i f)."""
    acc = f.curve.zero()
    df = f
    for i, c in enumerate(coeffs):
        if i > 0:
            df = df.dt()
        acc = acc + c * df
    return acc


def verify_telescoper(f, coeffs, certificate):
    """Check sum(c_i * D_t^i f) = dx(certificate) from scratch, for an
    operator with a nonzero coefficient (the zero operator annihilates
    everything and telescopes nothing)."""
    return any(coeffs) and apply_telescoper(f, coeffs) == certificate.dx()


def telescope(f, max_order=20):
    """Minimal-order telescoper for f with respect to D_t.

    Raises MaxOrderExceeded (with the per-round ranks) if no dependency
    shows up by the requested order, and DomainError for a negative order.
    The returned telescoper is verified against a fresh computation of
    sum(c_i D_t^i f) before it is returned.  The decompositions use the
    Decomposer kept for f's curve (polyred.on_kept_curve), so the
    certificate lies on the kept curve equal to f's.
    """
    if max_order < 0:
        raise DomainError(f"order cap must be >= 0, got {max_order}")
    if f.curve.field != QT:
        raise PreconditionError("telescoping requires the coefficient field QQ(t)")
    decomposer, f = on_kept_curve(f)
    dec0 = decomposer.decompose(f)
    ledger = RemainderLedger(decomposer, dec0)
    ranks = []
    r = 0
    while True:
        rows = decomposer.remainder_rows([entry.dec for entry in ledger.entries])
        coeffs, rank = find_dependency(rows)
        ranks.append(rank)
        if coeffs is not None:
            cert = f.curve.zero()
            for c, entry in zip(coeffs, ledger.entries):
                cert = cert + c * entry.gamma
            if not verify_telescoper(f, coeffs, cert):
                raise AlgintError("telescoper failed its final verification")
            return Telescoper(
                coeffs=coeffs, certificate=cert, order=r, ranks=tuple(ranks)
            )
        if r >= max_order:
            raise MaxOrderExceeded(max_order, tuple(ranks))
        prev = ledger.entries[-1]
        dec = ledger.next_remainder()
        gamma = prev.gamma.dt() + dec.g
        ledger.extend(dec, gamma)
        r += 1
