"""Creative telescoping by iterated additive decomposition.

For f in Q(t)(x)[y]/<m> the loop decomposes D_t^r f = g_r' + h_r and stores
the remainders in a ledger.  Because every remainder lives in a space of
bounded dimension (simple poles over the current basis plus the finite
image complement), the h_r become linearly dependent over Q(t); the first
dependency sum(c_i * h_i) = 0 yields the telescoper L = sum(c_i * D_t^i)
with certificate g = sum(c_i * gamma_i), where gamma_r accumulates the
derivative parts so that D_t^r f = gamma_r' + h_r exactly.

All entries must share one basis W; u and a follow from W, so they are
shared with it.  When a decomposition enlarges the module, the whole ledger
is rebased: every stored remainder is rewritten over the new basis (its
representation stays denominator-squarefree, so this never triggers Hermite
steps) and the derivative part that splits off is folded into the entry's
gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algfield import AlgElem
from .errors import (
    AlgintError,
    ContainmentViolated,
    MaxOrderExceeded,
    PreconditionError,
)
from .linalg import nullspace
from .polyred import Decomposer
from .rings import QT, common_denominator


@dataclass
class LedgerEntry:
    """D_t^i f = dx(gamma) + h."""

    h_elem: AlgElem
    gamma: AlgElem


class RemainderLedger:
    """Remainders of the telescoping iteration over one shared basis."""

    def __init__(self, decomposer, first_dec):
        self.decomposer = decomposer
        self.basis = first_dec.basis
        self.entries = [LedgerEntry(first_dec.remainder_element(), first_dec.g)]

    def extend(self, dec, gamma):
        """Append the entry for dec; rebase the earlier entries if dec
        enlarged the module."""
        self.entries.append(LedgerEntry(dec.remainder_element(), gamma))
        if dec.basis is not self.basis:
            self._rebase(dec.basis)

    def _rebase(self, new_basis):
        """Rewrite every entry but the newest over the new basis."""
        if not new_basis.module_contains(self.basis):
            raise ContainmentViolated(
                "previous basis does not lie in the enlarged module"
            )
        self.basis = new_basis
        for entry in self.entries[:-1]:
            dec = self.decomposer.decompose(entry.h_elem, basis=new_basis)
            if dec.basis is not new_basis:
                # the rebase input has squarefree denominators, so the
                # reduction must not move the module again
                raise ContainmentViolated("module enlarged during a rebase")
            entry.gamma = entry.gamma + dec.g
            entry.h_elem = dec.remainder_element()


@dataclass(frozen=True)
class Telescoper:
    """L = sum(coeffs[i] * D_t^i) with L(f) = dx(certificate)."""

    coeffs: tuple
    certificate: AlgElem
    order: int
    ranks: tuple


def _dependency_matrix(entries):
    curve = entries[0].h_elem.curve
    _, nums = common_denominator([en.h_elem.coords() for en in entries])
    rows = []
    for j in range(curve.n):
        degmax = max(nums[i][j].degree for i in range(len(entries)))
        for k in range(degmax + 1):
            row = tuple(nums[i][j].coeff(k) for i in range(len(entries)))
            if any(c != curve.field.zero for c in row):
                rows.append(row)
    return tuple(rows)


def find_dependency(entries):
    """First Q(t)-linear dependency among the ledger remainders.

    Returns (coeffs, rank): coeffs is None while the remainders are
    independent, otherwise a normalized vector with nonzero last entry.
    """
    field = entries[0].h_elem.curve.field
    m = len(entries)
    rows = _dependency_matrix(entries)
    if not rows:
        coeffs = (field.one,) + (field.zero,) * (m - 1)
        return coeffs, 0
    null = nullspace(rows, field)
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
    shows up by the requested order.  The returned telescoper is verified
    against a fresh computation of sum(c_i D_t^i f) before it is returned.
    """
    if f.curve.field != QT:
        raise PreconditionError("telescoping requires the coefficient field QQ(t)")
    decomposer = Decomposer(f.curve)
    dec0 = decomposer.decompose(f)
    ledger = RemainderLedger(decomposer, dec0)
    ranks = []
    r = 0
    while True:
        coeffs, rank = find_dependency(ledger.entries)
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
        dec = decomposer.decompose(prev.h_elem.dt(), basis=ledger.basis)
        gamma = prev.gamma.dt() + dec.g
        ledger.extend(dec, gamma)
        r += 1
