"""Polynomial reduction: the stage that decides integrability.

After Hermite reduction the remainder has squarefree denominator.  Its part
with denominator e is rewritten over a basis V that behaves well at
infinity and then reduced modulo the image of the map

    phi(p) = (1/u^2) * (a*u*p' - a*u'*p + u*p*B)      (rows p in K[x]^n)

which satisfies (1/a) * phi(p)*V = ((p/u)*V)' read row-wise, i.e. phi
captures exactly the derivatives of elements with denominator bound u.  The
image in K[x]^n is spanned by phi(u*x^k*e_i) = k*x^(k-1)*a*e_i + x^k*B_i
and the images of the rows of degree < deg u that phi maps into K[x]^n;
its complement is spanned by monomials below a bound read off the top
coefficients of B (ComplementNV).  A reduced remainder is zero iff the
integrand was integrable.

u is taken as b times the square part root of Disc(W), which bounds the
denominators any antiderivative of the remainder can have.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import isqrt, lcm
from typing import NamedTuple

from .algfield import (
    AlgElem,
    FieldBasis,
    dt_coeff,
    dt_poly,
    initial_suitable_basis,
    scaled_powers,
)
from .errors import AlgintError, PreconditionError, SuitabilityFailure
from .hermite import Presented, lazy_hermite_reduce, product_factors, step_system
from .linalg import char_poly, det, hnf_rows, inverse, mat_mul, nullspace, transpose, vec_mat
from .rings import (
    QT,
    Poly,
    common_denominator,
    gcd,
    invert_mod,
    lcm_many,
    square_part_root,
    squarefree_decomposition,
)


def _val_inf(rf):
    """Valuation at infinity of a rational function (+inf for zero)."""
    if not rf:
        return 10**9
    return rf.den.degree - rf.num.degree


def _max_deg(rows):
    out = -1
    for row in rows:
        for p in row:
            if p:
                out = max(out, p.degree)
    return out


def _suitable_at_inf(vb):
    return _max_deg(vb.mmat) < vb.e.degree


def start_at_infinity(curve):
    """The elements (l*y)^j / x^k_j that suitable_at_infinity starts from."""
    n, a = curve.n, curve.m.coeffs
    degs = [
        (-_val_inf(curve.lead**i * a[n - i]), i) for i in range(1, n + 1) if a[n - i]
    ]
    x = curve.xfrac.gen
    out = []
    for j, w in enumerate(scaled_powers(curve)):
        k = max([0] + [-(-j * d // i) for d, i in degs])
        out.append(w * curve.from_x(x**-k))
    return out


def suitable_at_infinity(curve):
    """Basis V, integral at infinity, whose derivation data e*V' = M*V has
    every entry of M of degree below deg e (the decomposition may use a
    polynomial multiple of e).  It starts from each (l*y)^j over the least
    x^k_j that makes it integral at infinity: with m = y^n + ... + a_0, l*y
    is a root of T^n + c_1*T^(n-1) + ... + c_n, c_i = l^i * a_(n-i), whose
    roots have least valuation min_i v(c_i)/i (the Newton polygon at
    infinity), so k_j = max(0, max_i ceil(j*deg c_i / i)) over nonzero c_i.
    The local module at infinity is then enlarged until it is suitable."""
    vb = FieldBasis(curve, start_at_infinity(curve))
    for _ in range(64):
        if _suitable_at_inf(vb):
            return vb
        vb = _repair_at_infinity(vb)
    raise SuitabilityFailure("enlargement at infinity did not stabilize")


def _repair_at_infinity(vb):
    """One certified enlargement of the local module at infinity.

    The lemma: x*v' is integral at infinity for v integral there, since the
    derivation x*d/dx keeps the local ring at infinity.  With a*V' = B*V,
    top the largest degree in B and k = 2 + top - deg a >= 2 (V is not yet
    suitable), x^(3-k)*v_i' = x^(2-k) * (x*v_i') is integral at infinity,
    and its V-coordinates x^(3-k)/a * B_i have valuation -1 exactly where
    B_i has an entry of degree top, so that element lies outside the local
    module.  The element adjoined takes B_i the first row of B with an
    entry of the top degree; it is built only for the integrality oracle,
    which checks it once, and enlarged by its V-coordinates.
    """
    a = vb.e
    top = _max_deg(vb.mmat)
    k = 2 + top - a.degree
    xf = vb.curve.xfrac
    scale = xf.gen ** (3 - k) / xf.of(a)
    row = next(row for row in vb.mmat if any(p.degree == top for p in row))
    coords = [scale * xf.of(p) for p in row]
    outside = any(_val_inf(c) < 0 for c in coords)
    if not outside or not vb.combine(coords).is_integral_at_infinity():
        raise SuitabilityFailure("the scaled derivative is not certified")
    return _dvr_enlarge(vb, coords)


def _dvr_enlarge(vb, coords):
    """Basis of the module over the local ring at infinity spanned by vb and
    theta = coords*V, by Trager's normalisation at infinity.

    Only theta modulo that module matters, so each coordinate is cut to its
    polynomial part P_i.  With s = max deg P_i and z = 1/x, the rows z^s*e_i
    and z^s*P(1/z) span a K[z]-lattice between z^s*K[z]^n and K[z]^n, so
    its Hermite form (hnf_rows, as for the finite module) has powers of z
    as pivots and entries of degree at most s.  Reversing each row back to
    x gives K[x]-combinations of vb whose transition has a power of x as
    determinant: the enlargement adds no pole at any x != 0, and e' divides
    e*x^k.
    """
    cur = vb.curve
    ring = cur.xring
    polys = [c.num // c.den for c in coords]
    s = _max_deg([polys])

    def reverse(p):
        return Poly(ring, (ring.coeff.zero,) * (s - p.degree) + p.coeffs[::-1])

    zs = ring.monomial(ring.coeff.one, s)
    rows = [[zs if i == j else ring.zero for j in range(cur.n)] for i in range(cur.n)]
    rows.append([reverse(p) for p in polys])
    h = hnf_rows(rows, ring)
    return FieldBasis(cur, [vb.combine([reverse(p) for p in row]) for row in h])


def compute_u(basis, b):
    """Denominator bound for antiderivatives of remainders over this basis:
    b times the square part root of the basis discriminant
    disc(W) = det(trans)^2 * disc(1, y, ..., y^(n-1))."""
    cur = basis.curve
    disc = det(basis.trans, cur.xfrac) ** 2 * cur.power_discriminant
    if not disc.is_polynomial:
        raise AlgintError("discriminant of an integral basis must be polynomial")
    return (square_part_root(disc.as_poly()) * b).monic()


def euclid_split(rem):
    """Split a normalized remainder h = (1/(d*e)) * nums*W into
    (1/d) * r*W + (1/e) * s*W with deg r_i < deg d, via h_i = r_i*e + s_i*d."""
    d = rem.d
    e = rem.basis.e
    einv = invert_mod(e % d, d)
    r = tuple((h * einv) % d for h in rem.nums)
    s = tuple((h - ri * e).exact_div(d) for h, ri in zip(rem.nums, r))
    return d, r, s


@dataclass(frozen=True)
class PhiMap:
    """phi(p) = (1/u^2)(a*u*p' - a*u'*p + u*p*B) on rows p in K[x]^n."""

    u: Poly
    a: Poly
    bmat: tuple


def integer_roots(coeffs, field):
    """The integer roots, ascending, of T^n + c_1*T^(n-1) + ... + c_n over
    K = QQ or QQ(t), coeffs = (c_1, ..., c_n).  Over QQ(t) an integer root
    is one of every specialisation of t, so the candidates come from one
    over QQ: by the rational root test they divide the last nonzero
    coefficient cleared to integers, and are at most the Cauchy bound
    1 + max |c_i|.  The candidates that vanish exactly in K are kept."""
    spec = list(coeffs)
    if field == QT:
        t0 = next(t for t in count() if all(_value(c.den.coeffs, t) for c in spec))
        spec = [_value(c.num.coeffs, t0) / _value(c.den.coeffs, t0) for c in spec]
    cands = {0}
    while spec and not spec[-1]:
        spec.pop()
    if spec:
        low = int(abs(spec[-1] * lcm(*(c.denominator for c in spec))))
        bound = int(1 + max(abs(c) for c in spec))
        for d in range(1, min(isqrt(low), bound) + 1):
            if low % d == 0:
                cands.update(r for r in (d, -d, low // d, -low // d) if abs(r) <= bound)
    ascending = tuple(coeffs[::-1]) + (field.one,)
    return sorted(r for r in cands if not _value(ascending, r, field.zero))


def _value(coeffs, v, zero=0):
    """The value at v of the polynomial with ascending coefficients coeffs."""
    return sum((c * v**k for k, c in enumerate(coeffs)), zero)


class ComplementNV:
    """Standard complement of im(phi) inside K[x]^n, up to a proved bound.

    The lemma.  Let a and u be monic, deg B < deg a (V is suitable at
    infinity), delta = deg a - deg u - 1, B_top the coefficient matrix of
    x^(deg a - 1) in B and N(s) = (s - deg u)*I + B_top, singular iff
    deg u - s is an eigenvalue of B_top.  A row p of degree s with top
    coefficients c has phi(p) of top part c*N(s) at degree s + delta.

    The image.  For every row r, phi(u*r) = a*r' + r*B is polynomial, so
    p = p0 + u*r with deg p0 < deg u has phi(p) polynomial exactly when
    u^2 divides u^2*phi(p0).  Those p0 form a K-space L, found by one
    nullspace, and the polynomial rows of im(phi) are spanned by phi(L)
    and the rows phi(u*x^k*e_i) = k*x^(k-1)*a*e_i + x^k*B_i, whose top
    part is row i of N(k + deg u) at degree k + deg a - 1.

    The bound.  Let s* = max(deg u, 1 + the largest integer s >= 0 with
    det N(s) = 0).  For s >= s*, (1) the rows phi(u*x^k*e_i),
    k = s - deg u, have the rows of the invertible N(s) as top parts, so
    every monomial of degree >= s* + delta is a lead; (2) an image row
    phi(p) with deg p = s has a lead of degree s + delta.  So phi(L) and
    the rows for k < s* - deg u give every lead below s* + delta, the
    complement is frozen at s* + delta - 1, and reduce uses (1) above it.

    The echelon.  Those rows come in by increasing lead monomial of their
    preimage, under the order (degree, component), and form an echelon by
    lead monomial, each with the preimage row that maps onto it.  A row
    that reduces to zero leaves a kernel row of phi ((p/u)*V constant, as
    for u*coords_V(1)) whose lead is that of its preimage, so the kernel
    leads differ; all have degree < s* by (2), and the kernel rows are
    kept, since p1 is unique only up to them.
    """

    def __init__(self, phi):
        u, a = phi.u, phi.a
        self.ring = u.ring
        self.field = field = u.ring.coeff
        if u.lc != field.one or a.lc != field.one or _max_deg(phi.bmat) >= a.degree:
            raise PreconditionError("complement needs u and a monic, deg B < deg a")
        self.phi = phi
        self.n = len(phi.bmat)
        self.leads = {}
        self._kernel = []
        self._delta = a.degree - u.degree - 1
        self._btop = [[p.coeff(a.degree - 1) for p in row] for row in phi.bmat]
        self.ensure_stable()

    # -- the image rows

    def _low_rows(self):
        """(phi(p0), p0) for the basis of L that nullspace gives.  With
        B_ij = Q_ij*u + R_ij, a = Q_a*u^2 + R_a and w_j = u*p_j' - u'*p_j,

            u^2*phi(p) = u^2*(Q_a*w + p*Q) + R_a*w + u*p*R,

        so phi(p) is polynomial exactly when u^2 divides R_a*w + u*p*R.
        The nullspace columns are that row for the monomials x^d*e_i,
        d < deg u, ascending, modulo u^2, where u*x^d*R_ij is
        u*((x^d*R_ij) mod u); so each p0 has its free column as lead and the
        leads ascend.  Only the rows of L are mapped in full."""
        u, ring, n = self.phi.u, self.ring, self.n
        du, usq, up = u.degree, u * u, u.derivative()
        qa, ra = divmod(self.phi.a, usq)
        split = [[divmod(b, u) for b in brow] for brow in self.phi.bmat]
        cols = []
        for d in range(du):
            xd = ring.monomial(ring.coeff.one, d)
            diag = (ra * (u * xd.derivative() - up * xd)) % usq
            for i, brow in enumerate(split):
                col = [u * ((xd * r) % u) for _, r in brow]
                col[i] = col[i] + diag
                cols.append([p.coeff(k) for p in col for k in range(2 * du)])
        for vec in nullspace(transpose(cols), self.field):
            pre = tuple(Poly(ring, vec[i::n]) for i in range(n))
            row = []
            for j, q in enumerate(pre):
                w = u * q.derivative() - up * q
                high, low = qa * w, ra * w
                for p, brow in zip(pre, split):
                    if p:
                        high, low = high + p * brow[j][0], low + u * p * brow[j][1]
                row.append(high + low.exact_div(usq))
            yield row, pre

    def _u_row(self, k, i):
        """phi(u*x^k*e_i) = a*(x^k)'*e_i + x^k*B_i and its preimage."""
        ring = self.ring
        xk = ring.monomial(ring.coeff.one, k)
        row = [xk * b for b in self.phi.bmat[i]]
        row[i] = row[i] + self.phi.a * xk.derivative()
        pre = tuple(self.phi.u * xk if j == i else ring.zero for j in range(self.n))
        return row, pre

    def _insert(self, w, pre):
        row, preim = list(w), list(pre)
        while True:
            lead = self._lead_monomial(row)
            if lead is None:
                self._kernel.append((self._lead_monomial(preim), preim))
                return
            hit = self.leads.get(lead)
            if hit is None:
                break
            c = row[lead[1]].coeff(lead[0])
            row = [a - c * b for a, b in zip(row, hit["row"])]
            preim = [a - c * b for a, b in zip(preim, hit["preim"])]
        inv = self.field.one / row[lead[1]].coeff(lead[0])
        row, preim = [inv * p for p in row], [inv * p for p in preim]
        self.leads[lead] = {"row": row, "preim": preim}

    def _lead_monomial(self, row):
        return max(((p.degree, j) for j, p in enumerate(row) if p), default=None)

    # -- the bound

    def ensure_stable(self):
        """Insert phi(L) and the rows phi(u*x^k*e_i) for k < s* - deg u,
        and freeze the complement at s* + delta - 1; the constructor calls
        it once."""
        du = self.phi.u.degree
        eigen = integer_roots(char_poly(self._btop, self.field), self.field)
        s_star = max([du] + [du - r + 1 for r in eigen if du - r >= 0])
        for row, pre in self._low_rows():
            self._insert(row, pre)
        for k in range(s_star - du):
            for i in range(self.n):
                self._insert(*self._u_row(k, i))
        self._frozen = s_star + self._delta - 1

    def _reduce_above(self, row):
        """(p, q) with row = phi(p) + q and deg q < s* + delta, by (1) from
        the top degree down on dense coefficient lists, so that each degree
        costs one solve against N(s) = k*I + B_top, k = s - deg u, and a
        fixed number of field operations: p = u * sum c_(i,k)*x^k*e_i."""
        top, bound = _max_deg([row]), max(self._frozen + 1, 0)
        zero = self.field.zero
        shift = self._delta + self.phi.u.degree
        q = [list(p.coeffs) + [zero] * (top + 1 - len(p.coeffs)) for p in row]
        pre = [[zero] * (top - shift + 1) for _ in range(self.n)]
        a = self.phi.a.coeffs
        for deg in range(top, bound - 1, -1):
            vec = [qj[deg] for qj in q]
            if not any(vec):
                continue
            k = deg - shift
            lam = self.field.from_int(k)
            nmat = [[c + lam if i == j else c for j, c in enumerate(brow)]
                    for i, brow in enumerate(self._btop)]
            for i, c in enumerate(vec_mat(vec, inverse(nmat, self.field))):
                if c:
                    pre[i][k] = c
                    for qj, b in zip(q, self.phi.bmat[i]):
                        _subtract(qj, k, c, b.coeffs)
                    if k:
                        _subtract(q[i], k - 1, c * k, a)
        ring = self.ring
        return [self.phi.u * Poly(ring, c) for c in pre], [Poly(ring, qj) for qj in q]

    # -- public views

    def standard_monomials(self):
        """Monomials (degree, component) spanning the complement, sorted;
        the tests compare complements by them."""
        monos = ((k, j) for k in range(self._frozen + 1) for j in range(self.n))
        return tuple(m for m in monos if m not in self.leads)

    def reduce(self, row):
        """Split a row of K[x]^n into its image and complement parts.

        Returns (p1, q2) with row = phi(p1) + q2, where phi(p1) lies in
        K[x]^n, q2 is supported on standard monomials, and p1 is 0 at the
        lead monomial of every kernel row of phi (which makes it unique).
        """
        p1, q = self._reduce_above(row)
        q2 = [self.ring.zero] * self.n
        while True:
            lead = self._lead_monomial(q)
            if lead is None:
                break
            k, j = lead
            hit = self.leads.get(lead)
            c = q[j].coeff(k)
            if hit is None:
                mono = self.ring.monomial(c, k)
                q2[j] = q2[j] + mono
                q[j] = q[j] - mono
                continue
            q = [a - c * b for a, b in zip(q, hit["row"])]
            p1 = [a + c * b for a, b in zip(p1, hit["preim"])]
        for (k, j), kappa in sorted(self._kernel, reverse=True):
            c = p1[j].coeff(k) / kappa[j].coeff(k)
            p1 = [a - c * b for a, b in zip(p1, kappa)]
        return tuple(p1), tuple(q2)


def _subtract(dst, at, c, coeffs):
    """dst -= c * x^at * coeffs on a dense coefficient list."""
    for d, v in enumerate(coeffs):
        dst[at + d] = dst[at + d] - c * v


@dataclass(frozen=True)
class AdditiveDecomp:
    """f = g' + (1/d) * p_nums*W + (1/a) * q_nums*V.

    The decomposition is integrable iff both remainder rows vanish, in
    which case g is an antiderivative.
    """

    g: AlgElem
    basis: FieldBasis
    d: Poly
    p_nums: tuple
    inf_basis: FieldBasis
    a: Poly
    q_nums: tuple
    u: Poly

    @property
    def integrable(self):
        return not any(self.p_nums) and not any(self.q_nums)

    def antiderivative(self):
        return self.g if self.integrable else None

    def remainder_element(self):
        return self.basis.element(self.d, self.p_nums) + self.inf_basis.element(
            self.a, self.q_nums
        )


class _BasisData(NamedTuple):
    """A final basis W over the infinity basis V: W = (1/b)*cmat*V, a the
    lcm of the derivation denominators of V and b*W, and u the bound on the
    denominators of antiderivatives."""

    cmat: tuple
    b: Poly
    utilde_scale: Poly  # a/(e*b)
    u: Poly
    a: Poly


def _moving_part(s, factors):
    """(m, k) = (s/g, D_t(s)/g) for g = gcd(s, D_t s), from the squarefree
    factorisation of s: m is the product of the primes of s that move with
    t, each once (a monic prime r divides D_t r only if D_t r = 0), and
    D_t(H/s) = (m*D_t H - k*H)/(s*m)."""
    m = s.ring.one
    for p, _ in factors:
        m = m * p.exact_div(gcd(p, dt_poly(p)))
    return m, dt_poly(s).exact_div(s.exact_div(m))


class _DtData(NamedTuple):
    """D_t on the remainders over a basis pair (W, V), from V = T*W and
    D_t W = Nw*W, with T = t_num/tau and Nw = nw_num/nw.

    (1/a)*q*V has W-coordinates H/s with s = a*tau and H = q*t_num, and

        D_t(H/s) + (H/s)*Nw = (m*D_t(H) - k*H)/(s*m) + H*Nw/s

    for (m, k) of _moving_part(s).  So s*lcm_m, lcm_m = lcm(m, nw), bounds
    the denominator; s_factors and factors are the squarefree
    factorisations of s and of that bound."""

    t_num: tuple
    nw: Poly
    nw_num: tuple
    s: Poly
    s_factors: tuple
    m: Poly
    k: Poly
    lcm_m: Poly
    factors: tuple


KEPT_SYSTEMS = 16
KEPT_CURVES = 32


class Decomposer:
    """The data of decompositions over one curve, none of which depends on
    the integrand: the initial suitable basis, the infinity basis V, the
    data of each final basis W and D_t on each pair (W, V), both keyed by
    W, the image complement per (u, a), and the Hermite step systems, from
    step_system memoised for the last KEPT_SYSTEMS (basis, den, v, d).
    Each is built on first use and kept once its constructor or function
    returns, so a call interrupted midway leaves nothing half built and one
    Decomposer can serve every integrand on its curve: on_kept_curve keeps
    one for each of the last KEPT_CURVES curves, for every entry point."""

    def __init__(self, curve):
        self.curve = curve
        self._bases = {}
        self._complements = {}
        self._dts = {}
        self.step_system = lru_cache(maxsize=KEPT_SYSTEMS)(step_system)

    @cached_property
    def initial_basis(self):
        return initial_suitable_basis(self.curve)

    @cached_property
    def inf_basis(self):
        return suitable_at_infinity(self.curve)

    def complement(self, u, a):
        key = (u, a)
        hit = self._complements.get(key)
        if hit is None:
            inf = self.inf_basis
            scale = a.exact_div(inf.e)
            bmat = tuple(tuple(scale * p for p in row) for row in inf.mmat)
            hit = ComplementNV(PhiMap(u=u, a=a, bmat=bmat))
            self._complements[key] = hit
        return hit

    def _basis_data(self, basis):
        """The _BasisData of a final basis, computed once per basis."""
        hit = self._bases.get(basis)
        if hit is None:
            inf = self.inf_basis
            b, cmat = common_denominator([inf.coords_of(w) for w in basis.elements])
            eb = basis.e * b
            a = lcm_many([inf.e, eb])
            hit = _BasisData(cmat, b, a.exact_div(eb), compute_u(basis, b), a)
            self._bases[basis] = hit
        return hit

    def _dt_data(self, basis):
        """The _DtData of the pair (basis, V), computed once per basis.

        D_t acts on the power basis Y by D_t Y = P*Y, with row j the
        coordinates of j*y^(j-1)*D_t(y).  A basis with Y-coordinates trans
        has D_t-coordinates D_t(trans) + trans*P over Y, and the W-coordinates
        of anything are its Y-coordinates times W's trans_inv."""
        hit = self._dts.get(basis)
        if hit is None:
            cur = self.curve
            y = cur.gen()
            yt = y.dt()
            power = ((cur.xfrac.zero,) * cur.n,) + tuple(
                (j * y ** (j - 1) * yt).coords() for j in range(1, cur.n)
            )
            winv = basis.trans_inv
            dt_w = tuple(
                tuple(dt_coeff(c) + r for c, r in zip(row, moved))
                for row, moved in zip(basis.trans, mat_mul(basis.trans, power))
            )
            nw, nw_num = common_denominator(mat_mul(dt_w, winv))
            tau, t_num = common_denominator(mat_mul(self.inf_basis.trans, winv))
            a = self._basis_data(basis).a
            s, s_factors = a * tau, product_factors(*map(squarefree_decomposition, (a, tau)))
            m, k = _moving_part(s, s_factors)
            lcm_m = lcm_many([m, nw])
            factors = product_factors(s_factors, squarefree_decomposition(lcm_m))
            hit = _DtData(t_num, nw, nw_num, s, s_factors, m, k, lcm_m, factors)
            self._dts[basis] = hit
        return hit

    def dt_remainder(self, dec):
        """D_t of the remainder h of dec, presented over dec.basis for
        decompose, with its denominator factored.  h = (1/d)*p*W +
        (1/a)*q*V has W-coordinates H/D with D = d*s and
        H = s*p + d*q*t_num, and D_t acts on them as in _DtData; for p = 0
        that is D = s, and the pair's data serves as it is.  d is squarefree,
        so the factorisation of D follows from that of s."""
        dtd = self._dt_data(dec.basis)
        h = vec_mat(dec.q_nums, dtd.t_num)
        big_d, m, k, lcm_m, factors = dtd.s, dtd.m, dtd.k, dtd.lcm_m, dtd.factors
        if any(dec.p_nums):
            d = dec.d
            big_d = d * dtd.s
            h = tuple(dtd.s * c + d * r for c, r in zip(dec.p_nums, h))
            d_factors = product_factors(((d, 1),), dtd.s_factors)
            m, k = _moving_part(big_d, d_factors)
            lcm_m = lcm_many([m, dtd.nw])
            factors = product_factors(d_factors, squarefree_decomposition(lcm_m))
        m_scale, nw_scale = lcm_m.exact_div(m), lcm_m.exact_div(dtd.nw)
        numer = tuple(
            m_scale * (m * dt_poly(c) - k * c) + nw_scale * r
            for c, r in zip(h, vec_mat(h, dtd.nw_num))
        )
        return Presented(dec.basis, big_d * lcm_m, numer, factors)

    def remainder_rows(self, decs):
        """Numerator rows of the remainders of decs, all over one basis W,
        as V-coordinates over one common denominator:
        (1/d)*p*W = (1/(d*b))*(p*cmat)*V."""
        data = self._basis_data(decs[0].basis)
        a = data.a
        den = lcm_many([a] + [dec.d * data.b for dec in decs if any(dec.p_nums)])
        q_scale = den.exact_div(a)
        rows = []
        for dec in decs:
            row = dec.q_nums
            if q_scale.degree > 0:
                row = tuple(q_scale * c for c in row)
            if any(dec.p_nums):
                p_scale = den.exact_div(dec.d * data.b)
                row = tuple(
                    r + p_scale * c for r, c in zip(row, vec_mat(dec.p_nums, data.cmat))
                )
            rows.append(row)
        return rows

    def decompose(self, f, basis=None):
        """Additive decomposition of f, a field element reduced from basis (the
        curve's initial suitable basis when None) or a hermite.Presented
        form.  u and a depend on the final basis alone, so decompositions
        that end on one basis share u, a and the image complement."""
        basis = self.initial_basis if basis is None else basis
        her = lazy_hermite_reduce(f, basis, self.step_system)
        w_basis = her.basis
        d, r, s = euclid_split(her.remainder)
        data = self._basis_data(w_basis)
        utilde = tuple(data.utilde_scale * p for p in vec_mat(s, data.cmat))
        p1, q2 = self.complement(data.u, data.a).reduce(utilde)
        inf = self.inf_basis
        g = her.g_part + inf.element(data.u, p1)
        return AdditiveDecomp(
            g=g,
            basis=w_basis,
            d=d,
            p_nums=r,
            inf_basis=inf,
            a=data.a,
            q_nums=q2,
            u=data.u,
        )


_kept_decomposer = lru_cache(maxsize=KEPT_CURVES)(lambda curve, lead: Decomposer(curve))


def on_kept_curve(f):
    """The Decomposer kept for f's curve (by its field, m and leading
    coefficient as given, which scaled_powers reads) among the last
    KEPT_CURVES, and f rebound onto its curve, whose y' is then kept too."""
    decomposer = _kept_decomposer(f.curve, f.curve.lead)
    return decomposer, AlgElem(decomposer.curve, f.poly)


def additive_decompose(f):
    """Decompose f = g' + h with h minimal, on the kept curve equal to f's."""
    decomposer, f = on_kept_curve(f)
    return decomposer.decompose(f)


def antiderivative(f):
    """Exact antiderivative of f, or None if f is not integrable."""
    return additive_decompose(f).antiderivative()
