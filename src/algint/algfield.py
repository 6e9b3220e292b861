"""The algebraic function field A = K(x)[y]/<m> and its bases.

Elements are polynomials in y of degree < n with coefficients in K(x),
reduced against the monic defining polynomial.  K(x) acts on A by scaling:
a product with a y-free factor scales the other factor's coefficients, and
a nonzero y-free element inverts in K(x), so neither takes a product mod m
or an extended gcd.  The curve inverts m_y once and caches y' per
derivation.  A quadratic m, or a binomial y^n - p, is refuted at
construction when it factors; otherwise irreducibility of m is assumed,
not checked: any inversion that stumbles over a zero divisor raises
CurveReducible with the discovered factor.

A FieldBasis carries a K(x)-basis W of A together with the derivation data
(e, M) satisfying e*W' = M*W, where e is the monic least common denominator.
Entries of M may have non-integer rational coefficients; that is fine, the
normalization gcd(e, entries of M) = 1 still holds by minimality of e.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    CurveReducible,
    DomainError,
    PreconditionError,
    RankDeficient,
    SuitabilityFailure,
)
from .linalg import char_poly, det, hnf_rows, inverse, mat, vec_mat
from .rings import (
    QT,
    Poly,
    PolyRing,
    RatFunc,
    common_denominator,
    ext_gcd,
    is_squarefree,
    kth_root,
    squarefree_decomposition,
    x_frac_field,
    x_poly_ring,
)


class Curve:
    """Defining data of A = K(x)[y]/<m>, with m monic of y-degree n >= 1."""

    def __init__(self, ypoly, const_field):
        self.field = const_field
        self.xring = x_poly_ring(const_field)
        self.xfrac = x_frac_field(const_field)
        self.yring = PolyRing(self.xfrac, "y")
        if ypoly.ring != self.yring:
            raise DomainError("curve polynomial must live in K(x)[y]")
        if ypoly.degree < 1:
            raise DomainError("curve polynomial must have positive degree in y")
        self.lead = ypoly.lc
        self.m = ypoly.monic()
        self.n = ypoly.degree
        self.m_y = self.m.derivative()
        self._dy = {}
        if self.n == 2:
            # y^2 + b*y + c factors iff b^2 - 4c is a square s^2 in K(x)
            c, b, _ = self.m.coeffs
            s = kth_root(b * b - c * 4, 2)
            if s is not None:
                raise CurveReducible(self.yring.poly([(b - s) / 2, 1]))
        elif self.n > 2 and not any(self.m.coeffs[1:-1]):
            factor = _binomial_factor(self.yring.gen, self.n, -self.m.coeffs[0])
            if factor is not None:
                raise CurveReducible(factor)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Curve) and self.field == other.field and self.m == other.m
        )

    def __hash__(self):
        return hash(("Curve", self.m))

    def __repr__(self):
        return f"Curve({self.m})"

    # -- element constructors

    def elem(self, ypoly):
        return AlgElem(self, ypoly % self.m)

    def zero(self):
        return AlgElem(self, self.yring.zero)

    def one(self):
        return AlgElem(self, self.yring.one)

    def gen(self):
        return self.elem(self.yring.gen)

    def from_x(self, rf):
        return AlgElem(self, self.yring.from_coeff(self.xfrac.coerce(rf)))

    def from_coords(self, coords):
        return AlgElem(
            self, self.yring.poly([self.xfrac.coerce(c) for c in coords]) % self.m
        )

    def _inv_ypoly(self, p):
        # inverse of p modulo m; a nontrivial gcd certifies that m factors
        if not p:
            raise DomainError("inversion of zero")
        g, s = ext_gcd(p, self.m)
        if g.degree > 0:
            raise CurveReducible(g)
        return s % self.m

    @cached_property
    def _m_y_inv(self):
        """1/m_y(y), shared by the derivations."""
        return self._inv_ypoly(self.m_y)

    def dy(self, dcoeff):
        """y' under the derivation that acts on K(x) as dcoeff, from
        m(y) = 0: y' = -m^dcoeff(y) / m_y(y), cached per derivation."""
        dy = self._dy.get(dcoeff)
        if dy is None:
            m_d = Poly(self.yring, tuple(dcoeff(c) for c in self.m.coeffs))
            dy = self._dy[dcoeff] = (-m_d * self._m_y_inv) % self.m
        return dy

    @cached_property
    def power_discriminant(self):
        """disc(1, y, ..., y^(n-1)) = det [p_(i+j)], cached: p_k = Tr(y^k)
        is the k-th power sum of the roots of m = y^n + c_1*y^(n-1) + ...
        + c_n, by Newton's identities p_k = -(k*c_k + sum_(i<k) c_i*p_(k-i))
        with c_k = 0 for k > n."""
        n, xf = self.n, self.xfrac
        c = self.m.coeffs[::-1]
        p = [xf.from_int(n)]
        for k in range(1, 2 * n - 1):
            own = c[k] * k if k <= n else xf.zero
            p.append(-sum((c[i] * p[k - i] for i in range(1, min(k, n + 1))), own))
        return det(mat([p[i : i + n] for i in range(n)]), xf)

def _binomial_factor(y, n, p):
    """A factor of y^n - p over K(x), or None if it is irreducible.

    By Capelli's theorem y^n - p factors iff p = s^q for a prime q | n,
    with factor y^(n/q) - s, or 4 | n and p = -4*s^4, with factor
    y^(2r) - 2s*y^r + 2s^2 for n = 4r.  kth_root gives up at once on a
    degree not divisible by q, so most curves cost no factorisation.
    """
    for q in range(2, n + 1):
        if n % q or any(q % r == 0 for r in range(2, q)):
            continue
        s = kth_root(p, q)
        if s is not None:
            return y ** (n // q) - s
    if n % 4 == 0:
        s = kth_root(p / -4, 4)
        if s is not None:
            yr = y ** (n // 4)
            return yr * yr - yr * (s * 2) + s * s * 2
    return None


def dt_poly(p):
    """d/dt on Q(t)[x], coefficient by coefficient (the quotient rule on
    each coefficient in Q(t))."""
    return Poly(p.ring, tuple(a.derivative() for a in p.coeffs))


def dt_coeff(c):
    """d/dt on Q(t)(x): the quotient rule over dt_poly."""
    return c.derivative(dt_poly)


class AlgElem:
    """Element of A, reduced mod m.  Immutable.

    An element of y-degree <= 0 is a scalar of K(x): multiplying by it
    scales coefficients, and its inverse is 1/c in K(x).
    """

    __slots__ = ("curve", "poly")

    def __init__(self, curve, poly):
        self.curve = curve
        self.poly = poly

    def coords(self):
        """Coefficient vector over the power basis 1, y, ..., y^(n-1)."""
        return tuple(self.poly.coeff(i) for i in range(self.curve.n))

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        if isinstance(other, AlgElem):
            return self.curve == other.curve and self.poly == other.poly
        return NotImplemented

    def __hash__(self):
        return hash((self.curve, self.poly))

    def _coerce(self, other):
        if isinstance(other, AlgElem):
            if other.curve == self.curve:
                return other
            return NotImplemented
        try:
            return self.curve.from_x(self.curve.xfrac.coerce(other))
        except DomainError:
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgElem(self.curve, self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return AlgElem(self.curve, -self.poly)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgElem(self.curve, self.poly - other.poly)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgElem(self.curve, other.poly - self.poly)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.poly, other.poly
        if b.degree <= 0:
            return AlgElem(self.curve, a.scale(b.constant_term()))
        if a.degree <= 0:
            return AlgElem(self.curve, b.scale(a.constant_term()))
        return AlgElem(self.curve, (a * b) % self.curve.m)

    __rmul__ = __mul__

    def inv(self):
        if self.poly.degree == 0:
            return self.curve.from_x(1 / self.poly.coeffs[0])
        return AlgElem(self.curve, self.curve._inv_ypoly(self.poly))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise DomainError("powers of field elements must be integers")
        if k < 0:
            return self.inv() ** (-k)
        out = self.curve.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def dx(self):
        """The derivation extending d/dx, with dx(y) determined implicitly."""
        return self._derive(RatFunc.derivative)

    def dt(self):
        """The derivation extending d/dt on Q(t)(x), with dt(x) = 0."""
        if self.curve.field != QT:
            raise PreconditionError("t-derivation requires the coefficient field QQ(t)")
        return self._derive(dt_coeff)

    def _derive(self, dcoeff):
        """The chain rule: dcoeff on each coefficient, plus poly_y * y'."""
        cur = self.curve
        coeff_part = Poly(cur.yring, tuple(dcoeff(c) for c in self.poly.coeffs))
        chain_part = (self.poly.derivative() * cur.dy(dcoeff)) % cur.m
        return AlgElem(cur, coeff_part + chain_part)

    def mult_matrix(self):
        """Matrix of multiplication by self on the power basis (rows = images)."""
        cur = self.curve
        rows = []
        acc = self.poly
        y = cur.yring.gen
        for _ in range(cur.n):
            rows.append(tuple(acc.coeff(i) for i in range(cur.n)))
            acc = (acc * y) % cur.m
        return mat(rows)

    def char_poly(self):
        """Characteristic polynomial of multiplication by self, as the
        coefficient tuple (c_1, ..., c_n) of linalg.char_poly."""
        return char_poly(self.mult_matrix(), self.curve.xfrac)

    def is_integral(self):
        return all(c.is_polynomial for c in self.char_poly())

    def is_integral_at_infinity(self):
        # valuation at infinity of p/q is deg q - deg p; integrality needs >= 0
        return all(
            (not c) or c.num.degree <= c.den.degree for c in self.char_poly()
        )

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"AlgElem({self.poly})"


class FieldBasis:
    """A K(x)-basis W of A with transition and derivation data.

    trans[i][j] is the coefficient of y^j in w_i; e*W' = M*W with e the
    monic lcm of the denominators of the derivation coefficients.  All of
    it follows from the elements, so bases compare and hash by them, the
    hash computed once.
    """

    def __init__(self, curve, elements):
        if len(elements) != curve.n:
            raise RankDeficient(f"need {curve.n} elements, got {len(elements)}")
        self.curve = curve
        self.elements = tuple(elements)
        xfrac = curve.xfrac
        self.trans = mat(w.coords() for w in self.elements)
        try:
            self.trans_inv = inverse(self.trans, xfrac)
        except RankDeficient:
            raise RankDeficient("proposed basis is K(x)-linearly dependent")
        self.e, self.mmat = common_denominator(
            [self.coords_of(w.dx()) for w in self.elements]
        )
        self.e_squarefree = is_squarefree(self.e)

    def coords_of(self, f):
        """K(x)-coordinates of f with respect to this basis."""
        return vec_mat(f.coords(), self.trans_inv)

    def member(self, f):
        """Whether f lies in the K[x]-module spanned by this basis."""
        return all(c.is_polynomial for c in self.coords_of(f))

    def combine(self, coeffs):
        """Linear combination sum(coeffs[i] * w_i) as a field element."""
        out = self.curve.zero()
        for c, w in zip(coeffs, self.elements):
            out = out + self.curve.from_x(c) * w
        return out

    def element(self, den, numer):
        """(1/den) * numer*W as a field element, for den and numer over K[x]."""
        xf = self.curve.xfrac
        return self.combine([xf.of(a, den) for a in numer])

    def enlarge(self, new_elements):
        """Basis of the K[x]-module generated by this basis and new_elements."""
        cur = self.curve
        gens = list(self.elements) + list(new_elements)
        den, rows = common_denominator([g.coords() for g in gens])
        h = hnf_rows(rows, cur.xring)
        if len(h) < cur.n:
            raise RankDeficient("enlarged module does not have full rank")
        new_elems = [cur.from_coords([cur.xfrac.of(p, den) for p in row]) for row in h]
        return FieldBasis(cur, new_elems)

    def module_contains(self, other):
        return all(self.member(w) for w in other.elements)

    def __eq__(self, other):
        if isinstance(other, FieldBasis):
            return self is other or self.elements == other.elements
        return NotImplemented

    @cached_property
    def _hash(self):
        return hash(self.elements)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldBasis({', '.join(str(w) for w in self.elements)})"


def scaled_powers(curve):
    """1, ly, ..., (ly)^(n-1) with l the y-leading coefficient of the raw
    curve; all of them are integral."""
    ly = curve.from_x(curve.lead) * curve.gen()
    return [ly**j for j in range(curve.n)]


def power_basis(curve):
    """The scaled power basis: the basis of scaled_powers(curve)."""
    return FieldBasis(curve, scaled_powers(curve))


def initial_suitable_basis(curve):
    """make_suitable of the scaled power basis."""
    return make_suitable(power_basis(curve))


def make_suitable(basis):
    """The basis itself if its derivation denominator e is squarefree, else
    the basis reached by certified enlargements of its module until e is."""
    for _ in range(64):
        if basis.e_squarefree:
            return basis
        basis = _repair_suitability(basis)
    raise SuitabilityFailure("enlargement did not reach a squarefree e")


def _repair_suitability(basis):
    """One certified module enlargement for a basis with non-squarefree e.

    The lemma: for p squarefree and w integral, p*w' is integral, since at
    a place of ramification index r over a root of p, p has valuation r and
    w' at least 1 - r.  So if p^2 divides e, then
    (e/p) * w_i' = (e/p^2) * (p*w_i') = (1/p) * M_i*W is integral.  Since e
    is the least common denominator, some row M_i of M is not 0 mod p, and
    for it the element lies outside the module.  The element adjoined takes
    p the first repeated factor of e by (degree, str) and M_i the first
    such row; the integrality oracle checks it once.
    """
    repeated = [p for p, mult in squarefree_decomposition(basis.e) if mult >= 2]
    p = min(repeated, key=lambda p: (p.degree, str(p)))
    row = next(row for row in basis.mmat if any(a % p for a in row))
    theta = basis.element(p, row)
    if not theta.is_integral() or basis.member(theta):
        raise SuitabilityFailure(f"the quotient {theta} is not certified")
    return basis.enlarge([theta])
