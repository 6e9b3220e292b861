"""Exact arithmetic tower: rationals, dense polynomials, rational functions.

Everything is immutable and hashable.  Coefficient domains are always fields
(Fraction, or RatFunc over t), so polynomial divmod is unconditional.  The
fixed rings used by the rest of the package are built once at the bottom of
this module; compare rings with ==, elements carry a reference to their ring.

Degree convention: the zero polynomial has degree -1.

gcd does only the work that can find a factor, cheapest step first:

1. a nonzero constant argument gives 1;
2. a modular coprimality certificate (Brown, J. ACM 1971) maps both
   arguments to F_p[z], at a fixed prime and fixed points for t, x and y,
   and gives 1 when both keep their degree and the images are coprime.
   The test is one-sided: the image of the resultant is the resultant of
   the images, so coprime images prove a nonzero resultant, while an
   undefined image, a lost degree or a nontrivial image gcd proves nothing;
3. everything else goes to Euclid, the only code that computes a
   nontrivial gcd.

RatFunc arithmetic keeps every fraction in lowest terms with a monic
denominator the Henrici way: the operands are already reduced, so only
the gcds that can cancel something are taken.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


class RationalField:
    """The rationals, represented by fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise DomainError(f"cannot coerce {v!r} into QQ")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PolyRing:
    """Univariate polynomial ring over a coefficient field."""

    def __init__(self, coeff, var):
        self.coeff = coeff
        self.var = var
        self.zero = Poly(self, ())
        self.one = Poly(self, (coeff.one,))
        self.gen = Poly(self, (coeff.zero, coeff.one))

    def poly(self, coeffs):
        """Build a polynomial from ascending coefficients, coercing each."""
        return Poly(self, tuple(self.coeff.coerce(c) for c in coeffs))

    def from_int(self, n):
        return Poly(self, (self.coeff.from_int(n),) if n else ())

    def from_coeff(self, c):
        c = self.coeff.coerce(c)
        return Poly(self, (c,) if c else ())

    def monomial(self, c, k):
        c = self.coeff.coerce(c)
        if not c:
            return self.zero
        return Poly(self, (self.coeff.zero,) * k + (c,))

    def coerce(self, v):
        if isinstance(v, Poly):
            if v.ring == self:
                return v
            raise DomainError(f"polynomial from {v.ring!r} used in {self!r}")
        return self.from_coeff(self.coeff.coerce(v))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.var == other.var
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash(("PolyRing", self.var, self.coeff))

    def __repr__(self):
        return f"{self.coeff!r}[{self.var}]"


def _strip(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


class Poly:
    """Dense univariate polynomial; coefficients ascending, no trailing zeros."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = _strip(tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise DomainError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.ring.coeff.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.var, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Poly) and other.ring == self.ring:
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return self.ring.zero
            zero = self.ring.coeff.zero
            out = [zero] * (len(a) + len(b) - 1)
            # a zero bj is skipped when it is the field's zero object, which
            # is what products, monomials and generators leave in their empty
            # places; an identity test costs no call, a truth test would cost
            # one per coefficient and outweigh the products it saves
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    if bj is not zero:
                        out[i + j] = out[i + j] + ai * bj
            return Poly(self.ring, out)
        try:
            c = self.ring.coeff.coerce(other)
        except DomainError:
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.ring.coeff.coerce(c)
        if not c:
            return self.ring.zero
        return Poly(self.ring, tuple(a * c for a in self.coeffs))

    def __truediv__(self, c):
        # division by a coefficient scalar only; use exact_div for polynomials
        c = self.ring.coeff.coerce(c)
        if not c:
            raise DomainError("division by zero scalar")
        return Poly(self.ring, tuple(a / c for a in self.coeffs))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"polynomial power must be a nonnegative int, got {k!r}")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise DomainError("polynomial division by zero")
        if self.degree < other.degree:
            return self.ring.zero, self
        if not other.degree:
            if other.lc == self.ring.coeff.one:
                return self, self.ring.zero
            return self.scale(self.ring.coeff.one / other.lc), self.ring.zero
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        quo = [self.ring.coeff.zero] * (dq + 1)
        inv_lc = self.ring.coeff.one / other.lc
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lc
            quo[k] = c
            if not c:
                continue
            for j, oc in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * oc
        return Poly(self.ring, quo), Poly(self.ring, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise DomainError(f"{self} is not divisible by {other}")
        return q

    def monic(self):
        if not self:
            return self
        if self.lc == self.ring.coeff.one:
            return self
        return self / self.lc

    def derivative(self):
        return Poly(
            self.ring,
            tuple(c * self.ring.coeff.from_int(i) for i, c in enumerate(self.coeffs))[1:],
        )

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.coeff.zero

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring == self.ring:
                return other
            return NotImplemented
        try:
            return self.ring.coerce(other)
        except DomainError:
            return NotImplemented

    def __str__(self):
        if not self:
            return "0"
        one = self.ring.coeff.one
        var = self.ring.var
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                base = ""
            elif k == 1:
                base = var
            else:
                base = f"{var}^{k}"
            if not base:
                term = _coeff_str(c, wrap=False)
            elif c == one:
                term = base
            elif c == -one:
                term = "-" + base
            else:
                term = _coeff_str(c, wrap=True) + "*" + base
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"Poly({self})"


def _coeff_str(c, wrap):
    s = str(c)
    if wrap and (" + " in s or " - " in s):
        return "(" + s + ")"
    return s


class FracField:
    """Field of fractions of a PolyRing; elements are RatFunc."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = RatFunc(self, ring.zero, ring.one)
        self.one = RatFunc(self, ring.one, ring.one)
        self.gen = RatFunc(self, ring.gen, ring.one)

    def of(self, num, den=None):
        """Build num/den in lowest terms with a monic denominator."""
        num = self.ring.coerce(num)
        den = self.ring.one if den is None else self.ring.coerce(den)
        if not den:
            raise DomainError("zero denominator")
        if not num:
            return self.zero
        g = gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        c = den.lc
        if c != self.ring.coeff.one:
            num = num / c
            den = den / c
        return RatFunc(self, num, den)

    def from_int(self, n):
        return RatFunc(self, self.ring.from_int(n), self.ring.one)

    def coerce(self, v):
        """v as an element of this field; integers and elements of the
        coefficient field lift as constants."""
        if isinstance(v, RatFunc):
            if v.field == self:
                return v
            if v.field != self.ring.coeff:
                raise DomainError(f"fraction from {v.field!r} used in {self!r}")
        return RatFunc(self, self.ring.coerce(v), self.ring.one)

    def __eq__(self, other):
        return self is other or (isinstance(other, FracField) and self.ring == other.ring)

    def __hash__(self):
        return hash(("FracField", self.ring))

    def __repr__(self):
        return f"Frac({self.ring!r})"


class RatFunc:
    """Reduced fraction of polynomials; denominator monic and nonzero.

    Instances are built through FracField.of; the raw constructor trusts its
    arguments to already be normalized.  Arithmetic keeps that invariant the
    Henrici way (Knuth, TAOCP 2, 4.5.1): since both operands are already in
    lowest terms, only gcds that can find a factor are taken -- gcd(b, d)
    and gcd(n, gcd(b, d)) for a sum, the two cross gcds for a product --
    and the result is built directly, in the same canonical form that
    FracField.of would give.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def as_poly(self):
        if not self.is_polynomial:
            raise DomainError(f"{self} is not a polynomial")
        return self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        g = gcd(b, d)
        if g.degree == 0:
            n = a * d + c * b
            return RatFunc(self.field, n, b * d) if n else self.field.zero
        b, d = b.exact_div(g), d.exact_div(g)
        n = a * d + c * b
        if not n:
            return self.field.zero
        h = gcd(n, g)
        if h.degree > 0:
            n, g = n.exact_div(h), g.exact_div(h)
        return RatFunc(self.field, n, b * d * g)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return self.field.zero
        g1, g2 = gcd(a, d), gcd(c, b)
        if g1.degree > 0:
            a, d = a.exact_div(g1), d.exact_div(g1)
        if g2.degree > 0:
            c, b = c.exact_div(g2), b.exact_div(g2)
        return RatFunc(self.field, a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise DomainError("division by zero")
        n, d = other.den, other.num
        if d.lc != self.field.ring.coeff.one:
            n, d = n / d.lc, d / d.lc
        return self * RatFunc(self.field, n, d)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise DomainError("fraction power must be an int")
        if k < 0:
            return (self.field.one / self) ** (-k)
        return RatFunc(self.field, self.num**k, self.den**k)

    def derivative(self, dpoly=Poly.derivative):
        """The derivative under the derivation acting on polynomials as dpoly.
        With g = gcd(d, d'), (n/d)' = (n'*(d/g) - n*(d'/g)) / (g*(d/g)^2) is
        reduced except at factors p of d with p' = 0 (t-free ones under
        d/dt), where h = gcd(numerator, g) is all that cancels."""
        n, d = self.num, self.den
        d1 = dpoly(d)
        g = gcd(d, d1)
        if g.degree > 0:
            d, d1 = d.exact_div(g), d1.exact_div(g)
        n = dpoly(n) * d - n * d1
        if not n:
            return self.field.zero
        h = gcd(n, g)
        if h.degree > 0:
            n, g = n.exact_div(h), g.exact_div(h)
        return RatFunc(self.field, n, g * d * d)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field == self.field:
                return other
            return NotImplemented
        try:
            return self.field.coerce(other)
        except DomainError:
            return NotImplemented

    def __str__(self):
        ns = str(self.num)
        if self.den.degree == 0:
            return ns
        if " + " in ns or " - " in ns:
            ns = "(" + ns + ")"
        ds = str(self.den)
        if " + " in ds or " - " in ds or "*" in ds:
            ds = "(" + ds + ")"
        return ns + "/" + ds

    def __repr__(self):
        return f"RatFunc({self})"


# ---------------------------------------------------------------------------
# gcd machinery over any coefficient field


def gcd(p, q):
    """Monic gcd of two polynomials; gcd(0, 0) is 0.

    A constant argument or a modular certificate answers 1 without Euclid;
    see the module docstring.
    """
    if not p or not q:
        return p.monic() if p else q.monic()
    if p.degree == 0 or q.degree == 0 or _coprime_mod(p, q):
        return p.ring.one
    while q:
        p, q = q, (p % q)
        if q:
            q = q.monic()
    return p.monic() if p else p


# The modular coprimality certificate.  Each coefficient of the tower has an
# image in Z/_PRIME: a Fraction n/d maps to n * d^-1, a polynomial is
# evaluated by Horner at the fixed point of its variable, and a fraction of
# polynomials maps to num * den^-1.  Where every image is defined, this is
# the residue map of the local ring of Z[t, x, y] at the maximal ideal
# (_PRIME, t - t0, x - x0, y - y0), a ring homomorphism.  The Sylvester
# resultant is a polynomial in the coefficients, so when neither leading
# coefficient maps to 0 the image of res(p, q) is the resultant of the
# images, and coprime images prove res(p, q) != 0, that is gcd(p, q) = 1.

_PRIME = 2**61 - 1
_POINTS = {"t": 1_234_567_891_011, "x": 987_654_321_123, "y": 555_555_555_557}


def _image(c):
    """The residue of a tower element modulo _PRIME, or None if undefined."""
    if isinstance(c, Fraction):
        d = c.denominator % _PRIME
        return c.numerator * pow(d, -1, _PRIME) % _PRIME if d else None
    if isinstance(c, Poly):
        point = _POINTS[c.ring.var]
        acc = 0
        for a in reversed(c.coeffs):
            a = _image(a)
            if a is None:
                return None
            acc = (acc * point + a) % _PRIME
        return acc
    n, d = _image(c.num), _image(c.den)
    if n is None or not d:
        return None
    return n * pow(d, -1, _PRIME) % _PRIME


def _image_coeffs(p):
    """Images of the coefficients of p with the leading one nonzero, or None."""
    out = []
    for c in p.coeffs:
        c = _image(c)
        if c is None:
            return None
        out.append(c)
    return out if out[-1] else None


def _coprime_mod(p, q):
    """True only if gcd(p, q) = 1 is certified by the images of p and q."""
    a, b = _image_coeffs(p), _image_coeffs(q)
    if a is None or b is None:
        return False
    # Euclid in F_p[z] on ascending coefficient lists without leading zeros
    while len(b) > 1:
        inv = pow(b[-1], -1, _PRIME)
        nb = len(b)
        while len(a) >= nb:
            c = a[-1] * inv % _PRIME
            shift = len(a) - nb
            for j in range(nb - 1):
                a[shift + j] = (a[shift + j] - c * b[j]) % _PRIME
            a.pop()
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def lcm(p, q):
    if not p or not q:
        return p.ring.zero
    g = gcd(p, q)
    return (p * q).exact_div(g).monic()


def lcm_many(polys):
    it = iter(polys)
    try:
        m = next(it)
    except StopIteration:
        raise DomainError("lcm of an empty collection")
    m = m.monic() if m else m
    for p in it:
        m = lcm(m, p)
    return m


def common_denominator(rows):
    """(den, numerators) for rows of fractions: den is the monic lcm of all
    their denominators, and numerators the polynomial rows over it."""
    den = lcm_many([c.den for row in rows for c in row])
    return den, tuple(
        tuple(c.num * den.exact_div(c.den) for c in row) for row in rows
    )


def ext_gcd(p, q):
    """Return (g, s) with g the monic gcd and g = s*p mod q, by the
    half-extended Euclidean algorithm (the cofactor of q is never formed).

    One zero argument is fine; two zero arguments are not.
    """
    ring = p.ring
    if not p and not q:
        raise DomainError("ext_gcd(0, 0) is undefined")
    r0, r1 = p, q
    s0, s1 = ring.one, ring.zero
    while r1:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    c = r0.lc
    if c != ring.coeff.one:
        r0, s0 = r0 / c, s0 / c
    return r0, s0


def invert_mod(p, v):
    """Inverse of p modulo v; requires gcd(p, v) = 1."""
    g, s = ext_gcd(p, v)
    if g.degree != 0:
        raise DomainError(f"{p} is not invertible modulo {v}: common factor {g}")
    return s % v


def poly_crt(pairs):
    """Combine residue/modulus pairs with pairwise coprime moduli.

    Returns (r, M) with r congruent to each residue and deg r < deg M.
    """
    it = iter(pairs)
    try:
        r, m = next(it)
    except StopIteration:
        raise DomainError("poly_crt of an empty collection")
    r = r % m
    for r2, m2 in it:
        g, s = ext_gcd(m, m2)
        if g.degree != 0:
            raise DomainError(f"poly_crt moduli share the factor {g}")
        # r + m*s*(r2 - r) is r mod m and r2 mod m2
        lift = (s * (r2 - r)) % m2
        r = r + m * lift
        m = (m * m2).monic()
        r = r % m
    return r, m


# ---------------------------------------------------------------------------
# squarefree structure


def squarefree_decomposition(p):
    """Yun's algorithm: the pairs (factor, multiplicity), multiplicities
    ascending, as a tuple.

    Factors are monic, squarefree, pairwise coprime, with p equal to
    p.lc times the product of factor**multiplicity.  Characteristic zero
    only.
    """
    if not p:
        raise DomainError("squarefree decomposition of 0")
    p = p.monic()
    if p.degree == 0:
        return ()
    out = []
    g = gcd(p, p.derivative())
    b = p.exact_div(g)
    d = p.derivative().exact_div(g) - b.derivative()
    i = 1
    while b.degree > 0:
        a = gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return tuple(out)


def is_squarefree(p):
    if not p:
        return False
    if p.degree == 0:
        return True
    return gcd(p, p.derivative()).degree == 0


def square_part_root(p):
    """For p = lc * s * f**2 with s squarefree, return the monic f."""
    out = p.ring.one
    for f, mult in squarefree_decomposition(p):
        if mult >= 2:
            out = out * f ** (mult // 2)
    return out


def _int_root(n, k):
    """The k-th root of the integer n >= 1, or None if n is not a k-th power."""
    r = 1 << -(-n.bit_length() // k)
    while True:  # Newton's iteration, from above
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == n else None
        r = s


def kth_root(c, k):
    """A k-th root of a tower element, or None if it has none.

    Zero is its own root.  A Fraction needs integer k-th roots of its
    numerator and denominator, taken with its sign when k is odd; a
    polynomial a degree divisible by k, a k-th root of its leading
    coefficient and multiplicities divisible by k in its squarefree
    decomposition; a fraction of polynomials a root of its denominator and
    of its numerator.
    """
    if not c:
        return c
    if isinstance(c, Fraction):
        if c < 0 and k % 2 == 0:
            return None
        n, d = _int_root(abs(c.numerator), k), _int_root(c.denominator, k)
        if n is None or d is None:
            return None
        return Fraction(-n if c < 0 else n, d)
    if isinstance(c, Poly):
        root = None if c.degree % k else kth_root(c.lc, k)
        if root is None:
            return None
        factors = squarefree_decomposition(c)
        if any(mult % k for _, mult in factors):
            return None
        out = c.ring.from_coeff(root)
        for f, mult in factors:
            out = out * f ** (mult // k)
        return out
    d = kth_root(c.den, k)
    n = None if d is None else kth_root(c.num, k)
    if n is None:
        return None
    return RatFunc(c.field, n, d)


# ---------------------------------------------------------------------------
# the fixed rings used throughout the package

QQ = RationalField()
T_POLY = PolyRing(QQ, "t")
QT = FracField(T_POLY)

POLY_X_QQ = PolyRing(QQ, "x")
POLY_X_QT = PolyRing(QT, "x")
RAT_X_QQ = FracField(POLY_X_QQ)
RAT_X_QT = FracField(POLY_X_QT)


def x_poly_ring(const_field):
    if const_field == QQ:
        return POLY_X_QQ
    if const_field == QT:
        return POLY_X_QT
    raise DomainError(f"no x polynomial ring over {const_field!r}")


def x_frac_field(const_field):
    if const_field == QQ:
        return RAT_X_QQ
    if const_field == QT:
        return RAT_X_QT
    raise DomainError(f"no x fraction field over {const_field!r}")
