"""Shared fixtures and hypothesis strategies for the test suite."""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from algint import telescoper
from algint.algfield import Curve, FieldBasis, power_basis
from algint.errors import DomainError
from algint.linalg import det, mat, transpose, vec_mat
from algint.parsing import build_curve, build_element, parse_expression
from algint.rings import (
    QQ, QT, POLY_X_QQ, RAT_X_QQ, T_POLY, FracField, Poly, PolyRing,
    common_denominator, gcd, squarefree_decomposition, x_frac_field, x_poly_ring,
)

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    # curve fixtures are immutable, so sharing them across examples is safe
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_kept_decomposers():
    """Each test starts and ends with telescope's table of kept Decomposers
    empty, so call counts and monkeypatches see no data of another test."""
    telescoper._DECOMPOSERS.clear()
    yield
    telescoper._DECOMPOSERS.clear()


@pytest.fixture
def parabola():
    """y^2 = x: the running example for Hermite reduction."""
    return build_curve("y^2 - x", QQ)


@pytest.fixture
def cusp():
    """y^2 = x^3: singular model whose power basis is not normal."""
    return build_curve("y^2 - x^3", QQ)


@pytest.fixture
def trefoil():
    """Degree-3 cover singular at the origin whose power basis already has a
    squarefree derivation denominator e = x^2 + 1/4*x."""
    return build_curve("y^3 - 3*x^2*y + 2*x^3 + x^2", QQ)


@pytest.fixture
def legendre():
    """Legendre family y^2 = x(x-1)(x-t) over Q(t)."""
    return build_curve("y^2 - x*(x - 1)*(x - t)", QT)


def elem(curve, text):
    return build_element(text, curve)


# ---------------------------------------------------------------------------
# strategies

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)

nonzero_fractions = small_fractions.filter(bool)


def polys_over_qq(max_degree=3, nonzero=False):
    base = st.lists(small_fractions, min_size=1, max_size=max_degree + 1).map(
        lambda cs: POLY_X_QQ.poly(cs)
    )
    if nonzero:
        base = base.filter(bool)
    return base


def ratfuncs_over_qq(max_degree=3):
    return st.builds(
        lambda n, d: RAT_X_QQ.of(n, d),
        polys_over_qq(max_degree),
        polys_over_qq(max_degree, nonzero=True),
    )


def curve_elements(curve, max_degree=2, denom_pool=()):
    """Elements with numerators of bounded degree and denominators drawn
    from a fixed pool of polynomials (1 when the pool is empty)."""
    pool = (POLY_X_QQ.one,) + tuple(denom_pool)

    def build(coeff_lists, which):
        coords = []
        for i in range(curve.n):
            num = POLY_X_QQ.poly(coeff_lists[i])
            den = pool[which[i] % len(pool)]
            coords.append(curve.xfrac.of(num, den))
        return curve.from_coords(coords)

    return st.builds(
        build,
        st.lists(
            st.lists(small_fractions, min_size=1, max_size=max_degree + 1),
            min_size=curve.n,
            max_size=curve.n,
        ),
        st.lists(st.integers(min_value=0, max_value=7), min_size=curve.n, max_size=curve.n),
    )


# ---------------------------------------------------------------------------
# oracles

def identity(ring, n):
    """The n x n identity matrix."""
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def mat_vec(a, v):
    """Matrix times column vector."""
    return vec_mat(v, transpose(a))


def hnf_pivot_columns(h):
    cols = []
    for row in h:
        for j, entry in enumerate(row):
            if entry:
                cols.append(j)
                break
    return tuple(cols)


def hnf_member(h, vec):
    """Is vec in the K[x]-row span of the echelon basis h?"""
    v = list(vec)
    pivots = hnf_pivot_columns(h)
    for row, col in zip(h, pivots):
        if v[col]:
            q, r = divmod(v[col], row[col])
            if r:
                return False
            for j in range(col, len(v)):
                v[j] = v[j] - q * row[j]
    return not any(v)


def reference_curve(text, const_field):
    """build_curve by evaluation in the fraction field Frac(K(x)[y]), where
    every name is a fraction of polynomials over K(x) and a curve is
    refused only when its reduced denominator involves y."""
    xring = x_poly_ring(const_field)
    xfrac = x_frac_field(const_field)
    yring = PolyRing(xfrac, "y")
    yfrac = FracField(yring)
    names = {
        "x": yfrac.of(yring.from_coeff(xfrac.of(xring.gen))),
        "y": yfrac.of(yring.gen),
    }
    if const_field == QT:
        t_val = xfrac.of(xring.from_coeff(QT.of(T_POLY.gen)))
        names["t"] = yfrac.of(yring.from_coeff(t_val))
    value = parse_expression(text, names, yfrac.from_int)
    if value.den.degree > 0:
        raise DomainError("curve must be polynomial in y")
    poly = value.num / value.den.constant_term()
    if poly.degree < 1:
        raise DomainError("curve must involve y")
    _, (cleared,) = common_denominator([poly.coeffs])
    content = None
    for p in cleared:
        if p:
            content = p if content is None else gcd(content, p)
    primitive = [xfrac.of(p.exact_div(content)) for p in cleared]
    return Curve(Poly(yring, tuple(primitive)), const_field)


def module_equal(a, b):
    """Do the bases a and b span the same K[x]-module?"""
    return a.module_contains(b) and b.module_contains(a)


def check_loop_state(pres):
    """Assert what the Hermite loop keeps of a hermite.Presented form as
    _present returns it: factors is the squarefree decomposition of den,
    and when a pole repeats, (v, d) = factors[-1] and u = den/v^d give
    e | u*v, gcd(u, v) = 1 and gcd(v, numer) = 1.  Returns whether a pole
    repeats."""
    assert pres.factors == squarefree_decomposition(pres.den)
    if not pres.factors or pres.factors[-1][1] < 2:
        return False
    v, d = pres.factors[-1]
    u = pres.den.exact_div(v**d)
    assert not (u * v) % pres.basis.e
    assert gcd(u, v).degree == 0
    content = v
    for a in pres.numer:
        content = gcd(content, a)
    assert content.degree == 0
    return True


def apply_tilde(phi, row):
    """u^2 * phi(row) for a PhiMap phi, always a polynomial row."""
    au = phi.a * phi.u
    aup = phi.a * phi.u.derivative()
    pb = vec_mat(row, phi.bmat)
    return tuple(
        au * p.derivative() - aup * p + phi.u * pb[i]
        for i, p in enumerate(row)
    )


def phi_row(phi, pre):
    """phi(pre) for a PhiMap phi and a row pre whose image is polynomial."""
    usq = phi.u * phi.u
    return tuple(g.exact_div(usq) for g in apply_tilde(phi, pre))


def complement_is_final(comp, extra=24):
    """Continue comp's echelon with the rows phi(u*x^k*e_i) for extra more
    values of k past its bound; True if that adds no standard monomial and
    the monomial rows extra degrees past the frozen bound still reduce onto
    the old standard monomials."""
    before = comp.standard_monomials()
    ring, u = comp.ring, comp.phi.u
    start = comp._frozen - comp._delta + 1 - u.degree  # s* - deg u
    for k in range(start, start + extra):
        for i in range(comp.n):
            pre = tuple(u * ring.monomial(ring.coeff.one, k) if j == i else ring.zero
                        for j in range(comp.n))
            comp._insert(phi_row(comp.phi, pre), pre)
    if comp.standard_monomials() != before:
        return False
    top = comp._frozen + extra
    for j in range(comp.n):
        row = [ring.zero] * comp.n
        row[j] = ring.monomial(ring.coeff.one, top)
        _, q2 = comp.reduce(tuple(row))
        for i, p in enumerate(q2):
            if any(p.coeff(d) and (d, i) not in before for d in range(p.degree + 1)):
                return False
    return True


def trace(f):
    """Tr(f), the trace of multiplication by the field element f."""
    mm = f.mult_matrix()
    return sum((mm[i][i] for i in range(1, len(mm))), mm[0][0])


def discriminant(elements):
    """det(Tr(w_i * w_j)) of a tuple of field elements, in K(x): the trace
    form, an oracle for compute_u's det(trans)^2 * disc(1, y, ..., y^(n-1))."""
    xfrac = elements[0].curve.xfrac
    n = len(elements)
    rows = [
        [trace(elements[i] * elements[j]) for j in range(n)] for i in range(n)
    ]
    return det(mat(rows), xfrac)


class _ReferenceComplement:
    """The image complement of phi by the generator feed, on the window
    schedule it had before its proved bound.

    The generators u^2*phi(x^s e_i) = s*x^(s-1)*A*e_i + x^s*P_i, with
    A = a*u and P_i = u*B_i - a*u'*e_i, come in by increasing s.  Each
    polynomial g of one is kept as a pair (Q, R), g = Q*u^2 + R with
    deg R < 2 deg u, and x*g = (x*Q + c)*u^2 + (x*R - c*u^2) for c the
    coefficient of x^(2 deg u - 1) in R.  Elimination runs on the R rows
    and carries the Q rows along; a combination whose R rows vanish gives
    its Q rows as an image row, kept in an echelon by lead monomial with
    the preimage row that maps onto it, and one whose Q rows vanish too
    is a kernel row of phi.

    The schedule: feed generators to degree 8 (further if the margin needs
    it), then 4 more per round until the margin above the largest standard
    monomial is covered by leads, and give up past degree 600; reduce
    feeds on to the degree of each lead plus the margin and uses the
    echelon alone."""

    def __init__(self, phi, n, field):
        u, a = phi.u, phi.a
        self.phi = phi
        self.n = n
        self.field = field
        self.ring = u.ring
        self.leads = {}
        self._residue = []
        self._kernel = []
        self._ulen = 2 * u.degree
        self._usq = u * u
        aup = a * u.derivative()
        # the pairs of x^(s-1)*A and of the rows x^s*P_i for the next s fed
        self._a_pair = divmod(a * u, self._usq)
        self._p_rows = [
            [divmod(u * p - aup if i == j else u * p, self._usq) for j, p in enumerate(row)]
            for i, row in enumerate(phi.bmat)
        ]
        self._built = -1
        self._frozen = None

    def _shift(self, pair):
        """The pair of x*g, given the pair (Q, R) of g."""
        q, r = pair
        zero = self.field.zero
        c = r.coeff(self._ulen - 1)
        xr = (zero,) + r.coeffs
        if c:
            usq = self._usq.coeffs
            xr = tuple(xr[k] - c * usq[k] for k in range(self._ulen))
        return Poly(self.ring, (c,) + q.coeffs), Poly(self.ring, xr)

    def _feed(self):
        s = self._built + 1
        ring = self.ring
        qa, ra = self._a_pair
        for i, row in enumerate(self._p_rows):
            quo = [q for q, _ in row]
            res = [r for _, r in row]
            if s:
                quo[i] = quo[i] + qa.scale(s)
                res[i] = res[i] + ra.scale(s)
            pre = [ring.zero] * self.n
            pre[i] = ring.monomial(ring.coeff.one, s)
            self._insert(quo, res, tuple(pre))
        self._p_rows = [[self._shift(pair) for pair in row] for row in self._p_rows]
        if s:
            self._a_pair = self._shift(self._a_pair)
        self._built = s

    def _insert(self, quo, res, pre):
        preim = list(pre)
        for entry in self._residue:
            piv = entry["pivot"]
            c = res[piv[0]].coeff(piv[1])
            if c != self.field.zero:
                scale = c / entry["res"][piv[0]].coeff(piv[1])
                res = [a - scale * b for a, b in zip(res, entry["res"])]
                quo = [a - scale * b for a, b in zip(quo, entry["quo"])]
                preim = [a - scale * b for a, b in zip(preim, entry["preim"])]
        nonzero = ((j, k) for j, r in enumerate(res) for k, c in enumerate(r.coeffs) if c)
        pivot = next(nonzero, None)
        if pivot is None:
            self._insert_intersection(tuple(quo), tuple(preim))
            return
        self._residue.append({"res": res, "quo": quo, "preim": preim, "pivot": pivot})

    def _insert_intersection(self, w, pre):
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

    def _margin(self):
        top_b = max((p.degree for row in self.phi.bmat for p in row), default=-1)
        return max(self.phi.a.degree, top_b, 0) + self._ulen + 1

    def _covered(self, k):
        return all((k, j) in self.leads for j in range(self.n))

    def ensure_stable(self):
        if self._frozen is not None:
            return
        margin = self._margin()
        target = max(8, margin + 1)
        while True:
            while self._built < target:
                self._feed()
            maxlead = max((k for k, _ in self.leads), default=-1)
            maxstd = -1
            for k in range(maxlead, -1, -1):
                if not self._covered(k):
                    maxstd = k
                    break
            window_ok = maxlead >= maxstd + margin and all(
                self._covered(k) for k in range(maxstd + 1, maxstd + margin + 1)
            )
            if window_ok and target >= maxstd + 2 * margin:
                self._frozen = maxstd
                return
            target += 4
            assert target <= 600, "complement build exceeded its hard cap"

    def ensure_cover(self, degree):
        self.ensure_stable()
        while self._built < degree + self._margin():
            self._feed()

    def standard_monomials(self):
        self.ensure_stable()
        monos = ((k, j) for k in range(self._frozen + 1) for j in range(self.n))
        return tuple(m for m in monos if m not in self.leads)

    def reduce(self, row):
        self.ensure_stable()
        q = list(row)
        p1 = [self.ring.zero] * self.n
        q2 = [self.ring.zero] * self.n
        while True:
            lead = self._lead_monomial(q)
            if lead is None:
                break
            k, j = lead
            if k > self._built - self._margin():
                self.ensure_cover(k)
            hit = self.leads.get(lead)
            c = q[j].coeff(k)
            if hit is None:
                assert k <= self._frozen, "unreduced monomial above the complement"
                mono = self.ring.monomial(c, k)
                q2[j] = q2[j] + mono
                q[j] = q[j] - mono
                continue
            q = [a - c * b for a, b in zip(q, hit["row"])]
            p1 = [a + c * b for a, b in zip(p1, hit["preim"])]
        return tuple(p1), tuple(q2)


def reference_complement(phi, n, field):
    """The image complement of phi built by the generator feed on the
    window schedule, an oracle for ComplementNV."""
    return _ReferenceComplement(phi, n, field)


# Curves whose start bases need repairs: the power basis of the first two has
# a non-squarefree e, and the start at infinity of the last two is not
# suitable.  The last one is a seeded random quartic.
REPAIR_CUBIC = "y^3 + x*y^2 + x^4"
REPAIR_QUARTIC = "y^4 + x^2*y^3 + x^2*y - x^3"
RANDOM_QUARTIC = (
    "x^3*y^3 + 2*x^3 - x^2*y^3 + 2*x^2 + 2*x*y - x + y^4 - y^3 - y^2 + 2*y + 1"
)


def count_calls(monkeypatch, counts, owner, name, key=None):
    """Replace owner.name by a wrapper that counts its calls in counts[key]."""
    key = key or name
    counts.setdefault(key, 0)
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
