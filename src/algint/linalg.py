"""Exact linear algebra over fields and over univariate polynomial rings.

Matrices are tuples of row tuples; vectors are tuples.  Field entries only
need +, -, *, / and truthiness, so the same code runs over QQ, QQ(t) and
K(x).  The polynomial-ring routines (Hermite form, modular solving) take the
PolyRing as an explicit argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, PreconditionError, RankDeficient
from .rings import gcd, invert_mod, is_squarefree, poly_crt


def mat(rows):
    return tuple(tuple(r) for r in rows)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    if not a or not b:
        return ()
    n = len(b)
    if any(len(row) != n for row in a):
        raise DomainError("matrix shapes do not match")
    bt = transpose(b)
    return tuple(
        tuple(_dot(row, col) for col in bt) for row in a
    )


def _dot(u, v):
    it = iter(zip(u, v))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def vec_mat(v, a):
    """Row vector times matrix."""
    if len(v) != len(a):
        raise DomainError("vector/matrix shapes do not match")
    return tuple(_dot(v, col) for col in transpose(a))


# ---------------------------------------------------------------------------
# field routines


def rref(a, field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return mat(rows), tuple(pivots)


def nullspace(a, field):
    """Canonical right-kernel basis, one vector per free column, ascending."""
    if not a:
        return ()
    n = len(a[0])
    red, pivots = rref(a, field)
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        vec = [field.zero] * n
        vec[j] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][j]
        basis.append(tuple(vec))
    return tuple(basis)


def det(a, field):
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("determinant of a non-square matrix")
    rows = [list(r) for r in a]
    out = field.one
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return field.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        pv = rows[c][c]
        out = out * pv
        inv = field.one / pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def char_poly(a, field):
    """Characteristic polynomial of the square matrix a, as the coefficient
    tuple (c_1, ..., c_n) of T^n + c_1 T^(n-1) + ... + c_n, by the trace
    recursion c_k = -tr(a*M_k)/k, M_(k+1) = a*M_k + c_k*I, M_1 = I (exact
    division by integers, valid in characteristic 0)."""
    n, mk, coeffs = len(a), a, []
    for k in range(1, n + 1):
        ck = -(sum((mk[i][i] for i in range(n)), field.zero) / field.from_int(k))
        coeffs.append(ck)
        if k < n:
            shifted = [[c + ck if i == j else c for j, c in enumerate(row)]
                       for i, row in enumerate(mk)]
            mk = mat_mul(a, shifted)
    return tuple(coeffs)


def inverse(a, field):
    n = len(a)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug, field)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise RankDeficient("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


# ---------------------------------------------------------------------------
# Hermite normal form over K[x]
#
# Both module enlargements run through hnf_rows: FieldBasis.enlarge over
# K[x] for the integral basis, and polyred._dvr_enlarge over K[z], z = 1/x,
# for the local module at infinity.


def hnf_rows(rows, ring):
    """Row echelon basis of the K[x]-row span, with monic pivots and entries
    above each pivot reduced to lower degree.  Zero rows are dropped; the
    result is a canonical basis of the module.
    """
    work = [list(r) for r in rows if any(r)]
    n = len(rows[0]) if rows else 0
    done = []
    for col in range(n):
        live = [r for r in work if r[col]]
        if not live:
            continue
        # Euclidean cross-reduction until one row survives in this column
        while len(live) > 1:
            live.sort(key=lambda r: r[col].degree)
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                for j in range(col, n):
                    r[j] = r[j] - q * base[j]
            live = [r for r in live if r[col]]
        pivot_row = live[0]
        work.remove(pivot_row)
        work = [r for r in work if any(r)]
        c = pivot_row[col].lc
        if c != ring.coeff.one:
            pivot_row = [x / c for x in pivot_row]
        for r in done:
            if r[col]:
                q = r[col] // pivot_row[col]
                if q:
                    for j in range(col, n):
                        r[j] = r[j] - q * pivot_row[j]
        done.append(list(pivot_row))
    if work:
        # every remaining row must have been cancelled to zero
        raise DomainError("row reduction left an unplaced nonzero row")
    return mat(done)


# ---------------------------------------------------------------------------
# linear solving modulo a squarefree polynomial

# The solver works over K[x]/<v> with v squarefree but not necessarily
# irreducible.  Elimination proceeds as if over a field; an entry that is
# neither zero nor invertible mod v exposes a factorization of v, and the
# solve restarts on the two coprime pieces, recombining by CRT.


@dataclass(frozen=True)
class SolveLeaf:
    """Outcome of elimination modulo one discovered factor of the modulus.
    A leaf that is not unique has a nonempty row kernel; for a Hermite step
    each kernel vector c gives the integral element (1/modulus) * c*W
    outside the module, by Bronstein's lemma (hermite.basis_update)."""

    modulus: object
    status: str                 # "unique" | "underdetermined" | "inconsistent"
    solution: tuple | None      # row vector s with s*A = rhs mod modulus
    kernel: tuple               # basis of row vectors c with c*A = 0 mod modulus,
                                # empty exactly when the leaf is unique
    witness: tuple | None       # (w, residual): A*w = 0, rhs.w = residual != 0
    inverse: tuple | None = None  # A^-1 mod modulus when unique, so that
                                  # s = rhs*inverse mod modulus for every rhs


@dataclass(frozen=True)
class SolveOutcome:
    status: str                 # "inconsistent" if any leaf is, else
                                # "underdetermined" if any leaf is, else "unique"
    solution: tuple | None      # CRT of the leaf solutions unless inconsistent
    leaves: tuple

    @property
    def inverse(self):
        """A^-1 mod v for a unique solve that never split v, else None."""
        return self.leaves[0].inverse if len(self.leaves) == 1 else None


def solve_mod(a_mat, rhs, v, ring):
    """Solve s * a_mat = rhs modulo the squarefree polynomial v.

    Unknowns form a row vector; a_mat is n x n and rhs a length-n row.
    Splitting on zero divisors is automatic, so the result may combine
    several leaves with different statuses.
    """
    if v.degree < 1:
        raise PreconditionError(f"modulus must be nonconstant, got {v}")
    if not is_squarefree(v):
        raise PreconditionError(f"modulus {v} is not squarefree")
    n = len(rhs)
    if len(a_mat) != n or any(len(row) != n for row in a_mat):
        raise PreconditionError("system matrix must be square and match the rhs")
    leaves = tuple(_solve_leaves(a_mat, rhs, v.monic(), ring))
    if any(lf.status == "inconsistent" for lf in leaves):
        return SolveOutcome("inconsistent", None, leaves)
    status = "underdetermined" if any(lf.kernel for lf in leaves) else "unique"
    if len(leaves) == 1:
        return SolveOutcome(status, leaves[0].solution, leaves)
    solution = tuple(
        poly_crt([(lf.solution[j], lf.modulus) for lf in leaves])[0] for j in range(n)
    )
    return SolveOutcome(status, solution, leaves)


def _solve_leaves(a_mat, rhs, v, ring):
    # transpose: solving s*A = rhs is solving A^T s^T = rhs^T
    m = [[entry % v for entry in row] for row in transpose(a_mat)]
    c = [entry % v for entry in rhs]
    n = len(c)
    # left multiplier accumulator: L * original = current
    lmat = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    pivot_of_col = {}
    used_rows = set()
    for col in range(n):
        piv = None
        for i in range(n):
            if i in used_rows or not m[i][col]:
                continue
            g = gcd(m[i][col], v)
            if g.degree == 0:
                piv = i
                break
            # zero divisor: v splits as g * (v/g), both squarefree and coprime
            w1, w2 = g, v.exact_div(g)
            return _solve_leaves(a_mat, rhs, w1.monic(), ring) + _solve_leaves(
                a_mat, rhs, w2.monic(), ring
            )
        if piv is None:
            continue
        inv = invert_mod(m[piv][col], v)
        m[piv] = [(x * inv) % v for x in m[piv]]
        lmat[piv] = [(x * inv) % v for x in lmat[piv]]
        for i in range(n):
            if i == piv or not m[i][col]:
                continue
            f = m[i][col]
            m[i] = [(x - f * y) % v for x, y in zip(m[i], m[piv])]
            lmat[i] = [(x - f * y) % v for x, y in zip(lmat[i], lmat[piv])]
        pivot_of_col[col] = piv
        used_rows.add(piv)
    # one row kernel vector per free column; fewer than n pivots (every
    # leaf but a unique one) leave at least one
    kernel = []
    for col in range(n):
        if col in pivot_of_col:
            continue
        vec = [ring.zero] * n
        vec[col] = ring.one
        for pc, piv in pivot_of_col.items():
            vec[pc] = (-m[piv][col]) % v
        kernel.append(tuple(vec))
    kernel = tuple(kernel)
    # residual right-hand side: L*c
    lc = [_dot(lmat[i], c) % v for i in range(n)]
    for i in range(n):
        if i in used_rows:
            continue
        # zero row of the reduced matrix: L row i kills every column of A^T,
        # so it is a column vector in the right kernel of the original a_mat
        r = lc[i]
        if r:
            g = gcd(r, v)
            if 0 < g.degree < v.degree:
                w1, w2 = g, v.exact_div(g)
                return _solve_leaves(a_mat, rhs, w1.monic(), ring) + _solve_leaves(
                    a_mat, rhs, w2.monic(), ring
                )
            return [SolveLeaf(v, "inconsistent", None, kernel, (tuple(lmat[i]), r))]
    solution = [ring.zero] * n
    for col, piv in pivot_of_col.items():
        solution[col] = lc[piv]
    if kernel:
        return [SolveLeaf(v, "underdetermined", tuple(solution), kernel, None)]
    # every column has a pivot, so L*A^T is the permutation with a 1 at
    # (pivot_of_col[col], col), and A^T has the inverse with rows
    # L[pivot_of_col[col]]
    inverse = transpose([lmat[pivot_of_col[col]] for col in range(n)])
    return [SolveLeaf(v, "unique", tuple(solution), kernel, None, inverse)]
