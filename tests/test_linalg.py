"""Matrix utilities, row HNF over K[x], and solving modulo squarefree moduli."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algint.errors import PreconditionError, RankDeficient
from algint.linalg import (
    det,
    hnf_rows,
    inverse,
    mat_mul,
    nullspace,
    rref,
    solve_mod,
    transpose,
    vec_mat,
)
from algint.rings import QQ, POLY_X_QQ

from conftest import hnf_member, identity, mat_vec, polys_over_qq, small_fractions

R = POLY_X_QQ


def P(*coeffs):
    return R.poly([Fraction(c) for c in coeffs])


def qmat(rows):
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


# ---------------------------------------------------------------------------
# dense linear algebra over a field

def test_det_frozen():
    assert det(qmat([[1, 2], [3, 4]]), QQ) == Fraction(-2)
    assert det(qmat([[2]]), QQ) == Fraction(2)


def test_inverse_roundtrip():
    a = qmat([[1, 2], [3, 4]])
    assert mat_mul(a, inverse(a, QQ)) == identity(QQ, 2)


def test_inverse_singular_raises():
    with pytest.raises(RankDeficient):
        inverse(qmat([[1, 2], [2, 4]]), QQ)


def test_nullspace_frozen():
    ns = nullspace(qmat([[1, 2], [2, 4]]), QQ)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] * 1 + v[1] * 2 == 0


@given(st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=2, max_size=4))
def test_nullspace_annihilates(rows):
    a = qmat(rows)
    for v in nullspace(a, QQ):
        assert any(v)
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in a)


@given(st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=2, max_size=4))
def test_rref_preserves_nullspace_dimension(rows):
    a = qmat(rows)
    r, pivots = rref(a, QQ)
    assert len(pivots) + len(nullspace(a, QQ)) == 3


# ---------------------------------------------------------------------------
# Hermite normal form of K[x]-row modules

def test_hnf_scaled_power_basis():
    # rows (x, 0), (0, x), (1, 1): echelon basis is (1, 1), (0, x)
    h = hnf_rows([(P(0, 1), R.zero), (R.zero, P(0, 1)), (R.one, R.one)], R)
    assert h == ((R.one, R.one), (R.zero, P(0, 1)))
    assert hnf_member(h, (P(0, 1), R.zero))
    assert hnf_member(h, (R.one, P(1, 0, 1)))
    # (1, 0) needs (0, 1), which the module does not contain
    assert not hnf_member(h, (R.one, R.zero))


def test_hnf_proper_submodule():
    h = hnf_rows([(P(0, 1), R.zero), (R.zero, P(0, 1))], R)
    assert hnf_member(h, (P(0, 1), P(0, 3)))
    assert not hnf_member(h, (R.one, R.zero))


def test_hnf_drops_zero_rows():
    h = hnf_rows([(R.zero, R.zero), (R.one, R.zero)], R)
    assert len(h) == 1


@given(st.lists(
    st.lists(polys_over_qq(max_degree=2), min_size=2, max_size=2),
    min_size=1, max_size=4,
))
def test_hnf_spans_original_rows(rows):
    rows = [tuple(r) for r in rows]
    h = hnf_rows(rows, R)
    for r in rows:
        assert hnf_member(h, r)


@given(st.lists(
    st.lists(polys_over_qq(max_degree=2), min_size=2, max_size=2),
    min_size=1, max_size=4,
))
def test_hnf_idempotent(rows):
    h = hnf_rows([tuple(r) for r in rows], R)
    assert hnf_rows(list(h), R) == h


# ---------------------------------------------------------------------------
# solving modulo a squarefree polynomial

def _residual(s, a, rhs, v):
    image = vec_mat(s, a)
    return [(image[i] - rhs[i]) % v for i in range(len(rhs))]


def test_solve_mod_unique_frozen():
    # det = x^2 - 1 is a unit mod x^2 - 4, so the solution is unique
    v = P(-4, 0, 1)
    a = ((P(0, 1), R.one), (R.one, P(0, 1)))
    rhs = (R.one, R.zero)
    out = solve_mod(a, rhs, v, R)
    assert out.status == "unique"
    assert not any(_residual(out.solution, a, rhs, v))


def test_solve_mod_mixed_leaves_report_inconsistent():
    # (x+1) kills the first row mod x+1 while the x-1 leaf stays regular
    v = P(-1, 0, 1)
    a = ((P(1, 1), R.zero), (R.one, R.one))
    rhs = (P(0, 1), R.one)
    out = solve_mod(a, rhs, v, R)
    assert out.status == "inconsistent"
    statuses = {str(leaf.modulus): leaf.status for leaf in out.leaves}
    assert statuses == {"x + 1": "inconsistent", "x - 1": "unique"}


def test_solve_mod_underdetermined_has_kernel():
    # second column is x times the first mod v, so rank drops on a factor
    v = P(0, 1) * P(-1, 1)
    a = ((R.one, P(0, 1)), (P(0, 1), P(0, 0, 1)))
    rhs = (R.one, P(0, 1))
    out = solve_mod(a, rhs, v, R)
    assert out.status in ("underdetermined", "unique")
    assert out.solution is not None
    assert not any(_residual(out.solution, a, rhs, v))
    if out.status == "underdetermined":
        assert any(leaf.kernel for leaf in out.leaves)
    for leaf in out.leaves:
        for k in leaf.kernel:
            assert not any((x % leaf.modulus) for x in vec_mat(k, a))


def test_solve_mod_inconsistent_witness():
    v = P(0, 1)  # modulus x: the system is the zero matrix mod x
    a = ((P(0, 1), R.zero), (R.zero, P(0, 1)))
    rhs = (R.one, R.zero)
    out = solve_mod(a, rhs, v, R)
    assert out.status == "inconsistent"
    leaf = out.leaves[0]
    assert leaf.status == "inconsistent"
    w, residual = leaf.witness
    assert residual % v


@pytest.mark.parametrize(
    "v, a, rhs",
    [
        (P(0, 1), ((P(0, 1), R.zero), (R.zero, P(0, 1))), (R.one, R.zero)),
        (P(-1, 0, 1), ((P(1, 1), R.zero), (R.one, R.one)), (P(0, 1), R.one)),
        (P(-1, 0, 1), ((P(1, 1), P(1, 1)), (P(-1, 1), P(1, 0, 1))), (R.one, R.one)),
    ],
    ids=["zero-matrix", "mixed-leaves", "rank-one-on-a-factor"],
)
def test_inconsistent_leaves_carry_a_row_kernel(v, a, rhs):
    out = solve_mod(a, rhs, v, R)
    assert out.status == "inconsistent"
    bad = [leaf for leaf in out.leaves if leaf.status == "inconsistent"]
    assert bad
    for leaf in bad:
        assert leaf.kernel
        for k in leaf.kernel:
            assert any(k)
            assert not any((x % leaf.modulus) for x in vec_mat(k, a))


def test_solve_mod_rejects_bad_modulus():
    a = ((R.one,),)
    with pytest.raises(PreconditionError):
        solve_mod(a, (R.one,), P(0, 0, 1), R)  # x^2 not squarefree
    with pytest.raises(PreconditionError):
        solve_mod(a, (R.one,), P(2), R)  # constant modulus


def test_solve_mod_splits_on_zero_divisors():
    # diag(x - 1, x + 1) mod x^2 - 1: each diagonal entry is a zero divisor,
    # and the homogeneous system drops rank on both discovered factors
    v = P(-1, 0, 1)
    a = ((P(-1, 1), R.zero), (R.zero, P(1, 1)))
    rhs = (R.zero, R.zero)
    out = solve_mod(a, rhs, v, R)
    assert out.status == "underdetermined"
    assert len(out.leaves) == 2
    moduli = {str(leaf.modulus) for leaf in out.leaves}
    assert moduli == {"x - 1", "x + 1"}
    assert all(leaf.status == "underdetermined" for leaf in out.leaves)
    assert all(leaf.kernel for leaf in out.leaves)


def test_solve_mod_hands_back_an_inverse_only_from_one_leaf():
    # det = -1 is a unit, but the first pivot x - 1 is a zero divisor mod
    # (x - 1)(x - 2): both leaves are unique, and no inverse mod v is read off
    v = P(-1, 1) * P(-2, 1)
    a = ((P(-1, 1), R.one), (R.one, R.zero))
    out = solve_mod(a, (R.one, P(0, 1)), v, R)
    assert out.status == "unique" and len(out.leaves) == 2
    assert out.inverse is None
    assert all(leaf.inverse is not None for leaf in out.leaves)
    one = solve_mod(a, (R.one, P(0, 1)), P(-3, 1), R)
    assert one.inverse == one.leaves[0].inverse == ((R.zero, R.one), (R.one, P(-2)))


@given(
    st.lists(st.lists(polys_over_qq(max_degree=1), min_size=2, max_size=2),
             min_size=2, max_size=2),
    st.lists(polys_over_qq(max_degree=1), min_size=2, max_size=2),
)
def test_solve_mod_solution_and_certificates_check_out(rows, rhs):
    v = P(0, 1) * P(-1, 1) * P(1, 1)  # x(x-1)(x+1), squarefree
    a = tuple(tuple(r) for r in rows)
    rhs = tuple(rhs)
    out = solve_mod(a, rhs, v, R)
    if out.solution is not None:
        assert not any(_residual(out.solution, a, rhs, v))
    assert (out.inverse is not None) == (out.status == "unique" and len(out.leaves) == 1)
    for leaf in out.leaves:
        assert bool(leaf.kernel) == (leaf.status != "unique")
        assert (leaf.inverse is not None) == (leaf.status == "unique")
        if leaf.inverse is not None:
            # a*inverse = I and rhs*inverse = the solution, mod the leaf modulus
            m = leaf.modulus
            assert [[c % m for c in row] for row in mat_mul(a, leaf.inverse)] == [
                list(row) for row in identity(R, 2)
            ]
            assert [c % m for c in vec_mat(rhs, leaf.inverse)] == list(leaf.solution)
        for k in leaf.kernel:
            assert not any((c % leaf.modulus) for c in vec_mat(k, a))
        if leaf.status == "inconsistent":
            w, residual = leaf.witness
            # certificate: A*w = 0 mod the leaf modulus but rhs.w != 0
            col = mat_vec(a, w)
            assert not any((c % leaf.modulus) for c in col)
            assert residual % leaf.modulus
