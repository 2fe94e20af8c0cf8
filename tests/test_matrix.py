import numpy as np
import pytest

from ttriem import ad
from ttriem.errors import DimensionError, InvalidPairError, InvalidTangentError
from ttriem.matrix import (
    FixedRankPoint,
    MatrixTangent,
    hess_vec_matrix,
    project_matrix,
    riemannian_grad_matrix,
    tangent_dot_matrix,
    tangent_materialize,
)


def dense_projection(x, z):
    """P_X Z = Z V V^T + U U^T Z (I - V V^T), evaluated densely."""
    u, v = x.u, x.v
    pv = v @ v.T
    return z @ pv + u @ (u.T @ z) @ (np.eye(v.shape[0]) - pv)


def random_point(rng, m, n, r):
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return FixedRankPoint(u, np.diag(rng.standard_normal(r)), v)


def rank_one_2x2():
    e1 = np.array([[1.0], [0.0]])
    return FixedRankPoint(e1, [[2.0]], e1)


def sum_program(left, right):
    # f(X) = sum of entries of X = <ones, L R^T>
    prod = ad.contract(left, right, [(1, 1)])
    return prod.sum()


def quad_program(left, right):
    # f(X) = <X, X>
    prod = ad.contract(left, right, [(1, 1)])
    return (prod * prod).sum()


def bilinear_program(a):
    def program(left, right):
        x = ad.contract(left, right, [(1, 1)])
        ax = ad.contract(a, x, [(1, 0)])
        return (ax * x).sum()

    return program


class TestPoint:
    def test_orthonormality_enforced(self, rng):
        u = rng.standard_normal((4, 2))
        with pytest.raises(DimensionError):
            FixedRankPoint(u, np.eye(2), u)

    def test_zero_rank_rejected(self):
        with pytest.raises(DimensionError):
            FixedRankPoint(np.ones((3, 0)), np.ones((0, 0)), np.ones((3, 0)))

    def test_vector_s_is_the_diagonal(self, rng):
        x = random_point(rng, 5, 4, 2)
        y = FixedRankPoint(x.u, np.diag(x.s), x.v)
        np.testing.assert_array_equal(y.s, x.s)
        assert y.matches(x)
        assert not y.matches(FixedRankPoint(x.u, 2.0 * np.diag(x.s), x.v))

    def test_from_dense_roundtrip(self, rng):
        m = rng.standard_normal((5, 4))
        x = FixedRankPoint.from_dense(m, 4)
        np.testing.assert_allclose(x.to_dense(), m, atol=1e-12)


class TestTangentMaterialize:
    def test_zero_tangent(self, rng):
        x = random_point(rng, 4, 3, 2)
        t = MatrixTangent(x, np.zeros((4, 2)), np.zeros((3, 2)))
        left, right = tangent_materialize(t)
        np.testing.assert_allclose(left @ right.T, 0.0)

    def test_du_equals_us_recovers_point(self, rng):
        x = random_point(rng, 4, 3, 2)
        t = MatrixTangent(x, x.u @ x.s, np.zeros((3, 2)))
        left, right = tangent_materialize(t)
        np.testing.assert_allclose(left @ right.T, x.to_dense(), atol=1e-13)

    def test_matches_parametrization_formula(self, rng):
        x = random_point(rng, 5, 4, 2)
        du = rng.standard_normal((5, 2))
        dv = rng.standard_normal((4, 2))
        dv -= x.v @ (x.v.T @ dv)
        t = MatrixTangent(x, du, dv)
        left, right = tangent_materialize(t)
        np.testing.assert_allclose(
            left @ right.T, du @ x.v.T + x.u @ dv.T, atol=1e-13
        )


class TestProject:
    def test_offdiagonal_flip(self):
        x = rank_one_2x2()
        z = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = project_matrix(x, z)
        np.testing.assert_allclose(t.du.ravel(), [0.0, 1.0])
        np.testing.assert_allclose(t.dv.ravel(), [0.0, 1.0])
        left, right = tangent_materialize(t)
        np.testing.assert_allclose(left @ right.T, z, atol=1e-14)

    def test_project_point_itself(self, rng):
        x = random_point(rng, 5, 4, 2)
        t = project_matrix(x, x.to_dense())
        np.testing.assert_allclose(t.du, x.u @ x.s, atol=1e-13)
        np.testing.assert_allclose(t.dv, 0.0, atol=1e-13)

    def test_orthogonal_direction_maps_to_zero(self):
        x = rank_one_2x2()
        z = np.zeros((2, 2))
        z[1, 1] = 1.0
        t = project_matrix(x, z)
        assert np.abs(t.du).max() == 0.0 and np.abs(t.dv).max() == 0.0

    def test_matches_dense_formula(self, rng):
        x = random_point(rng, 6, 5, 3)
        z = rng.standard_normal((6, 5))
        t = project_matrix(x, z)
        left, right = tangent_materialize(t)
        np.testing.assert_allclose(left @ right.T, dense_projection(x, z), atol=1e-12)

    def test_idempotent(self, rng):
        x = random_point(rng, 5, 4, 2)
        t = project_matrix(x, rng.standard_normal((5, 4)))
        left, right = tangent_materialize(t)
        t2 = project_matrix(x, left @ right.T)
        np.testing.assert_allclose(t.du, t2.du, atol=1e-10)
        np.testing.assert_allclose(t.dv, t2.dv, atol=1e-10)

    def test_self_adjoint(self, rng):
        x = random_point(rng, 5, 4, 2)
        z = rng.standard_normal((5, 4))
        w = rng.standard_normal((5, 4))
        lhs = np.vdot(dense_projection(x, z), w)
        rhs = np.vdot(z, dense_projection(x, w))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_shape_mismatch(self, rng):
        x = random_point(rng, 5, 4, 2)
        with pytest.raises(DimensionError):
            project_matrix(x, np.zeros((4, 5)))


class TestRiemannianGrad:
    def test_quadratic_at_rank_one_point(self):
        x = rank_one_2x2()  # X = diag(2, 0)
        g = riemannian_grad_matrix(quad_program, x)
        np.testing.assert_allclose(g.du.ravel(), [4.0, 0.0])  # 2 U S
        np.testing.assert_allclose(g.dv, 0.0, atol=1e-14)
        left, right = tangent_materialize(g)
        np.testing.assert_allclose(left @ right.T, 2.0 * x.to_dense(), atol=1e-13)

    def test_entry_sum_equals_projected_ones(self, rng):
        x = random_point(rng, 5, 4, 2)
        g = riemannian_grad_matrix(sum_program, x)
        left, right = tangent_materialize(g)
        np.testing.assert_allclose(
            left @ right.T, dense_projection(x, np.ones((5, 4))), atol=1e-12
        )

    def test_bilinear_vs_dense_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2.0
        x = random_point(rng, 4, 4, 2)
        g = riemannian_grad_matrix(bilinear_program(a), x)
        left, right = tangent_materialize(g)
        want = dense_projection(x, 2.0 * a @ x.to_dense())
        np.testing.assert_allclose(left @ right.T, want, atol=1e-10)

    def test_gradient_vs_finite_differences(self, rng):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2.0
        x = random_point(rng, 4, 4, 2)
        g = riemannian_grad_matrix(bilinear_program(a), x)
        step = 1e-6
        fd = np.zeros((4, 4))
        for i in np.ndindex(4, 4):
            ep = np.zeros((4, 4))
            ep[i] = step
            xp, xm = x.to_dense() + ep, x.to_dense() - ep
            fd[i] = (np.sum((a @ xp) * xp) - np.sum((a @ xm) * xm)) / (2 * step)
        left, right = tangent_materialize(g)
        np.testing.assert_allclose(
            left @ right.T, dense_projection(x, fd), atol=1e-6 * np.abs(fd).max()
        )

    def test_no_inversion_with_zero_singular_values(self, rng):
        # overestimated rank: S = diag(2, 1, 0)
        u = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((4, 3)))[0]
        x = FixedRankPoint(u, np.diag([2.0, 1.0, 0.0]), v)
        g = riemannian_grad_matrix(quad_program, x)
        left, right = tangent_materialize(g)
        want = dense_projection(x, 2.0 * x.to_dense())
        np.testing.assert_allclose(left @ right.T, want, atol=1e-12)


class TestHessVec:
    def test_quadratic_doubles_tangent(self, rng):
        x = random_point(rng, 4, 4, 2)
        z = project_matrix(x, rng.standard_normal((4, 4)))
        h = hess_vec_matrix(quad_program, x, z)
        np.testing.assert_allclose(h.du, 2.0 * z.du, atol=1e-12)
        np.testing.assert_allclose(h.dv, 2.0 * z.dv, atol=1e-12)

    def test_bilinear_vs_dense_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2.0
        x = random_point(rng, 4, 4, 2)
        z = project_matrix(x, rng.standard_normal((4, 4)))
        h = hess_vec_matrix(bilinear_program(a), x, z)
        lz, rz = tangent_materialize(z)
        want = dense_projection(x, 2.0 * a @ (lz @ rz.T))
        lh, rh = tangent_materialize(h)
        np.testing.assert_allclose(lh @ rh.T, want, atol=1e-10)

    def test_symmetry(self, rng):
        a = rng.standard_normal((5, 5))
        a = (a + a.T) / 2.0
        x = random_point(rng, 5, 5, 2)
        z1 = project_matrix(x, rng.standard_normal((5, 5)))
        z2 = project_matrix(x, rng.standard_normal((5, 5)))
        h1 = hess_vec_matrix(bilinear_program(a), x, z1)
        h2 = hess_vec_matrix(bilinear_program(a), x, z2)
        lhs = tangent_dot_matrix(h1, z2)
        rhs = tangent_dot_matrix(z1, h2)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_gauge_violation_rejected(self, rng):
        x = random_point(rng, 4, 4, 2)
        with pytest.raises(InvalidTangentError):
            MatrixTangent(x, np.zeros((4, 2)), x.v)  # dV = V: maximal violation

    def test_foreign_base_rejected(self, rng):
        x1 = random_point(rng, 4, 4, 2)
        x2 = random_point(rng, 4, 4, 2)
        z = project_matrix(x1, rng.standard_normal((4, 4)))
        with pytest.raises(InvalidTangentError):
            hess_vec_matrix(quad_program, x2, z)

    def test_near_gauge_input_is_regauged(self, rng):
        x = random_point(rng, 5, 4, 2)
        du = rng.standard_normal((5, 2))
        dv = rng.standard_normal((4, 2))
        dv -= x.v @ (x.v.T @ dv)
        dv += x.v @ (2e-9 * np.eye(2))
        res = np.linalg.norm(x.v.T @ dv) / max(1.0, np.linalg.norm(dv))
        assert 1e-10 < res < 1e-8
        t = MatrixTangent(x, du, dv)
        assert t.gauge_residual() <= 1e-10
        left, right = tangent_materialize(t)
        want = du @ x.v.T + x.u @ dv.T
        np.testing.assert_allclose(left @ right.T, want, atol=1e-8 * np.linalg.norm(want))

    def test_foreign_base_with_zero_singular_value_rejected(self, rng):
        # S = diag(1, 0): the points differ only in the column of U that S
        # zeroes out, so X1 = X2 but the tangent spaces differ.
        u1 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        u2 = u1 * [1.0, -1.0]
        v = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        x1 = FixedRankPoint(u1, np.diag([1.0, 0.0]), v)
        x2 = FixedRankPoint(u2, np.diag([1.0, 0.0]), v)
        assert not x1.ortho.matches(x2.ortho)
        z1 = project_matrix(x1, rng.standard_normal((4, 3)))
        z2 = project_matrix(x2, rng.standard_normal((4, 3)))
        with pytest.raises(InvalidTangentError):
            hess_vec_matrix(quad_program, x2, z1)
        with pytest.raises(InvalidPairError):
            tangent_dot_matrix(z1, z2)


class TestTangentDot:
    def test_norm_is_frobenius_norm(self, rng):
        x = random_point(rng, 5, 4, 2)
        left, right = tangent_materialize(project_matrix(x, rng.standard_normal((5, 4))))
        t = project_matrix(x, left @ right.T)
        assert t.norm() == pytest.approx(np.linalg.norm(left @ right.T), rel=1e-12)

    def test_zero(self, rng):
        x = random_point(rng, 4, 3, 2)
        t0 = MatrixTangent(x, np.zeros((4, 2)), np.zeros((3, 2)))
        assert tangent_dot_matrix(t0, t0) == 0.0

    def test_orthogonal_pieces(self, rng):
        x = random_point(rng, 4, 3, 2)
        du = rng.standard_normal((4, 2))
        dv = rng.standard_normal((3, 2))
        dv -= x.v @ (x.v.T @ dv)
        a = MatrixTangent(x, du, np.zeros((3, 2)))
        b = MatrixTangent(x, np.zeros((4, 2)), dv)
        assert tangent_dot_matrix(a, b) == 0.0

    def test_matches_dense(self, rng):
        x = random_point(rng, 5, 4, 2)
        a = project_matrix(x, rng.standard_normal((5, 4)))
        b = project_matrix(x, rng.standard_normal((5, 4)))
        la, ra = tangent_materialize(a)
        lb, rb = tangent_materialize(b)
        want = np.vdot(la @ ra.T, lb @ rb.T)
        assert tangent_dot_matrix(a, b) == pytest.approx(want, rel=1e-12)

    def test_base_mismatch(self, rng):
        x1 = random_point(rng, 4, 3, 2)
        x2 = random_point(rng, 4, 3, 2)
        a = project_matrix(x1, rng.standard_normal((4, 3)))
        b = project_matrix(x2, rng.standard_normal((4, 3)))
        with pytest.raises(InvalidPairError):
            tangent_dot_matrix(a, b)
