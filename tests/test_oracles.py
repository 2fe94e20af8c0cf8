import numpy as np
import pytest

from ttriem import coreops
from ttriem.errors import OversizeError
from ttriem.objectives import quadratic_form
from ttriem.oracles import (
    dense_oracle_grad,
    dense_oracle_hvp,
    dense_project,
    dense_tangent_basis,
    fd_gradient,
    method_residuals,
    oracle_residuals,
    tangent_residual,
)
from ttriem.tt import TtTensor, orthogonalize, random_tt, tt_to_dense, ttmat_identity
from ttriem.ttmanifold import project_tt, riemannian_grad_tt, tangent_scale, zero_tangent


class TestDenseProject:
    def test_reproduces_point(self, rng):
        base = orthogonalize(random_tt(rng, (2, 3, 2), 2))
        xd = tt_to_dense(base.to_tt())
        np.testing.assert_allclose(dense_project(base, xd), xd, atol=1e-11)

    def test_linear_functional_gradient_is_projected_rhs(self, rng):
        # f(X) = <F, X> has Euclidean gradient F, so the oracle must return
        # the dense projection of F
        base = orthogonalize(random_tt(rng, (2, 3, 2), 2))
        f = random_tt(rng, (2, 3, 2), 2)

        def program(cores):
            return coreops.dot_cores([c for c in f.cores], list(cores))

        g = riemannian_grad_tt(program, base)
        want = dense_project(base, tt_to_dense(f))
        np.testing.assert_allclose(tt_to_dense(g.materialize()), want, atol=1e-11)

    def test_basis_spans_projection_range(self, rng):
        base = orthogonalize(random_tt(rng, (2, 2, 2), 2))
        basis = dense_tangent_basis(base)
        z = rng.standard_normal((2, 2, 2))
        proj = dense_project(base, z)
        # projecting again changes nothing
        np.testing.assert_allclose(dense_project(base, proj), proj, atol=1e-11)
        # the residual is orthogonal to every basis column
        resid = (z - proj).ravel()
        assert np.abs(basis.T @ resid).max() < 1e-10


class TestOracleEndpoints:
    def test_self_dot_oracle_returns_doubled_point(self, rng):
        base = orthogonalize(random_tt(rng, (2, 2, 2), 2))
        obj = quadratic_form(ttmat_identity((2, 2, 2)))
        got = dense_oracle_grad(obj, base)
        np.testing.assert_allclose(got, 2.0 * tt_to_dense(base.to_tt()), atol=1e-11)

    def test_fd_route_agrees_with_analytic(self, rng):
        base = orthogonalize(random_tt(rng, (2, 2, 2), 2))
        obj = quadratic_form(ttmat_identity((2, 2, 2)))
        analytic = dense_oracle_grad(obj, base)
        fd = dense_oracle_grad(obj, base, use_fd=True)
        np.testing.assert_allclose(fd, analytic, atol=1e-6 * np.abs(analytic).max())

    def test_hvp_oracle_on_tangent(self, rng):
        base = orthogonalize(random_tt(rng, (2, 2, 2), 2))
        z = project_tt(base, random_tt(rng, (2, 2, 2), 2))
        zd = tt_to_dense(z.materialize())
        obj = quadratic_form(ttmat_identity((2, 2, 2)))
        np.testing.assert_allclose(dense_oracle_hvp(obj, base, zd), 2.0 * zd, atol=1e-11)

    def test_oversize_guard(self):
        big = orthogonalize(TtTensor([np.ones((1, 300, 1))] * 3))
        with pytest.raises(OversizeError):
            dense_tangent_basis(big)

    def test_fd_gradient_quadratic(self, rng):
        v = rng.standard_normal((3, 2))
        g = fd_gradient(lambda x: float(np.sum(x * x)), v)
        np.testing.assert_allclose(g, 2.0 * v, atol=1e-6)


class TestResiduals:
    def test_tangent_residual_is_relative_to_the_reference(self, rng):
        base = orthogonalize(random_tt(rng, (2, 3, 2), 2))
        z = project_tt(base, random_tt(rng, (2, 3, 2), 2))
        assert tangent_residual(tangent_scale(1.5, z), z) == pytest.approx(0.5, rel=1e-12)
        assert tangent_residual(z, tangent_scale(2.0, z)) == pytest.approx(0.5, rel=1e-12)
        assert tangent_residual(zero_tangent(base), zero_tangent(base)) == 0.0

    def test_oracle_and_method_residuals_on_identity_quadratic(self, rng):
        base = orthogonalize(random_tt(rng, (2, 2, 2), 2))
        z = project_tt(base, random_tt(rng, (2, 2, 2), 2))
        obj = quadratic_form(ttmat_identity((2, 2, 2)))
        assert max(oracle_residuals(obj, base, z)) < 1e-12
        pairs = method_residuals(obj, "hvp", base, z)
        assert list(pairs) == [("ad", "naive"), ("ad", "optimized"), ("naive", "optimized")]
        assert max(pairs.values()) < 1e-12
