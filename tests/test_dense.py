import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttriem.ad import contract
from ttriem.dense import as_tensor, qr_thin, svd_thin
from ttriem.errors import DimensionError

from conftest import loop_contract


class TestAsTensor:
    def test_rejects_nan(self):
        with pytest.raises(DimensionError):
            as_tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(DimensionError):
            as_tensor(np.array([[1.0, np.inf]]))

    def test_casts_to_float64_c_order(self):
        a = as_tensor(np.arange(6, dtype=np.int32).reshape(2, 3).T)
        assert a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]


class TestContract:
    def test_identity_matvec(self):
        out = contract(np.eye(2), np.array([1.0, 2.0]), [(1, 0)])
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_full_dot(self):
        # hand summation: 1*4 + 2*5 + 3*6 = 32
        out = contract(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), [(0, 0)])
        assert out == 32.0

    def test_transpose_symmetry(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        ab = contract(a, b, [(1, 0)])
        ba = contract(b, a, [(0, 1)])
        np.testing.assert_allclose(ab, ba.T, atol=1e-13)

    def test_extent_mismatch(self):
        with pytest.raises(DimensionError):
            contract(np.ones((2, 3)), np.ones((4,)), [(1, 0)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_loop_oracle(self, data):
        # shapes with at most 6 total axes, extents at most 4
        na = data.draw(st.integers(1, 3), label="ndim_a")
        nb = data.draw(st.integers(1, 6 - na), label="ndim_b")
        shape_a = tuple(data.draw(st.integers(1, 4)) for _ in range(na))
        n_pairs = data.draw(st.integers(0, min(na, nb)), label="pairs")
        ax_a = data.draw(
            st.permutations(range(na)).map(lambda p: list(p)[:n_pairs]))
        ax_b = data.draw(
            st.permutations(range(nb)).map(lambda p: list(p)[:n_pairs]))
        shape_b = [data.draw(st.integers(1, 4)) for _ in range(nb)]
        for i, j in zip(ax_a, ax_b):
            shape_b[j] = shape_a[i]
        seed = data.draw(st.integers(0, 2**31))
        gen = np.random.default_rng(seed)
        a = gen.standard_normal(shape_a)
        b = gen.standard_normal(tuple(shape_b))
        axes = list(zip(ax_a, ax_b))
        np.testing.assert_allclose(
            contract(a, b, axes), loop_contract(a, b, axes), atol=1e-13
        )


class TestQrThin:
    def test_identity(self):
        q, r = qr_thin(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3))
        np.testing.assert_allclose(r, np.eye(3))

    def test_single_column(self):
        # ||(3, 4)|| = 5, so Q = (0.6, 0.8)^T and R = (5)
        q, r = qr_thin(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[0.6], [0.8]])
        np.testing.assert_allclose(r, [[5.0]])

    def test_residuals(self, rng):
        m = rng.standard_normal((6, 3))
        q, r = qr_thin(m)
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-12
        assert np.abs(q @ r - m).max() < 1e-12 * np.linalg.norm(m)
        assert np.all(np.diagonal(r) >= 0.0)
        assert np.abs(np.tril(r, -1)).max() == 0.0

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            qr_thin(np.ones((2, 3)))

    def test_deterministic(self, rng):
        m = rng.standard_normal((5, 4))
        q1, r1 = qr_thin(m)
        q2, r2 = qr_thin(m.copy())
        assert np.array_equal(q1, q2) and np.array_equal(r1, r2)


class TestSvdThin:
    def test_diagonal(self):
        _, s, _ = svd_thin(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd_thin(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_reconstruction(self, rng):
        m = rng.standard_normal((5, 4))
        u, s, v = svd_thin(m)
        assert np.abs(u @ np.diag(s) @ v.T - m).max() < 1e-11 * np.linalg.norm(m)
        assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12
        assert np.abs(v.T @ v - np.eye(4)).max() < 1e-12


class TestSvdThinFallback:
    def test_transpose_retry_when_gesdd_fails(self, rng, monkeypatch):
        real_svd = np.linalg.svd
        shapes = []

        def flaky_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            if len(shapes) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        m = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9))  # rank 3
        u, s, v = svd_thin(m)
        assert shapes == [(6, 9), (9, 6)]
        assert u.shape == (6, 6) and s.shape == (6,) and v.shape == (9, 6)
        assert np.abs(u.T @ u - np.eye(6)).max() < 1e-12
        assert np.abs(v.T @ v - np.eye(6)).max() < 1e-12
        assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0)
        assert np.abs(u @ np.diag(s) @ v.T - m).max() < 1e-11 * np.linalg.norm(m)
