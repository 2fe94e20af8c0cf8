import os
import struct
import threading
from typing import Callable, NamedTuple

import numpy as np
import pytest

from ttriem.coreops import dot_cores, operator_dot_cores, operator_pair_dot_cores
from ttriem.errors import DimensionError, FormatError, OversizeError
from ttriem.tt import (
    TtMatrix,
    TtTensor,
    feasible_ranks,
    orthogonalize,
    pad_ranks,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_axpy,
    tt_dot,
    tt_entries,
    tt_norm,
    tt_read,
    tt_round,
    tt_scale,
    tt_to_dense,
    tt_write,
    ttmat_apply,
    ttmat_identity,
    ttmat_read,
    ttmat_to_dense,
    ttmat_transpose,
    ttmat_write,
)
from ttriem.ttmanifold import riemannian_grad_tt

from conftest import dense_entry_oracle


def all_ones(d=3, n=2):
    return TtTensor([np.ones((1, n, 1))] * d)


class TestContainers:
    def test_rank_chain_violation(self):
        with pytest.raises(DimensionError):
            TtTensor([np.ones((1, 2, 2)), np.ones((3, 2, 1))])

    def test_boundary_ranks(self):
        with pytest.raises(DimensionError):
            TtTensor([np.ones((2, 2, 2)), np.ones((2, 2, 1))])

    def test_feasible_ranks_clip(self):
        assert feasible_ranks((2, 2, 2), (5, 5)) == (2, 2)
        assert feasible_ranks((2, 3, 2), (2, 2)) == (2, 2)

    def test_pad_ranks_keeps_the_tensor(self, rng):
        x = random_tt(rng, (2, 3, 2), 1)
        padded = pad_ranks(x, 5)
        assert padded.ranks == (1, 2, 2, 1)  # clipped to feasible ranks
        np.testing.assert_array_equal(tt_to_dense(padded), tt_to_dense(x))

    def test_reprs(self):
        assert repr(all_ones()) == "TtTensor(modes=(2, 2, 2), ranks=(1, 1, 1, 1))"
        want = "TtMatrix(rows=(2, 3), cols=(2, 3), ranks=(1, 1, 1))"
        assert repr(ttmat_identity((2, 3))) == want

    def test_cores_are_read_only(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        with pytest.raises(ValueError):
            x.cores[0][0, 0, 0] = 1.0


class TestOrthogonalize:
    def test_all_ones_norm_bookkeeping(self):
        # ||X||^2 = 8; each orthogonal core slice is 1/sqrt(2), and the
        # boundary center cores absorb the full norm: S_1[i] = S_3[i] = 2.
        mo = orthogonalize(all_ones())
        for k in range(2):
            np.testing.assert_allclose(mo.U[k].ravel(), [2**-0.5] * 2)
        for k in (1, 2):
            np.testing.assert_allclose(mo.V[k].ravel(), [2**-0.5] * 2)
        np.testing.assert_allclose(mo.S[0].ravel(), [2.0, 2.0])
        np.testing.assert_allclose(mo.S[2].ravel(), [2.0, 2.0])

    def test_already_right_orthogonal_unchanged(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        one_orth = TtTensor(orthogonalize(x).mu_cores(0))
        mo = orthogonalize(one_orth)
        # V cores of a 1-orthogonal input are reproduced (sign convention fixed)
        for k in (1, 2):
            np.testing.assert_allclose(mo.V[k], one_orth.cores[k], atol=1e-12)

    def test_random_preserves_tensor_for_every_mu(self, rng):
        x = random_tt(rng, (3, 3, 3, 3), (2, 3, 2))
        mo = orthogonalize(x)
        dense = tt_to_dense(x)
        scale = np.abs(dense).max()
        for mu in range(4):
            rebuilt = tt_to_dense(TtTensor(mo.mu_cores(mu)))
            assert np.abs(rebuilt - dense).max() < 1e-10 * scale

    def test_orthogonality_residuals(self, rng):
        x = random_tt(rng, (3, 4, 2, 3), (3, 3, 2))
        mo = orthogonalize(x)
        for k in range(3):
            u = mo.U[k]
            res = np.abs(np.einsum("aib,aic->bc", u, u) - np.eye(u.shape[2])).max()
            assert res < 1e-11
        for k in (1, 2, 3):
            v = mo.V[k]
            res = np.abs(np.einsum("aib,cib->ac", v, v) - np.eye(v.shape[0])).max()
            assert res < 1e-11

    def test_shared_core_shapes(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        mo = orthogonalize(x)
        assert all(s.shape == c.shape for s, c in zip(mo.S, x.cores))
        assert (mo.ndim, mo.mode_sizes, mo.ranks) == (x.ndim, x.mode_sizes, x.ranks)

    def test_matches(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        assert orthogonalize(x).matches(orthogonalize(x))  # equal factors, two objects
        assert not orthogonalize(x).matches(orthogonalize(tt_scale(2.0, x)))
        assert not orthogonalize(x).matches(orthogonalize(random_tt(rng, (2, 3, 3), (2, 2))))

    def test_factors_read_only(self, rng):
        # What is derived from a point once must not outlive its factors.
        x = random_tt(rng, (2, 3, 2), (2, 2))
        mo = orthogonalize(x)
        for name in ("U", "V", "S"):
            before = getattr(mo, name)
            with pytest.raises(AttributeError):
                setattr(mo, name, before[::-1])
            assert getattr(mo, name) is before
            assert all(a is None or not a.flags.writeable for a in before)
        assert mo.matches(orthogonalize(x))
        assert not mo.matches(orthogonalize(tt_scale(2.0, x)))
        rebuilt = tt_to_dense(mo.to_tt())
        assert np.abs(rebuilt - tt_to_dense(x)).max() < 1e-12 * np.abs(rebuilt).max()

    def test_infeasible_ranks_are_named(self, rng):
        # A sum can carry ranks the mode sizes cannot attain.  Every routine
        # that takes a TtTensor point orthogonalizes it, and the error names
        # the ranks and the remedy, not the QR of an unfolding.
        x = random_tt(rng, (3, 4, 3), 2)
        y = tt_axpy(1.0, x, tt_axpy(1.0, x, x))
        assert y.ranks == (1, 6, 6, 1)
        want = (r"TT ranks \(1, 6, 6, 1\) exceed what mode sizes \(3, 4, 3\) allow: "
                r"internal ranks can be at most \(3, 3\); truncate with tt_round")
        with pytest.raises(DimensionError, match=want):
            orthogonalize(y)
        with pytest.raises(DimensionError, match=want):
            riemannian_grad_tt(lambda cores: dot_cores(cores, cores), y)

    def test_padded_ranks_orthogonalize(self, rng):
        # Attainable ranks whose unfoldings have zero singular values are
        # no error.
        x = random_tt(rng, (3, 4, 3), 1)
        padded = pad_ranks(x, 3)
        assert padded.ranks == (1, 3, 3, 1)
        mo = orthogonalize(padded)
        for mu in range(3):
            np.testing.assert_allclose(tt_to_dense(TtTensor(mo.mu_cores(mu))), tt_to_dense(x),
                                       atol=1e-12)

    @pytest.mark.parametrize("func", [
        tt_to_dense,
        lambda mo: tt_dot(mo, mo),
        lambda mo: tt_entries(mo, np.zeros((1, 3), dtype=int)),
        lambda mo: tt_round(mo, 2),
    ], ids=["to_dense", "dot", "entries", "round"])
    def test_tt_functions_reject_decomposition(self, rng, func):
        # the center cores chain up but their product is not the tensor
        mo = orthogonalize(random_tt(rng, (2, 3, 2), (2, 2)))
        with pytest.raises(AttributeError):
            func(mo)


class TestToDense:
    def test_all_ones(self):
        np.testing.assert_allclose(tt_to_dense(all_ones()), np.ones((2, 2, 2)))

    def test_basis_tensor(self):
        cores = [np.zeros((1, 2, 1)) for _ in range(3)]
        for c, i in zip(cores, (1, 0, 1)):
            c[0, i, 0] = 1.0
        dense = tt_to_dense(TtTensor(cores))
        want = np.zeros((2, 2, 2))
        want[1, 0, 1] = 1.0
        np.testing.assert_allclose(dense, want)

    def test_matches_entry_oracle(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        dense = tt_to_dense(x)
        for idx in np.ndindex(2, 3, 2):
            assert abs(dense[idx] - dense_entry_oracle(x.cores, idx)) < 1e-13

    def test_cap(self):
        big = TtTensor([np.ones((1, 500, 1))] * 3)
        with pytest.raises(OversizeError):
            tt_to_dense(big)

    def test_operator_cap(self):
        # 2^64 rows: an int64 product of the row sizes wraps to 0
        big = TtMatrix([np.ones((1, 2**16, 1, 1))] * 4)
        with pytest.raises(OversizeError):
            ttmat_to_dense(big)


class TestDot:
    def test_ones_selfdot_counts_entries(self):
        assert tt_dot(all_ones(), all_ones()) == pytest.approx(8.0)

    def test_zero(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        zero = tt_scale(0.0, x)
        assert tt_dot(x, zero) == 0.0

    def test_matches_dense(self, rng):
        x = random_tt(rng, (2, 3, 4), (2, 3))
        y = random_tt(rng, (2, 3, 4), (3, 2))
        want = np.vdot(tt_to_dense(x), tt_to_dense(y))
        assert tt_dot(x, y) == pytest.approx(want, rel=1e-12)

    def test_norm_positive(self, rng):
        x = random_tt(rng, (2, 2, 2, 2), (2, 2, 2))
        val = tt_dot(x, x)
        assert val >= 0.0
        assert val == pytest.approx(np.vdot(tt_to_dense(x), tt_to_dense(x)), rel=1e-12)

    def test_mode_mismatch(self, rng):
        with pytest.raises(DimensionError):
            tt_dot(random_tt(rng, (2, 3), (2,)), random_tt(rng, (2, 4), (2,)))

    def test_norm(self, rng):
        x = random_tt(rng, (2, 3, 4), (3, 2))
        assert tt_norm(x) == pytest.approx(np.linalg.norm(tt_to_dense(x)), rel=1e-12)


class TestEntries:
    def test_against_oracle(self, rng):
        x = random_tt(rng, (3, 4, 2), (2, 3))
        idx = np.array([[0, 0, 0], [2, 3, 1], [1, 2, 0]])
        got = tt_entries(x, idx)
        want = [dense_entry_oracle(x.cores, i) for i in idx]
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_out_of_range(self, rng):
        x = random_tt(rng, (3, 4, 2), (2, 2))
        with pytest.raises(IndexError):
            tt_entries(x, np.array([[0, 4, 0]]))

    @pytest.mark.parametrize("idx,mode", [([[-1, 0, 0]], 0), ([[0, 0, 2]], 2)])
    def test_out_of_range_names_mode(self, rng, idx, mode):
        # A negative index used to wrap around to the last slice.
        x = random_tt(rng, (3, 4, 2), (2, 2))
        with pytest.raises(IndexError, match=f"mode {mode}"):
            tt_entries(x, np.array(idx))

    def test_non_integral_index(self, rng):
        # A float index used to be truncated (0.5 read entry 0).
        x = random_tt(rng, (3, 4, 2), (2, 2))
        with pytest.raises(IndexError, match="non-integral"):
            tt_entries(x, np.array([[0.5, 0, 0]]))

    @pytest.mark.parametrize("idx", [[0, 1, 0], [[0, 1], [2, 3]]])
    def test_index_shape(self, rng, idx):
        x = random_tt(rng, (3, 4, 2), (2, 2))
        with pytest.raises(DimensionError, match=r"index array must be \(N, 3\)"):
            tt_entries(x, np.array(idx))


class TestMatApply:
    def test_identity(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        out = ttmat_apply(ttmat_identity((2, 3, 2)), x)
        np.testing.assert_allclose(tt_to_dense(out), tt_to_dense(x), atol=1e-13)

    def test_zero_operator(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        zero_op = TtMatrix([np.zeros((1, n, n, 1)) for n in (2, 3, 2)])
        np.testing.assert_allclose(tt_to_dense(ttmat_apply(zero_op, x)), 0.0)

    def test_matches_dense_matvec(self, rng):
        x = random_tt(rng, (2, 2, 2), (2, 2))
        a = random_ttmat(rng, (2, 2, 2), (2, 2, 2), 2)
        got = tt_to_dense(ttmat_apply(a, x)).ravel()
        want = ttmat_to_dense(a) @ tt_to_dense(x).ravel()
        np.testing.assert_allclose(got, want, atol=1e-11 * max(np.abs(want).max(), 1.0))

    def test_rank_products(self, rng):
        x = random_tt(rng, (2, 2, 2), (2, 2))
        a = random_ttmat(rng, (2, 2, 2), (2, 2, 2), 3)
        out = ttmat_apply(a, x)
        assert out.ranks == (1, 6, 6, 1)

    def test_transpose(self, rng):
        a = random_ttmat(rng, (2, 3), (3, 2), 2)
        np.testing.assert_allclose(ttmat_to_dense(ttmat_transpose(a)), ttmat_to_dense(a).T)

    def test_mode_mismatch(self, rng):
        a = random_ttmat(rng, (2, 2), (3, 3), 2)
        with pytest.raises(DimensionError):
            ttmat_apply(a, random_tt(rng, (2, 2), (2,)))

    def test_distributes_over_axpy(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        y = random_tt(rng, (2, 3, 2), (2, 2))
        a = random_symmetric_ttmat(rng, (2, 3, 2), 2)
        lhs = tt_to_dense(ttmat_apply(a, tt_axpy(1.7, x, y)))
        rhs = 1.7 * tt_to_dense(ttmat_apply(a, x)) + tt_to_dense(ttmat_apply(a, y))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11 * max(np.abs(rhs).max(), 1.0))


# (rows of A and B, columns of A, columns of B): a rectangular pair and d=1.
SANDWICH_MODES = {
    "rectangular": ((2, 3, 4), (3, 2, 2), (4, 2, 3)),
    "d1": ((3,), (4,), (2,)),
}


def _cores(t):
    return list(t.cores)


class TestOperatorSweeps:
    """<A X, Y> and <A X, B Y> through rank interfaces, against applying A."""

    @pytest.mark.parametrize("case", sorted(SANDWICH_MODES))
    def test_operator_dot_matches_apply(self, rng, case):
        rows, cols, _ = SANDWICH_MODES[case]
        a = random_ttmat(rng, rows, cols, 3)
        x = random_tt(rng, cols, 2)
        y = random_tt(rng, rows, 4)
        got = float(operator_dot_cores(_cores(a), _cores(x), _cores(y)))
        want = tt_dot(ttmat_apply(a, x), y)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("case", sorted(SANDWICH_MODES))
    def test_operator_pair_dot_matches_apply(self, rng, case):
        rows, cols_a, cols_b = SANDWICH_MODES[case]
        a = random_ttmat(rng, rows, cols_a, 3)
        b = random_ttmat(rng, rows, cols_b, 2)
        x = random_tt(rng, cols_a, 2)
        y = random_tt(rng, cols_b, 4)
        got = float(operator_pair_dot_cores(_cores(a), _cores(x), _cores(b), _cores(y)))
        want = tt_dot(ttmat_apply(a, x), ttmat_apply(b, y))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_mismatch_raises(self, rng):
        rows, cols, cols_b = SANDWICH_MODES["rectangular"]
        a = _cores(random_ttmat(rng, rows, cols, 2))
        b = _cores(random_ttmat(rng, rows, cols_b, 2))
        x = _cores(random_tt(rng, cols, 2))
        y = _cores(random_tt(rng, rows, 2))
        yb = _cores(random_tt(rng, cols_b, 2))
        bad_calls = [
            lambda: operator_dot_cores(a, x[:2], y[:2]),  # core counts
            lambda: operator_dot_cores(a, y, y),  # column size vs X
            lambda: operator_dot_cores(a, x, x),  # row size vs Y
            lambda: operator_pair_dot_cores(a, x, b[:2], yb[:2]),
            lambda: operator_pair_dot_cores(a, y, b, yb),  # A's column size vs X
            lambda: operator_pair_dot_cores(a, x, b, x),  # B's column size vs Y
            lambda: operator_pair_dot_cores(  # row sizes of A and B
                a, x, _cores(random_ttmat(rng, cols_b, cols_b, 2)), yb),
        ]
        for call in bad_calls:
            with pytest.raises(DimensionError):
                call()


class TestAxpy:
    def test_alpha_zero(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        y = random_tt(rng, (2, 3, 2), (2, 2))
        np.testing.assert_allclose(
            tt_to_dense(tt_axpy(0.0, x, y)), tt_to_dense(y), atol=1e-13
        )

    def test_cancellation(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        diff = tt_axpy(-1.0, x, x)
        assert np.linalg.norm(tt_to_dense(diff)) < 1e-12

    def test_random_vs_dense(self, rng):
        x = random_tt(rng, (3, 2, 3), (2, 2))
        y = random_tt(rng, (3, 2, 3), (3, 2))
        got = tt_to_dense(tt_axpy(-2.5, x, y))
        want = -2.5 * tt_to_dense(x) + tt_to_dense(y)
        np.testing.assert_allclose(got, want, atol=1e-12 * max(np.abs(want).max(), 1.0))

    def test_rank_sum(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        y = random_tt(rng, (2, 3, 2), (2, 2))
        assert tt_axpy(1.0, x, y).ranks == (1, 4, 4, 1)


def dense_tt_svd_sweep(dense, max_rank):
    """Reference TT truncation on the dense tensor; returns (tensor, tails).

    Truncates unfoldings right-to-left, the same order the library sweep
    uses, so the per-step singular values (and hence the error) coincide.
    """
    shape = dense.shape
    d = len(shape)
    cores = [None] * d
    tails = []
    work = dense.reshape(-1)
    rr = 1
    for k in range(d - 1, 0, -1):
        m = work.reshape(-1, shape[k] * rr)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        keep = min(max_rank, len(s))
        tails.append(np.sqrt(np.sum(s[keep:] ** 2)))
        cores[k] = vt[:keep].reshape(keep, shape[k], rr)
        work = u[:, :keep] * s[:keep]
        rr = keep
    cores[0] = work.reshape(1, shape[0], rr)
    return TtTensor(cores), tails


class TestRound:
    def test_exact_rank_preserved(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        out = tt_round(x, (2, 2))
        np.testing.assert_allclose(tt_to_dense(out), tt_to_dense(x), atol=1e-12)

    def test_double_then_round_back(self, rng):
        x = random_tt(rng, (2, 3, 2), (2, 2))
        doubled = tt_axpy(1.0, x, x)
        out = tt_round(doubled, (2, 2))
        np.testing.assert_allclose(
            tt_to_dense(out), 2.0 * tt_to_dense(x), atol=1e-11 * np.abs(tt_to_dense(x)).max()
        )

    def test_truncation_error_matches_svd_tail(self, rng):
        x = random_tt(rng, (4, 4, 4), (4, 4))
        dense = tt_to_dense(x)
        reference, tails = dense_tt_svd_sweep(dense, 2)
        got = tt_round(x, 2)
        err_got = np.linalg.norm(tt_to_dense(got) - dense)
        err_ref = np.linalg.norm(tt_to_dense(reference) - dense)
        assert abs(err_got - err_ref) < 1e-10 * max(err_ref, 1.0)
        assert err_got <= np.sqrt(np.sum(np.array(tails) ** 2)) + 1e-10

    def test_tolerance_zero_keeps_everything(self, rng):
        x = random_tt(rng, (2, 2, 2), (2, 2))
        out = tt_round(x, 10, tol=0.0)
        np.testing.assert_allclose(tt_to_dense(out), tt_to_dense(x), atol=1e-12)

    @pytest.mark.parametrize("tol", [1e-3, 0.05, 0.2, 0.5, 0.9])
    def test_tolerance_bounds_relative_error(self, tol, rng):
        # Rank-2 parts at relative scales 1, 0.1 and 0.01: from tol = 0.05
        # on, the sweep drops some of them, and never more than tol allows.
        modes = (4, 5, 5, 4)
        x = random_tt(rng, modes, 2)
        for scale in (0.1, 0.01):
            x = tt_axpy(scale, random_tt(rng, modes, 2), x)
        exact = tt_round(x, 10)
        out = tt_round(x, 10, tol=tol)
        dense = tt_to_dense(x)
        assert np.linalg.norm(tt_to_dense(out) - dense) <= tol * np.linalg.norm(dense)
        if tol >= 0.05:
            assert sum(out.ranks) < sum(exact.ranks)

    def test_tolerance_drops_zero_padding(self, rng):
        x = random_tt(rng, (3, 4, 4, 3), (2, 3, 2))
        padded = pad_ranks(x, 3)
        assert tt_round(padded, 10).ranks == padded.ranks != x.ranks
        out = tt_round(padded, 10, tol=1e-12)
        assert out.ranks == x.ranks
        dense = tt_to_dense(x)
        np.testing.assert_allclose(tt_to_dense(out), dense, atol=1e-12 * np.abs(dense).max())

    def test_negative_tol_rejected(self, rng):
        with pytest.raises(DimensionError):
            tt_round(random_tt(rng, (2, 2), (2,)), 2, tol=-1.0)

    @pytest.mark.parametrize("caps", [0, -1, (0, 2), (2, -1)],
                             ids=["zero", "negative", "zero_bond", "negative_bond"])
    def test_cap_below_one_rejected(self, caps, rng):
        # A cap below 1 was raised to 1, so tt_round(x, 0) gave rank 1.
        with pytest.raises(DimensionError):
            tt_round(random_tt(rng, (2, 3, 2), (2, 2)), caps)

    def test_zero_rank_chain_kept(self):
        # A zero rank has no singular value to keep, and stays zero.
        x = TtTensor([np.zeros((1, 2, 0)), np.zeros((0, 3, 1))])
        assert tt_round(x, 2).ranks == (1, 0, 1)


class Format(NamedTuple):
    """A binary format under test: its writer, reader and a sample chain."""

    magic: bytes
    write: Callable
    read: Callable
    sample: Callable  # (rng, modes, ranks) -> chain
    size_arrays: int  # u64 size arrays between the order and the ranks


TTV1 = Format(b"TTv1", tt_write, tt_read, random_tt, 1)
TMV1 = Format(b"TMv1", ttmat_write, ttmat_read,
              lambda rng, modes, ranks: random_ttmat(rng, modes, modes[::-1], ranks[0]), 2)
OVERSIZED_PAYLOAD = bytes(64)


def layout_bytes(magic, size_arrays, cores):
    """The documented layout, spelled out entry by entry."""
    ranks = [cores[0].shape[0]] + [c.shape[-1] for c in cores]
    out = magic + struct.pack("<I", len(cores))
    for sizes in [[c.shape[1 + j] for c in cores] for j in range(size_arrays)] + [ranks]:
        out += b"".join(struct.pack("<Q", n) for n in sizes)
    for c in cores:  # index order (left rank, mode axes, right rank), right rank fastest
        out += b"".join(struct.pack("<d", c[i]) for i in np.ndindex(*c.shape))
    return out


class _CorruptFiles:
    """Corrupt-file and layout cases; each subclass runs them on its format
    ``fmt``."""

    fmt: Format

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "x.ttv1"
        self.fmt.write(self.fmt.sample(rng, (2, 2), (2,)), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            self.fmt.read(path)

    def test_rank_chain_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "x.ttv1"
        self.fmt.write(self.fmt.sample(rng, (2, 2), (2,)), path)
        raw = bytearray(path.read_bytes())
        # first rank entry (r_0) lives right after magic, u32 d and the u64 size arrays
        offset = 4 + 4 + self.fmt.size_arrays * 2 * 8
        raw[offset:offset + 8] = (7).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            self.fmt.read(path)

    def test_truncated_file(self, rng, tmp_path):
        path = tmp_path / "x.ttv1"
        self.fmt.write(self.fmt.sample(rng, (2, 3, 2), (2, 2)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(FormatError):
            self.fmt.read(path)

    def test_trailing_garbage(self, rng, tmp_path):
        path = tmp_path / "x.ttv1"
        self.fmt.write(self.fmt.sample(rng, (2, 2), (2,)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            self.fmt.read(path)

    @pytest.mark.parametrize("modes, ranks", [((2, 3, 2), (0, 0)), ((2, 0, 3), (2, 2))],
                             ids=["zero_ranks", "zero_mode"])
    def test_zero_extents_roundtrip(self, rng, tmp_path, modes, ranks):
        # Every chain the constructors accept reads back, zero extents too:
        # ranks (1, 0, 0, 1) are those of the naive completion gradient of
        # an empty observation set.
        chain = self.fmt.sample(rng, modes, ranks)
        assert any(c.size == 0 for c in chain.cores)
        path = tmp_path / "x.bin"
        self.fmt.write(chain, path)
        back = self.fmt.read(path)
        assert [c.shape for c in back.cores] == [c.shape for c in chain.cores]

    def test_extent_beyond_numpy_beside_zero_rejected(self, tmp_path):
        # A zero rank makes the core empty whatever its mode sizes, so the
        # file's length cannot bound them.
        path = tmp_path / "x.bin"
        sizes = struct.pack("<2Q", 2**64 - 1, 1) * self.fmt.size_arrays
        path.write_bytes(self.fmt.magic + struct.pack("<I", 2) + sizes
                         + struct.pack("<3Q", 1, 0, 1))
        with pytest.raises(FormatError):
            self.fmt.read(path)

    def test_layout_pinned(self, tmp_path):
        chain = self.fmt.sample(np.random.default_rng(3), (2, 3), (2,))
        want = layout_bytes(self.fmt.magic, self.fmt.size_arrays, chain.cores)
        path = tmp_path / "x.bin"
        self.fmt.write(chain, path)
        assert path.read_bytes() == want
        path.write_bytes(want)
        back = self.fmt.read(path)
        assert all(np.array_equal(a, b) for a, b in zip(chain.cores, back.cores))


class TestSerialization(_CorruptFiles):
    fmt = TTV1

    def test_tensor_roundtrip_bit_exact(self, rng, tmp_path):
        x = random_tt(rng, (2, 3, 4), (2, 3))
        path = tmp_path / "x.ttv1"
        tt_write(x, path)
        back = tt_read(path)
        assert all(np.array_equal(a, b) for a, b in zip(x.cores, back.cores))

    def test_matrix_roundtrip_bit_exact(self, rng, tmp_path):
        a = random_ttmat(rng, (2, 3), (4, 2), 3)
        path = tmp_path / "a.tmv1"
        ttmat_write(a, path)
        back = ttmat_read(path)
        assert all(np.array_equal(x, y) for x, y in zip(a.cores, back.cores))
        assert back.row_sizes == (2, 3) and back.col_sizes == (4, 2)

    def test_read_from_pipe(self, rng, tmp_path):
        # a pipe has no size to check a header against; it is read as before
        x = random_tt(rng, (2, 3), (2,))
        tt_write(x, tmp_path / "x.ttv1")
        fifo = tmp_path / "x.pipe"
        os.mkfifo(fifo)
        raw = (tmp_path / "x.ttv1").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
        writer.start()
        back = tt_read(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert all(np.array_equal(a, b) for a, b in zip(x.cores, back.cores))

    def test_oversized_header_from_pipe(self, tmp_path):
        # 2^65 payload bytes announced on a pipe: read in chunks until it ends
        fifo = tmp_path / "x.pipe"
        os.mkfifo(fifo)
        header = b"TTv1" + struct.pack("<I1Q2Q", 1, 2**62, 1, 1)
        writer = threading.Thread(target=fifo.write_bytes, args=(header + OVERSIZED_PAYLOAD,))
        writer.start()
        with pytest.raises(FormatError, match="truncated"):
            tt_read(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("modes, ranks", [
        ((2**62,), (1, 1)),  # 2^65 payload bytes: more than a read size can hold
        ((2**20, 2**20), (1, 2**30, 1)),  # 2^53 payload bytes: more than memory
    ])
    def test_oversized_header(self, tmp_path, modes, ranks):
        path = tmp_path / "x.ttv1"
        header = b"TTv1" + struct.pack(f"<I{len(modes)}Q{len(ranks)}Q", len(modes), *modes, *ranks)
        path.write_bytes(header + OVERSIZED_PAYLOAD)
        with pytest.raises(FormatError):
            tt_read(path)


class TestMatrixSerialization(_CorruptFiles):
    fmt = TMV1

    def test_oversized_header(self, tmp_path):
        # 2^32 x 2^32 entries: the count wraps to 0 in int64
        path = tmp_path / "a.tmv1"
        path.write_bytes(b"TMv1" + struct.pack("<I4Q", 1, 2**32, 2**32, 1, 1)
                         + OVERSIZED_PAYLOAD)
        with pytest.raises(FormatError):
            ttmat_read(path)
