import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from ttriem import ad, coreops, ttmanifold
from ttriem.bench import objective_suite
from ttriem.errors import (
    DegeneratePointError,
    DimensionError,
    InvalidPairError,
    InvalidTangentError,
)
from ttriem.matrix import FixedRankPoint
from ttriem.objectives import quadratic_form
from ttriem.oracles import dense_preconditioned_residual, dense_project, tangent_residual
from ttriem.tt import (
    TtTensor,
    orthogonalize,
    pad_ranks,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_axpy,
    tt_round,
    tt_scale,
    tt_to_dense,
    ttmat_apply,
    ttmat_identity,
    ttmat_to_dense,
)
from ttriem.ttmanifold import (
    TtTangent,
    _apply_gauge,
    _block_cores,
    _delta_seed,
    deltas_to_cores,
    hess_vec_tt,
    point_as_tangent,
    preconditioned_residual,
    project_tt,
    riemannian_grad_tt,
    tangent_axpy,
    tangent_dot_tt,
    tangent_scale,
    zero_tangent,
)

MODES = (2, 3, 2)


def all_ones(d=3, n=2):
    return TtTensor([np.ones((1, n, 1))] * d)


def quad_self_program(cores):
    return coreops.dot_cores(list(cores), list(cores))


def linear_program(f_cores):
    def program(cores):
        return coreops.dot_cores([c for c in f_cores], list(cores))

    return program


@pytest.fixture
def base(rng):
    return orthogonalize(random_tt(rng, MODES, (2, 2)))


class TestDeltasToCores:
    def test_point_recovery_seed(self, base):
        # deltas = (S_1, O, ..., O) parametrize the point itself
        deltas = [np.zeros(s.shape) for s in base.S]
        deltas[0] = base.S[0]
        out = deltas_to_cores(base, deltas)
        np.testing.assert_allclose(
            tt_to_dense(out), tt_to_dense(base.to_tt()), atol=1e-12
        )

    def test_zero_deltas(self, base):
        out = deltas_to_cores(base, [np.zeros(s.shape) for s in base.S])
        np.testing.assert_allclose(tt_to_dense(out), 0.0, atol=1e-14)

    def test_block_equals_term_sum(self, rng, base):
        deltas = [rng.standard_normal(s.shape) for s in base.S]
        block = tt_to_dense(deltas_to_cores(base, deltas))
        term_sum = np.zeros_like(block)
        for k in range(base.ndim):
            cores = list(base.U[:k]) + [deltas[k]] + list(base.V[k + 1:])
            term_sum += tt_to_dense(TtTensor(cores))
        np.testing.assert_allclose(block, term_sum, atol=1e-12)

    def test_ranks_exactly_doubled(self, base):
        out = deltas_to_cores(base, [np.zeros(s.shape) for s in base.S])
        assert out.ranks == (1, 4, 4, 1)

    def test_shape_mismatch(self, base):
        bad = [np.zeros(s.shape) for s in base.S]
        bad[1] = np.zeros((1, 1, 1))
        with pytest.raises(DimensionError):
            deltas_to_cores(base, bad)

    @pytest.mark.parametrize("count", [2, 4], ids=["d-1", "d+1"])
    def test_wrong_count(self, base, count):
        # one count check serves both callers
        deltas = [np.zeros(base.S[min(k, 2)].shape) for k in range(count)]
        with pytest.raises(DimensionError):
            deltas_to_cores(base, deltas)
        with pytest.raises(DimensionError):
            TtTangent(base, deltas)


class TestProject:
    def test_project_point_gives_center_last_delta(self, base):
        t = project_tt(base, base.to_tt())
        for d in t.deltas[:-1]:
            assert np.abs(d).max() < 1e-12
        np.testing.assert_allclose(t.deltas[-1], base.S[-1], atol=1e-12)

    def test_linearity_on_doubled_point(self, base):
        x = base.to_tt()
        t = project_tt(base, tt_axpy(1.0, x, x))
        np.testing.assert_allclose(
            tt_to_dense(t.materialize()), 2.0 * tt_to_dense(x), atol=1e-11
        )

    def test_matches_dense_oracle_and_idempotent(self, rng, base):
        z = random_tt(rng, MODES, (3, 3))
        t = project_tt(base, z)
        want = dense_project(base, tt_to_dense(z))
        np.testing.assert_allclose(tt_to_dense(t.materialize()), want, atol=1e-10)
        t2 = project_tt(base, t.materialize())
        assert tangent_residual(t2, t) < 1e-10

    def test_gauge_on_output(self, rng, base):
        t = project_tt(base, random_tt(rng, MODES, (2, 2)))
        assert max(t.gauge_residuals()) < 1e-10

    def test_dense_self_adjoint(self, rng, base):
        z = tt_to_dense(random_tt(rng, MODES, (2, 2)))
        w = tt_to_dense(random_tt(rng, MODES, (2, 2)))
        lhs = np.vdot(dense_project(base, z), w)
        rhs = np.vdot(z, dense_project(base, w))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_mode_mismatch(self, rng, base):
        with pytest.raises(DimensionError):
            project_tt(base, random_tt(rng, (2, 3, 3), (2, 2)))


class TestTangentValidation:
    def test_gross_gauge_violation_rejected(self, base):
        bad = [np.zeros(s.shape) for s in base.S]
        bad[0] = base.U[0].copy()  # fully inside the U range
        with pytest.raises(InvalidTangentError):
            TtTangent(base, bad)

    def test_cancelling_difference_of_huge_tangents(self, rng, base):
        # subtracting two nearly equal large-magnitude tangents collapses
        # the norm; the roundoff-level gauge residue of the result must not
        # be mistaken for a violation
        t = project_tt(base, random_tt(rng, MODES, (2, 2)))
        big = tangent_scale(1e12, t)
        fuzz = tangent_axpy(1e-9, project_tt(base, random_tt(rng, MODES, (2, 2))), big)
        diff = tangent_axpy(-1.0, big, fuzz)
        assert np.isfinite(diff.norm())

    def test_small_violation_regauged(self, rng, base):
        t = project_tt(base, random_tt(rng, MODES, (2, 2)))
        fuzzed = [d + 3e-9 * u if u is not None else d
                  for d, u in zip(t.deltas, base.U)]
        fixed = TtTangent(base, fuzzed)
        assert max(fixed.gauge_residuals()) < 1e-12

    def test_tiny_violation_regauged(self, rng, base):
        # every accepted input is projected, however small its residual
        t = project_tt(base, random_tt(rng, MODES, (2, 2)))
        fuzzed = [d + 3e-11 * u if u is not None else d
                  for d, u in zip(t.deltas, base.U)]
        assert 1e-12 < max(TtTangent._trusted(base, fuzzed).gauge_residuals()) < 1e-10
        fixed = TtTangent(base, fuzzed)
        assert fixed.ndim == 3 and max(fixed.gauge_residuals()) < 1e-12


class TestRiemannianGrad:
    def test_quadratic_on_all_ones(self):
        base = orthogonalize(all_ones())
        g = riemannian_grad_tt(quad_self_program, base)
        np.testing.assert_allclose(g.deltas[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(g.deltas[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(g.deltas[2].ravel(), [4.0, 4.0])
        np.testing.assert_allclose(
            tt_to_dense(g.materialize()), 2.0 * np.ones((2, 2, 2)), atol=1e-12
        )

    def test_linear_equals_projection(self, rng, base):
        f = random_tt(rng, MODES, (2, 2))
        g = riemannian_grad_tt(linear_program(list(f.cores)), base)
        want = project_tt(base, f)
        assert tangent_residual(g, want) < 1e-12

    def test_identity_operator_reduces_to_self_dot(self, base):
        obj = quadratic_form(ttmat_identity(MODES))
        g1 = riemannian_grad_tt(obj.evaluate, base)
        g2 = riemannian_grad_tt(quad_self_program, base)
        assert tangent_residual(g1, g2) < 1e-12

    def test_matches_dense_oracle(self, rng, base):
        a = random_symmetric_ttmat(rng, MODES, 2)
        obj = quadratic_form(a)
        g = riemannian_grad_tt(obj.evaluate, base)
        xd = tt_to_dense(base.to_tt())
        ad_ = ttmat_to_dense(a)
        want = dense_project(base, (2.0 * ad_ @ xd.ravel()).reshape(xd.shape))
        scale = max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(tt_to_dense(g.materialize()), want, atol=1e-10 * scale)

    def test_gauge_on_output(self, rng, base):
        a = random_symmetric_ttmat(rng, MODES, 2)
        g = riemannian_grad_tt(quadratic_form(a).evaluate, base)
        assert max(g.gauge_residuals()) < 1e-10


class TestHessVec:
    def test_quadratic_doubles(self, rng, base):
        z = project_tt(base, random_tt(rng, MODES, (2, 2)))
        h = hess_vec_tt(quad_self_program, base, z)
        for hk, zk in zip(h.deltas, z.deltas):
            np.testing.assert_allclose(hk, 2.0 * zk, atol=1e-11)

    def test_matches_dense_oracle(self, rng, base):
        a = random_symmetric_ttmat(rng, MODES, 2)
        z = project_tt(base, random_tt(rng, MODES, (2, 2)))
        h = hess_vec_tt(quadratic_form(a).evaluate, base, z)
        zd = tt_to_dense(z.materialize())
        want = dense_project(
            base, (2.0 * ttmat_to_dense(a) @ zd.ravel()).reshape(zd.shape)
        )
        scale = max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(tt_to_dense(h.materialize()), want, atol=1e-9 * scale)

    def test_symmetry(self, rng, base):
        a = random_symmetric_ttmat(rng, MODES, 2)
        obj = quadratic_form(a)
        z1 = project_tt(base, random_tt(rng, MODES, (2, 2)))
        z2 = project_tt(base, random_tt(rng, MODES, (2, 2)))
        h1 = hess_vec_tt(obj.evaluate, base, z1)
        h2 = hess_vec_tt(obj.evaluate, base, z2)
        lhs = tangent_dot_tt(h1, z2)
        rhs = tangent_dot_tt(z1, h2)
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)

    def test_output_is_projection_fixed_point(self, rng, base):
        a = random_symmetric_ttmat(rng, MODES, 2)
        z = project_tt(base, random_tt(rng, MODES, (2, 2)))
        h = hess_vec_tt(quadratic_form(a).evaluate, base, z)
        assert tangent_residual(project_tt(base, h.materialize()), h) < 1e-10

    def test_foreign_base_rejected(self, rng, base):
        other = orthogonalize(random_tt(rng, MODES, (2, 2)))
        z = project_tt(other, random_tt(rng, MODES, (2, 2)))
        with pytest.raises(InvalidTangentError):
            hess_vec_tt(quad_self_program, base, z)

    def test_base_differing_only_in_v_core_rejected(self, rng):
        # The TT form of X^T for X = U diag(1, 0) V^T with two U that differ
        # only in the zeroed column: U[0] and S[-1] agree, V[1] does not,
        # and so do the tangent spaces.
        u1 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        b1 = FixedRankPoint(u1, np.diag([1.0, 0.0]), v).ortho
        b2 = FixedRankPoint(u1 * [1.0, -1.0], np.diag([1.0, 0.0]), v).ortho
        z1 = project_tt(b1, random_tt(rng, (3, 4), 2))
        z2 = project_tt(b2, random_tt(rng, (3, 4), 2))
        with pytest.raises(InvalidTangentError):
            hess_vec_tt(quad_self_program, b2, z1)
        with pytest.raises(InvalidPairError):
            tangent_dot_tt(z1, z2)

    def test_consistency_with_fused_projection(self, rng, base):
        # For f = <A X, X> the Hessian map is Z -> P_X (2 A Z~): the same
        # linear action the preconditioned-residual machinery applies.
        a = random_symmetric_ttmat(rng, MODES, 2)
        z = project_tt(base, random_tt(rng, MODES, (2, 2)))
        h = hess_vec_tt(quadratic_form(a).evaluate, base, z)
        fused = project_tt(base, tt_scale(2.0, ttmat_apply(a, z.materialize())))
        assert tangent_residual(h, fused) < 1e-10

    def test_consistency_with_preconditioned_residual(self, rng, base):
        # Feeding the point itself (as a tangent) to the quadratic-form
        # Hessian gives 2 P_X (A X), i.e. twice the residual projection
        # with identity preconditioner and zero right-hand side.
        a = random_symmetric_ttmat(rng, MODES, 2)
        h = hess_vec_tt(quadratic_form(a).evaluate, base, point_as_tangent(base))
        zero_rhs = tt_scale(0.0, base.to_tt())
        resid = preconditioned_residual(a, ttmat_identity(MODES), zero_rhs, base)
        assert tangent_residual(h, tangent_axpy(1.0, resid, resid)) < 1e-10


class TestTangentDot:
    def test_zero_with_anything(self, rng, base):
        t = project_tt(base, random_tt(rng, MODES, (2, 2)))
        assert tangent_dot_tt(zero_tangent(base), t) == 0.0

    def test_all_ones_gradient_norm(self):
        base = orthogonalize(all_ones())
        g = riemannian_grad_tt(quad_self_program, base)
        # sum over S^delta_3 entries squared: 4^2 + 4^2 = 32 = ||2X||^2
        assert tangent_dot_tt(g, g) == pytest.approx(32.0, rel=1e-12)

    def test_matches_dense(self, rng, base):
        t1 = project_tt(base, random_tt(rng, MODES, (2, 2)))
        t2 = project_tt(base, random_tt(rng, MODES, (2, 2)))
        want = np.vdot(tt_to_dense(t1.materialize()), tt_to_dense(t2.materialize()))
        assert tangent_dot_tt(t1, t2) == pytest.approx(want, rel=1e-12)

    def test_base_mismatch(self, rng, base):
        other = orthogonalize(random_tt(rng, MODES, (2, 2)))
        t1 = project_tt(base, random_tt(rng, MODES, (2, 2)))
        t2 = project_tt(other, random_tt(rng, MODES, (2, 2)))
        with pytest.raises(InvalidPairError):
            tangent_dot_tt(t1, t2)


class TestPreconditionedResidual:
    def test_identity_everything_returns_point(self, rng, base):
        eye = ttmat_identity(MODES)
        zero = tt_scale(0.0, base.to_tt())
        t = preconditioned_residual(eye, eye, zero, base)
        np.testing.assert_allclose(
            tt_to_dense(t.materialize()), tt_to_dense(base.to_tt()), atol=1e-11
        )

    def test_b_identity_matches_energy_gradient(self, rng, base):
        # with B = I and symmetric A this is the Riemannian gradient of
        # 0.5 <A X, X> - <F, X>
        a = random_symmetric_ttmat(rng, MODES, 2)
        f = random_tt(rng, MODES, (2, 2))
        t = preconditioned_residual(a, ttmat_identity(MODES), f, base)

        def energy(cores):
            from ttriem import ad

            ax = coreops.matvec_cores(list(a.cores), list(cores))
            return ad.sub(
                ad.mul(coreops.dot_cores(ax, list(cores)), 0.5),
                coreops.dot_cores([c for c in f.cores], list(cores)),
            )

        g = riemannian_grad_tt(energy, base)
        assert tangent_residual(t, g) < 1e-10

    def test_noncommuting_vs_dense_oracle(self, rng, base):
        a = random_ttmat(rng, MODES, MODES, 2)
        b = random_ttmat(rng, MODES, MODES, 2)
        f = random_tt(rng, MODES, (2, 2))
        ad_, bd = ttmat_to_dense(a), ttmat_to_dense(b)
        assert np.abs(ad_ @ bd - bd @ ad_).max() > 1e-6  # genuinely non-commuting
        t = preconditioned_residual(a, b, f, base)
        want = dense_preconditioned_residual(a, b, f, base)
        scale = max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(tt_to_dense(t.materialize()), want, atol=1e-9 * scale)

    def test_gauge_on_output(self, rng, base):
        a = random_ttmat(rng, MODES, MODES, 2)
        b = random_ttmat(rng, MODES, MODES, 2)
        f = random_tt(rng, MODES, (2, 2))
        t = preconditioned_residual(a, b, f, base)
        assert max(t.gauge_residuals()) < 1e-10

    def test_mode_mismatch(self, rng, base):
        a = random_ttmat(rng, (2, 3, 3), (2, 3, 3), 2)
        with pytest.raises(DimensionError):
            preconditioned_residual(a, a, random_tt(rng, (2, 3, 3), (2, 2)), base)

    @pytest.mark.parametrize("wrong", ["a_rows", "a_cols", "b_rows", "b_cols", "f"])
    def test_each_operand_mismatch_raises(self, rng, base, wrong):
        # the core sweeps check every operand; one of them at a time is off
        other = (2, 3, 3)
        rows_a, cols_a, rows_b, cols_b, f_modes = [
            other if wrong == name else MODES
            for name in ("a_rows", "a_cols", "b_rows", "b_cols", "f")
        ]
        a = random_ttmat(rng, rows_a, cols_a, 2)
        b = random_ttmat(rng, rows_b, cols_b, 2)
        f = random_tt(rng, f_modes, (2, 2))
        with pytest.raises(DimensionError):
            preconditioned_residual(a, b, f, base)


class TestPointAsTangent:
    def test_materializes_to_point(self, base):
        t = point_as_tangent(base)
        np.testing.assert_allclose(
            tt_to_dense(t.materialize()), tt_to_dense(base.to_tt()), atol=1e-12
        )


class TestOrderOne:
    def test_general_sweeps_cover_one_mode(self, rng):
        # orthogonalize, tt_round and project_tt run their general sweeps
        x, z = random_tt(rng, (5,), ()), random_tt(rng, (5,), ())
        base = orthogonalize(x)
        assert base.U == (None,) and base.V == (None,)
        np.testing.assert_array_equal(base.S[0], x.cores[0])
        for tol in (0.0, 0.5):
            np.testing.assert_array_equal(tt_round(x, [], tol).cores[0], x.cores[0])
        t = project_tt(base, z)  # the tangent space at a 1-mode point is everything
        assert t.ndim == 1
        np.testing.assert_array_equal(t.deltas[0], z.cores[0])
        np.testing.assert_array_equal(t.materialize().cores[0], z.cores[0])


def inner_gauged_hess_vec(p, base, z):
    """The HVP with its inner gradient gauged on the tape: one recorded
    projection pass before the dot with z."""
    tape = ad.Tape()
    rvars = [tape.input(v) for v in _delta_seed(base)]
    inner = ad.grad(tape, p(_block_cores(base, rvars)), rvars, as_vars=True)
    for k in range(base.ndim - 1):
        rl, n, rr = base.U[k].shape
        ul = base.U[k].reshape(rl * n, rr)
        dk = ad.reshape(inner[k], (rl * n, rr))
        dk = ad.sub(dk, ad.contract(ul, ad.contract(ul, dk, [(0, 0)]), [(1, 0)]))
        inner[k] = ad.reshape(dk, (rl, n, rr))
    w = ad.contract(inner[0], z.deltas[0], [(0, 0), (1, 1), (2, 2)])
    for g, dz in zip(inner[1:], z.deltas[1:]):
        w = ad.add(w, ad.contract(g, dz, [(0, 0), (1, 1), (2, 2)]))
    raw = ad.grad(tape, w, rvars)
    return TtTangent._trusted(base, _apply_gauge(base, raw))


def double_projection(base, deltas):
    """The per-mode double gauge projection, written out as one loop."""
    out = list(deltas)
    for k in range(base.ndim - 1):
        u = base.U[k]
        rl, n, rr = u.shape
        ul = u.reshape(rl * n, rr)
        dk = out[k].reshape(rl * n, rr)
        dk = dk - ul @ (ul.T @ dk)
        dk = dk - ul @ (ul.T @ dk)
        out[k] = dk.reshape(rl, n, rr)
    return out


def nearly_gauged_tangent(rng, base):
    """A TtTangent built from deltas whose gauge residual is just below the
    1e-8 rejection threshold."""
    deltas = list(project_tt(base, random_tt(rng, base.mode_sizes, 2)).deltas)
    for k, u in enumerate(base.U[:-1]):
        scale = max(1.0, np.linalg.norm(deltas[k])) / np.sqrt(u.shape[2])
        deltas[k] = deltas[k] + 0.9e-8 * scale * u
    worst = max(TtTangent._trusted(base, deltas).gauge_residuals())
    assert 5e-9 < worst < 1e-8
    return TtTangent(base, deltas)


def delta_distance(got, want):
    num = sum(np.sum((g - w) ** 2) for g, w in zip(got.deltas, want.deltas))
    den = sum(np.sum(w ** 2) for w in want.deltas)
    return float(np.sqrt(num / den))


HVP_MODES = (3, 4, 3)


def hvp_base(rng, padded):
    """A base point on HVP_MODES at rank 2, or a rank-1 tensor padded to it."""
    x = random_tt(rng, HVP_MODES, 1 if padded else 2)
    return orthogonalize(pad_ranks(x, 2) if padded else x)


class TestUngaugedInnerGradient:
    # The HVP dots the inner gradient G with z without gauging it: z is
    # gauged and the projection P is self-adjoint, so <P G, z> = <G, z>.

    @pytest.mark.parametrize("padded", [False, True], ids=["regular", "over-ranked"])
    def test_matches_inner_gauged_reference(self, rng, padded):
        base = hvp_base(rng, padded)
        z = nearly_gauged_tangent(rng, base)
        for obj in objective_suite(rng, HVP_MODES, 2):
            got = hess_vec_tt(obj.evaluate, base, z)
            want = inner_gauged_hess_vec(obj.evaluate, base, z)
            assert delta_distance(got, want) <= 1e-13, obj.name

    def test_dot_with_z_is_the_only_record_after_inner_sweep(self, rng, monkeypatch):
        base = hvp_base(rng, False)
        z = project_tt(base, random_tt(rng, HVP_MODES, 2))
        obj = objective_suite(rng, HVP_MODES, 2)[0]
        after_inner, between = [], []
        sweep = ad.grad

        def marking_grad(tape, output, wrt, as_vars=False):
            if not as_vars:
                between.append(Counter(n.op for n in tape.nodes[after_inner[0]:]))
            out = sweep(tape, output, wrt, as_vars=as_vars)
            if as_vars:
                after_inner.append(len(tape))
            return out

        monkeypatch.setattr(ad, "grad", marking_grad)
        hess_vec_tt(obj.evaluate, base, z)
        d = base.ndim
        assert between == [Counter({"contract": d, "add_n": 1})]

    @pytest.mark.parametrize("padded", [False, True], ids=["regular", "over-ranked"])
    def test_apply_gauge_is_the_double_projection(self, rng, padded):
        base = hvp_base(rng, padded)
        deltas = [rng.standard_normal(s.shape) for s in base.S]
        # dominated by the U range, where the second pass matters
        deltas[0] = deltas[0] * 1e-9 + base.U[0]
        for got, want in zip(_apply_gauge(base, deltas), double_projection(base, deltas)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestConstantsStayOffTape:
    # Only what depends on the delta inputs is recorded: the base factors,
    # operator cores and observations stay plain arrays.

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_constant_objective_gives_zero_tangent(self, rng, hvp):
        base = hvp_base(rng, False)
        z = project_tt(base, random_tt(rng, HVP_MODES, 2))

        def constant(cores):
            return 1.0

        t = hess_vec_tt(constant, base, z) if hvp else riemannian_grad_tt(constant, base)
        for got, s in zip(t.deltas, base.S):
            assert got.shape == s.shape and not got.any()

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_every_node_depends_on_an_input(self, rng, monkeypatch, hvp):
        base = hvp_base(rng, False)
        z = project_tt(base, random_tt(rng, HVP_MODES, 2))
        snapshots = []
        sweep = ad.grad

        def snapshot_grad(tape, *args, **kwargs):
            # The tape is cleared (its nodes unlinked) on return, so each
            # node is read as the sweep starts.  The outer HVP sweep appends
            # no node: the last snapshot holds the inner sweep and the dot
            # with z.
            snapshots.append([(node, node.op, any(isinstance(p, ad.Var) for p in node.parents))
                              for node in tape.nodes])
            return sweep(tape, *args, **kwargs)

        monkeypatch.setattr(ad, "grad", snapshot_grad)
        programs = {obj.name: obj.evaluate for obj in objective_suite(rng, HVP_MODES, 2)}
        for name, program in programs.items():
            snapshots.clear()
            if hvp:
                hess_vec_tt(program, base, z)
            else:
                riemannian_grad_tt(program, base)
            self.check_nodes(snapshots[-1], name)
        if not hvp:
            a, b = (random_ttmat(rng, HVP_MODES, HVP_MODES, 2) for _ in range(2))
            snapshots.clear()
            preconditioned_residual(a, b, random_tt(rng, HVP_MODES, 2), base)
            self.check_nodes(snapshots[-1], "preconditioned_residual")

    @staticmethod
    def check_nodes(snapshot, name):
        assert snapshot, name
        for node, op, has_var_parent in snapshot:
            assert op not in ("const", "stop_gradient"), (name, node)
            assert op == "input" or has_var_parent, (name, node)


class TestTapesFreedOnReturn:
    # A tape is a reference cycle; the manifold routines clear theirs, so
    # its arrays are freed when the call returns, not by the collector.
    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_tapes_freed_without_collector(self, rng, monkeypatch, hvp):
        base = hvp_base(rng, False)
        z = project_tt(base, random_tt(rng, HVP_MODES, 2))
        tapes = []
        sweep = ad.grad

        def tracking_grad(tape, *args, **kwargs):
            tapes.append(weakref.ref(tape))
            return sweep(tape, *args, **kwargs)

        monkeypatch.setattr(ad, "grad", tracking_grad)
        for obj in objective_suite(rng, HVP_MODES, 2):
            tapes.clear()
            gc.disable()
            try:
                if hvp:
                    hess_vec_tt(obj.evaluate, base, z)
                else:
                    riemannian_grad_tt(obj.evaluate, base)
                assert tapes and all(t() is None for t in tapes), obj.name
            finally:
                gc.enable()

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_tape_freed_when_program_raises(self, rng, hvp):
        # A program that raises, as the Rayleigh quotient does at a
        # degenerate point, leaves no tape for the collector either.
        base = hvp_base(rng, False)
        z = project_tt(base, random_tt(rng, HVP_MODES, 2))
        tapes = []

        def program(cores):
            tapes.append(weakref.ref(cores[0].tape))
            raise DegeneratePointError("the program raised")

        gc.disable()
        try:
            try:
                if hvp:
                    hess_vec_tt(program, base, z)
                else:
                    riemannian_grad_tt(program, base)
            except DegeneratePointError:
                pass
            assert len(tapes) == 1 and tapes[0]() is None
        finally:
            gc.enable()


class TestPointSetup:
    # What a gradient or HVP derives from its point alone (the seed, the
    # seed block cores and the stacked gauge factors) is made once per
    # point and freed with it.
    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_repeated_calls_reuse_the_seed_block_cores(self, rng, monkeypatch, hvp):
        base = orthogonalize(random_tt(rng, (3, 4, 4, 3), 2))
        z = project_tt(base, random_tt(rng, base.mode_sizes, 2))
        obj = objective_suite(rng, base.mode_sizes, 2)[0]
        seen = []

        def program(cores):
            seen.append([c.value for c in cores])
            return obj.evaluate(cores)

        gauges = []
        gauge = ttmanifold._tape_gauge
        monkeypatch.setattr(ttmanifold, "_tape_gauge",
                            lambda *args: gauges.append(1) or gauge(*args))
        results = []
        for _ in range(4):  # eager, recorded, then replayed twice
            gauges.clear()
            results.append(hess_vec_tt(program, base, z) if hvp
                           else riemannian_grad_tt(program, base))
            assert len(gauges) == 2
        assert all(got is want for values in seen[1:] for got, want in zip(values, seen[0]))
        assert not any(v.flags.writeable for v in seen[0])
        for t in results[1:]:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(t.deltas, results[0].deltas))

    def test_seed_block_cores_match_a_fresh_block_core(self, rng):
        base = orthogonalize(random_tt(rng, (3, 4, 4, 3), 2))
        kept = _block_cores(base, _delta_seed(base))
        again = _block_cores(base, _delta_seed(base))
        fresh = _block_cores(base, [d.copy() for d in _delta_seed(base)])
        for k, (a, b, c) in enumerate(zip(kept, again, fresh)):
            assert a is b and c is not a
            assert a.tobytes() == c.tobytes() and ad._mask_of(a) == ad._mask_of(c), k

    def test_setup_freed_with_point_without_collector(self, rng):
        def make():
            base = orthogonalize(random_tt(rng, (3, 4, 4, 3), 2))
            return base, project_tt(base, random_tt(rng, base.mode_sizes, 2))

        obj = objective_suite(rng, (3, 4, 4, 3), 2)[0]
        values = []

        def program(cores):
            values.extend(weakref.ref(c.value) for c in cores)
            return obj.evaluate(cores)

        gc.disable()
        try:
            points = len(ttmanifold._seeds), len(ttmanifold._gauges)
            base, z = make()
            out = [riemannian_grad_tt(program, base), hess_vec_tt(program, base, z)]
            made = [weakref.ref(d) for d in _delta_seed(base)]
            made += [weakref.ref(u) for _, u, _ in ttmanifold._gauges[base]]
            made += values
            point = weakref.ref(base)
            del base, z, out
            assert point() is None
            assert all(r() is None for r in made)
            assert (len(ttmanifold._seeds), len(ttmanifold._gauges)) == points
        finally:
            gc.enable()
