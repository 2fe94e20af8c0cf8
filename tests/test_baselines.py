import tracemalloc

import numpy as np
import pytest

from ttriem import ad, baselines, coreops, objectives
from ttriem.baselines import (
    ad_grad,
    ad_hvp,
    compute_method,
    demo_complete,
    demo_eigen,
    demo_solve,
    naive_grad,
    naive_hvp,
    optimized_grad,
    optimized_hvp,
    project_matvec,
    project_rank1_sum,
    project_sparse,
    riemannian_gd_demo,
)
from ttriem.bench import (
    FUNCTIONS,
    BenchConfig,
    bench_run,
    complexity_ratios,
    make_instance,
    sample_indices,
)
from ttriem.errors import DimensionError, UnavailableMethodError
from ttriem.objectives import (
    IndexSet,
    Objective,
    completion_loss,
    expmachines_loss,
    gram_quadratic_form,
    quadratic_form,
    rayleigh_quotient,
    regularized_completion,
)
from ttriem.oracles import method_residuals, tangent_residual
from ttriem.tt import (
    MuOrthogonal,
    TtTensor,
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_weighted_sum,
    ttmat_apply,
    ttmat_identity,
)
from ttriem.ttmanifold import project_tt, tangent_scale

MODES = (3, 2, 3)


@pytest.fixture
def instance(rng):
    x = random_tt(rng, MODES, 2)
    base = orthogonalize(x)
    z = project_tt(base, random_tt(rng, MODES, 2))
    return base, z


class TestNaive:
    def test_identity_quadratic_matches_ad(self, instance):
        base, _ = instance
        obj = quadratic_form(ttmat_identity(MODES))
        assert tangent_residual(naive_grad(obj, base), ad_grad(obj, base)) < 1e-12

    def test_rayleigh_identity_zero_gradient(self, instance):
        base, _ = instance
        obj = rayleigh_quotient(ttmat_identity(MODES))
        assert naive_grad(obj, base).norm() < 1e-12

    def test_random_quadratic_residual(self, rng, instance):
        base, z = instance
        obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
        assert tangent_residual(naive_grad(obj, base), ad_grad(obj, base)) < 1e-8
        assert tangent_residual(naive_hvp(obj, base, z), ad_hvp(obj, base, z)) < 1e-8

    def test_unavailable_without_analytic_gradient(self, instance):
        base, _ = instance
        bare = Objective(name="opaque", evaluate=lambda cores: 0.0)
        with pytest.raises(UnavailableMethodError):
            naive_grad(bare, base)


class TestOptimized:
    def test_identity_quadratic_identical_tangent(self, instance):
        base, _ = instance
        obj = quadratic_form(ttmat_identity(MODES))
        assert tangent_residual(optimized_grad(obj, base), ad_grad(obj, base)) < 1e-12

    def test_completion_sum_of_rank_one_projections(self, rng, instance):
        base, z = instance
        idx = sample_indices(np.random.default_rng(0), MODES, 12)
        obj = completion_loss(IndexSet(idx, rng.standard_normal(len(idx))))
        assert tangent_residual(optimized_grad(obj, base), ad_grad(obj, base)) < 1e-8
        assert tangent_residual(optimized_hvp(obj, base, z), ad_hvp(obj, base, z)) < 1e-8

    def test_expmachines_weighted_projections(self, rng, instance):
        base, z = instance
        ws = [random_tt(rng, MODES, 1) for _ in range(4)]
        obj = expmachines_loss(ws, [1.0, -1.0, -1.0, 1.0])
        assert tangent_residual(optimized_grad(obj, base), ad_grad(obj, base)) < 1e-8
        assert tangent_residual(optimized_hvp(obj, base, z), ad_hvp(obj, base, z)) < 1e-8

    @pytest.mark.parametrize("build", [quadratic_form, rayleigh_quotient])
    @pytest.mark.parametrize("method", ["ad", "naive", "optimized"])
    @pytest.mark.parametrize("op", ["grad", "hvp"])
    def test_operator_mode_mismatch(self, rng, instance, build, method, op):
        base, z = instance
        obj = build(random_symmetric_ttmat(rng, (2, 2, 2), 2))
        with pytest.raises(DimensionError):
            compute_method(obj, method, op, base, z)

    def test_gram_unavailable(self, rng, instance):
        base, z = instance
        obj = gram_quadratic_form(random_ttmat(rng, MODES, MODES, 2))
        with pytest.raises(UnavailableMethodError):
            optimized_grad(obj, base)
        with pytest.raises(UnavailableMethodError):
            optimized_hvp(obj, base, z)


def rank1_sum(mode_vectors, coeffs):
    """sum_n c_n (v_n^0 o v_n^1 o ...) in TT form, one rank-1 term at a time."""
    terms = [
        TtTensor([vk[n][None, :, None] for vk in mode_vectors]) for n in range(len(coeffs))
    ]
    return tt_weighted_sum(list(coeffs), terms)


class TestFusedProjections:
    """Each fused projection against project_tt of its input in TT form."""

    def test_matvec_rectangular_operator(self, rng, instance):
        base, _ = instance
        in_modes = (2, 4, 3)  # differ from the output modes MODES
        a = random_ttmat(rng, MODES, in_modes, 3)
        y = random_tt(rng, in_modes, (3, 4))  # ranks differ from the base's 2
        want = project_tt(base, ttmat_apply(a, y))
        assert tangent_residual(project_matvec(a, y, base), want) < 1e-10

    @pytest.mark.parametrize("rows,cols", [((2, 4, 3), (2, 4, 3)), (MODES, MODES)])
    def test_matvec_mode_mismatch(self, rng, instance, rows, cols):
        # rows must be the point's modes, columns the modes of Y
        base, _ = instance
        a = random_ttmat(rng, rows, cols, 2)
        with pytest.raises(DimensionError):
            project_matvec(a, random_tt(rng, (2, 4, 3), 2), base)

    @pytest.mark.parametrize("n_terms", [1, 7])  # 7 exceeds every mode size
    def test_rank1_sum(self, rng, instance, n_terms):
        base, _ = instance
        vectors = [rng.standard_normal((n_terms, n)) for n in MODES]
        coeffs = rng.standard_normal(n_terms)
        want = project_tt(base, rank1_sum(vectors, coeffs))
        assert tangent_residual(project_rank1_sum(base, vectors, coeffs), want) < 1e-10

    def test_sparse_repeated_and_unobserved_slices(self, rng, instance):
        base, _ = instance
        # Mode 1 repeats index 0 four times, slice 1 of mode 0 is never
        # observed, and entry (2, 0, 1) appears twice, so its weights add.
        idx = np.array([[0, 0, 0], [2, 0, 1], [0, 1, 2], [2, 0, 1], [0, 0, 2]])
        w = rng.standard_normal(len(idx))
        units = [np.eye(n)[idx[:, k]] for k, n in enumerate(MODES)]
        want = project_tt(base, rank1_sum(units, w))
        assert tangent_residual(project_sparse(base, idx, w), want) < 1e-10

    @pytest.mark.parametrize("modes,count,split", [
        ((5,), 4, None), ((4, 3), 9, (1, 1)), ((3, 6, 4), 11, (1, 2)),
        ((3, 2, 4, 2, 3, 2), 25, (3, 3)), ((3, 6, 4), 0, (1, 2)),
        ((2, 3, 6, 6, 3, 2), 20, (2, 4)), ((30, 30, 30, 30), 100, (1, 3)),
        ((40, 3, 2), 10, (1, 1)), ((4, 5, 3, 4, 3, 5), 200, (3, 3)),
    ], ids=["d1", "d2", "d3", "d6", "no_samples", "tables_and_sweep",
            "boundary_cores_and_sweep", "boundary_mode_wider_than_N", "tables_meet_d6"])
    def test_sparse_against_one_hot_rank1_sum(self, rng, modes, count, split):
        # The table walks and the swept modes against the rank-1-sum
        # projection of the one-hot rows the sparse projection used to
        # build; the last value of each mode with more than two is never
        # observed, and entries may repeat.  The split (a, b) of the chain
        # is asserted, so each case reaches what its name says: prefix
        # tables of modes 0..a-1, suffix tables of b..d-1, a..b-1 swept.
        if split is not None:
            assert coreops._table_split(list(modes), count) == split
        base = orthogonalize(random_tt(rng, modes, 2 if len(modes) > 1 else 1))
        idx = np.stack([rng.integers(0, max(n - 1, 2), count) for n in modes], axis=1)
        w = rng.standard_normal(count)
        want = project_rank1_sum(base, objectives._unit_vectors(idx, modes), w)
        assert tangent_residual(project_sparse(base, idx, w), want) <= 1e-13

    @pytest.mark.parametrize("bad,match", [
        ([[-1, 0, 0]], "range in mode 0"), ([[0, 2, 0]], "range in mode 1"),
        ([[0, 0, 3]], "range in mode 2"), ([[0.5, 0, 0]], "non-integral .* in mode 0"),
        ([[0, 0, np.nan]], "non-integral .* in mode 2"),
    ], ids=["negative", "too_large", "last_mode", "fraction", "nan"])
    def test_sparse_rejects_bad_indices(self, instance, bad, match):
        # A negative index used to wrap round to the last slice and 0.5 to
        # read slice 0.
        base, _ = instance
        with pytest.raises(IndexError, match=match):
            project_sparse(base, np.array(bad), np.ones(1))

    def test_rank1_sum_without_terms_is_zero(self, instance):
        base, _ = instance
        vectors = [np.zeros((0, n)) for n in MODES]
        assert project_rank1_sum(base, vectors, np.zeros(0)).norm() == 0.0


class TestCompletionEdgeCases:
    """Empty and single-mode observation sets through every pipeline, and
    two at full size: the benchmark's completion shape, whose 512-row
    prefix and suffix tables meet, and one that sweeps modes 2 and 3 as
    rows.  Above ``NAIVE_RANK_CAP`` observations the naive method's rank-N
    sum is unavailable."""

    @pytest.mark.parametrize("modes, idx, rank, split", [
        (MODES, np.zeros((0, 3), dtype=int), 2, (1, 2)),
        ((5,), np.zeros((0, 1), dtype=int), 1, None),
        ((5,), np.array([[0], [3], [4]]), 1, None),
        ((8,) * 6, sample_indices(np.random.default_rng(0), (8,) * 6, 12000), 5, (3, 3)),
        ((8,) * 6, sample_indices(np.random.default_rng(1), (8,) * 6, 300), 5, (2, 4)),
    ], ids=["empty", "empty_single_mode", "single_mode", "bench_tables_meet", "swept_middle"])
    @pytest.mark.parametrize("op", ["grad", "hvp"])
    def test_naive_and_optimized_match_ad(self, rng, modes, idx, rank, split, op):
        if split is not None:
            assert coreops._table_split(list(modes), len(idx)) == split
        base = orthogonalize(random_tt(rng, modes, rank))
        z = project_tt(base, random_tt(rng, modes, rank))
        omega = IndexSet(idx, rng.standard_normal(len(idx)))
        for obj in (completion_loss(omega), regularized_completion(omega, 0.7)):
            want = compute_method(obj, "ad", op, base, z)
            for method in ("naive", "optimized"):
                if method == "naive" and len(idx) > objectives.NAIVE_RANK_CAP:
                    with pytest.raises(UnavailableMethodError):
                        compute_method(obj, method, op, base, z)
                    continue
                got = compute_method(obj, method, op, base, z)
                assert tangent_residual(got, want) <= 1e-12, (obj.name, method)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("op", ["grad", "hvp"])
    def test_pairwise_residuals(self, rng, instance, op):
        base, z = instance
        idx = sample_indices(np.random.default_rng(1), MODES, 10)
        objectives = [
            quadratic_form(random_symmetric_ttmat(rng, MODES, 2)),
            gram_quadratic_form(random_ttmat(rng, MODES, MODES, 2)),
            rayleigh_quotient(random_symmetric_ttmat(rng, MODES, 2)),
            completion_loss(IndexSet(idx, rng.standard_normal(len(idx)))),
            expmachines_loss([random_tt(rng, MODES, 1) for _ in range(3)],
                             [1.0, -1.0, 1.0]),
            regularized_completion(IndexSet(idx, rng.standard_normal(len(idx))), 0.6),
        ]
        for obj in objectives:
            pairs = method_residuals(obj, op, base, z)
            assert any("ad" in pair for pair in pairs)
            for pair, rel in pairs.items():
                assert rel < 1e-8, (obj.name, pair, rel)

    def test_scaled_fused_projection_is_caught(self, rng, instance, monkeypatch):
        # One part in a million off in the optimized qf pipeline must break
        # the 1e-8 bound of acceptance criterion 1 and of `ttriem check`.
        base, z = instance
        fused = baselines.project_matvec
        monkeypatch.setattr(baselines, "project_matvec",
                            lambda a, y, x: tangent_scale(1.0 + 1e-6, fused(a, y, x)))
        pairs = method_residuals(quadratic_form(random_symmetric_ttmat(rng, MODES, 2)),
                                 "grad", base, z)
        assert pairs[("ad", "optimized")] > 1e-8
        assert pairs[("ad", "naive")] < 1e-12


class TestGdDemo:
    def test_solve_monotone(self):
        _, history = demo_solve(steps=15, step_size=0.1)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_eigen_reaches_smallest_eigenvalue(self):
        _, history, lam = demo_eigen()
        assert history[-1] - lam < 1e-6

    def test_complete_drives_loss_down(self):
        _, history = demo_complete(steps=200)
        assert min(history) < 1e-6
        assert next(i for i, v in enumerate(history) if v < 1e-6) <= 200

    def test_divergence_warns_not_raises(self, rng):
        obj = quadratic_form(ttmat_identity(MODES))
        x0 = random_tt(rng, MODES, 2)
        with pytest.warns(RuntimeWarning):
            riemannian_gd_demo(obj, x0, steps=8, step_size=5.0, max_rank=2)


class TestBench:
    def test_same_seed_same_instance(self):
        # completion and expmach have no operator; their value at the base
        # cores pins the observations and the machines.
        for function in FUNCTIONS:
            cfg = BenchConfig(function, "ad", "grad", d=3, n=3, rx=2, rz=2, ra=2, seed=11)
            obj1, base1, z1 = make_instance(cfg)
            obj2, base2, z2 = make_instance(cfg)
            assert all(np.array_equal(a, b) for a, b in zip(base1.S, base2.S))
            assert all(np.array_equal(a, b) for a, b in zip(z1.deltas, z2.deltas))
            point = list(base1.to_tt().cores)
            assert np.array_equal(obj1.evaluate(point), obj2.evaluate(point)), function
            if obj1.operator is not None:
                assert all(np.array_equal(a, b)
                           for a, b in zip(obj1.operator.cores, obj2.operator.cores))

    def test_instance_hvps_non_zero_and_finite(self):
        # A base point of large norm (1e6 and up for an unnormalized one at
        # d=8) saturates every expmach margin and makes the HVP exactly zero.
        for function in FUNCTIONS:
            objective, base, z = make_instance(
                BenchConfig(function, "ad", "hvp", d=8, n=8, rx=5, rz=5, ra=5))
            hvp = np.concatenate([d.ravel() for d in ad_hvp(objective, base, z).deltas])
            assert np.all(np.isfinite(hvp)) and np.any(hvp), function

    def test_single_trial_zero_std(self):
        cfg = BenchConfig("qf", "ad", "grad", d=3, n=2, rx=2, rz=2, ra=2, trials=1)
        (rec,) = bench_run(cfg)
        assert rec.seconds_std == 0.0

    @pytest.mark.parametrize("op", ["grad", "hvp"])
    def test_timed_ad_calls_replay(self, op):
        # The second warm-up call records the sweeps, so even the one timed
        # call of a single trial replays them.
        cfg = BenchConfig("qf", "ad", op, d=3, n=2, rx=2, rz=2, ra=2, trials=1)
        before = sum(ad.replayed.values())
        bench_run(cfg)
        assert sum(ad.replayed.values()) > before

    def test_ad_vs_naive_residual_column(self):
        cfg = BenchConfig("qf", "naive", "grad", d=3, n=3, rx=2, rz=2, ra=2, trials=2)
        (rec,) = bench_run(cfg)
        assert rec.available and rec.residual_vs_ad < 1e-8

    def test_unavailable_is_dash_row(self):
        cfg = BenchConfig("gram", "optimized", "grad", d=3, n=2, rx=2, rz=2, ra=2)
        (rec,) = bench_run(cfg)
        assert not rec.available
        row = rec.row()
        assert row["seconds_mean"] == "" and row["residual_vs_ad"] == ""

    def test_completion_naive_unavailable_at_bench_scale(self):
        # |Omega| = 10 d n rx^2 exceeds the naive rank cap here
        cfg = BenchConfig("completion", "naive", "grad", d=4, n=8, rx=4, rz=4, ra=1)
        (rec,) = bench_run(cfg)
        assert not rec.available

    def test_sample_indices_distinct_and_in_range(self):
        idx = sample_indices(np.random.default_rng(3), (3, 4, 5), 25)
        assert len(np.unique(idx, axis=0)) == len(idx) == 25
        assert idx[:, 0].max() < 3 and idx[:, 1].max() < 4 and idx[:, 2].max() < 5

    def test_sample_indices_clipped_to_total(self):
        idx = sample_indices(np.random.default_rng(3), (2, 2), 100)
        assert len(idx) == 4

    def test_sample_indices_beyond_dense_draw(self):
        # 2.5e7 entries: one choice without replacement, as for small ones
        idx = sample_indices(np.random.default_rng(3), (5000, 5000), 40)
        assert len(np.unique(idx, axis=0)) == len(idx) == 40
        assert idx.min() >= 0 and idx.max() < 5000

    def test_sample_indices_memory_independent_of_population(self):
        # 1e10 entries: a draw that permuted the range would need 80 GB
        sample_indices(np.random.default_rng(2), (100000, 100000), 40)  # warm-up
        tracemalloc.start()
        try:
            idx = sample_indices(np.random.default_rng(3), (100000, 100000), 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(np.unique(idx, axis=0)) == len(idx) == 40


class TestCostRatioSpot:
    def test_small_rank_ratio_bounded(self):
        res = complexity_ratios(d=4, n=6, rank=4, op_rank=3, trials=5)
        assert res["grad_over_eval"] <= 10.0
        assert res["hvp_over_eval"] <= 25.0


class TestObjectiveHooks:
    def test_custom_optimized_hooks_are_called(self, instance):
        base, z = instance
        grad_out, hvp_out = object(), object()
        calls = []
        custom = Objective(
            name="custom",
            evaluate=lambda cores: 0.0,
            optimized_grad=lambda b: calls.append(("grad", b)) or grad_out,
            optimized_hvp=lambda b, d: calls.append(("hvp", b, d)) or hvp_out,
        )
        assert optimized_grad(custom, base) is grad_out
        assert optimized_hvp(custom, base, z) is hvp_out
        assert compute_method(custom, "optimized", "grad", base) is grad_out
        assert compute_method(custom, "optimized", "hvp", base, z) is hvp_out
        assert [c[0] for c in calls] == ["grad", "hvp", "grad", "hvp"]
        assert all(c[1] is base for c in calls)
        assert calls[1][2] is z and calls[3][2] is z
        # A plain TT point reaches the hook as a mu-orthogonal base.
        assert optimized_grad(custom, base.to_tt()) is grad_out
        assert isinstance(calls[-1][1], MuOrthogonal)

    def test_bare_objective_reports_missing_hooks(self, instance):
        base, z = instance
        bare = Objective(name="opaque", evaluate=lambda cores: 0.0)
        v = np.zeros(MODES)
        for call in (
            lambda: optimized_grad(bare, base),
            lambda: optimized_hvp(bare, base, z),
            lambda: bare.hook("dense_value"),
            lambda: bare.hook("dense_grad")(v),
            lambda: bare.hook("dense_hess_vec")(v, v),
        ):
            with pytest.raises(UnavailableMethodError, match="opaque"):
                call()

    def test_construction_never_densifies(self, rng, monkeypatch):
        import ttriem.objectives as objectives

        def refuse(*args):
            raise AssertionError("densified at construction")

        monkeypatch.setattr(objectives, "ttmat_to_dense", refuse)
        monkeypatch.setattr(objectives, "tt_to_dense", refuse)
        modes = (8, 8, 8)  # above the symmetry-check cap
        idx = sample_indices(np.random.default_rng(2), modes, 20)
        quadratic_form(random_symmetric_ttmat(rng, modes, 2))
        gram_quadratic_form(random_ttmat(rng, modes, modes, 2))
        rayleigh_quotient(random_symmetric_ttmat(rng, modes, 2))
        completion_loss(IndexSet(idx, rng.standard_normal(len(idx))))
        regularized_completion(IndexSet(idx, rng.standard_normal(len(idx))), 0.5)
        expmachines_loss([random_tt(rng, modes, 1) for _ in range(3)], [1.0, -1.0, 1.0])
