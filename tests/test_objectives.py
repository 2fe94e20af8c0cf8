from types import SimpleNamespace

import numpy as np
import pytest

from ttriem import ad, coreops
from ttriem.errors import (
    DegeneratePointError,
    DimensionError,
    InvalidDataError,
    UnavailableMethodError,
)
from ttriem.matrix import FixedRankPoint, riemannian_grad_matrix, tangent_materialize
from ttriem.objectives import (
    IndexSet,
    completion_loss,
    expmachines_loss,
    gram_quadratic_form,
    quadratic_form,
    rayleigh_quotient,
    read_index_set,
    regularized_completion,
    write_index_set,
)
from ttriem.tt import (
    TtMatrix,
    TtTensor,
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_scale,
    tt_to_dense,
    ttmat_identity,
    ttmat_to_dense,
)
from ttriem.oracles import tangent_residual
from ttriem.ttmanifold import hess_vec_tt, project_tt, riemannian_grad_tt

from conftest import run_python_optimized

MODES = (2, 3, 2)


def all_ones(d=3, n=2):
    return TtTensor([np.ones((1, n, 1))] * d)


def cores_of(x):
    return [np.asarray(c) for c in x.cores]


def dense_record_euclid_grad(objective, data, x):
    """AD Euclidean gradient of the objective on a single dense variable.

    ``data`` holds what the objective was built from (see build_all_cases).
    """
    xd = tt_to_dense(x)
    modes = xd.shape
    size = xd.size

    def program(v):
        flat = ad.reshape(v, (size,))
        if objective.name in ("quadratic_form", "gram_quadratic_form",
                              "rayleigh_quotient"):
            amat = ttmat_to_dense(data.operator)
            av = ad.contract(amat, flat, [(1, 0)])
            if objective.name == "quadratic_form":
                return ad.contract(av, flat, [(0, 0)])
            if objective.name == "gram_quadratic_form":
                return ad.contract(av, av, [(0, 0)])
            return ad.div(ad.contract(av, flat, [(0, 0)]),
                          ad.contract(flat, flat, [(0, 0)]))
        if objective.name in ("completion", "regularized_completion"):
            flat_idx = np.ravel_multi_index(data.omega.indices.T, modes)
            core = ad.reshape(flat, (1, size, 1))
            vals = ad.reshape(ad.gather_mode(core, flat_idx),
                              (len(flat_idx),))
            diff = ad.sub(vals, data.omega.values)
            out = ad.reduce_sum(ad.mul(diff, diff))
            if data.lam:
                out = ad.add(out, ad.mul(ad.contract(flat, flat, [(0, 0)]),
                                         data.lam))
            return out
        if objective.name == "expmachines":
            total = None
            for w, y in zip(data.weight_tensors, data.labels):
                wflat = tt_to_dense(w).ravel()
                margin = ad.mul(ad.contract(wflat, flat, [(0, 0)]), y)
                term = ad.softplus(ad.neg(margin))
                total = term if total is None else ad.add(total, term)
            return total
        raise AssertionError(objective.name)

    tape, out = ad.record([xd], program)
    (g,) = ad.grad(tape, out, [tape.nodes[0]])
    return g


class TestQuadraticForm:
    def test_identity_on_ones(self):
        obj = quadratic_form(ttmat_identity((2, 2, 2)))
        assert float(obj.evaluate(cores_of(all_ones()))) == pytest.approx(8.0)

    def test_scaled_identity(self):
        eye = ttmat_identity((2, 2, 2))
        two = TtMatrix([2.0 * np.asarray(eye.cores[0])] + [np.asarray(c) for c in eye.cores[1:]])
        obj = quadratic_form(two)
        assert float(obj.evaluate(cores_of(all_ones()))) == pytest.approx(16.0)

    def test_random_vs_dense(self, rng):
        a = random_symmetric_ttmat(rng, MODES, 2)
        x = random_tt(rng, MODES, 2)
        obj = quadratic_form(a)
        want = tt_to_dense(x).ravel() @ ttmat_to_dense(a) @ tt_to_dense(x).ravel()
        assert float(obj.evaluate(cores_of(x))) == pytest.approx(want, rel=1e-11)

    def test_asymmetric_rejected_at_desk_scale(self, rng):
        a = random_ttmat(rng, MODES, MODES, 2)
        assert np.abs(ttmat_to_dense(a) - ttmat_to_dense(a).T).max() > 1e-3
        with pytest.raises(InvalidDataError):
            quadratic_form(a)

    def test_mode_mismatch(self, rng):
        obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
        with pytest.raises(DimensionError):
            obj.evaluate(cores_of(random_tt(rng, (2, 3, 3), 2)))


class TestGramQuadraticForm:
    def test_identity_reduces_to_self_dot(self):
        obj = gram_quadratic_form(ttmat_identity((2, 2, 2)))
        assert float(obj.evaluate(cores_of(all_ones()))) == pytest.approx(8.0)

    def test_zero_operator(self, rng):
        zero = TtMatrix([np.zeros((1, n, n, 1)) for n in MODES])
        obj = gram_quadratic_form(zero)
        assert float(obj.evaluate(cores_of(random_tt(rng, MODES, 2)))) == 0.0

    def test_random_vs_dense(self, rng):
        a = random_ttmat(rng, MODES, MODES, 2)
        x = random_tt(rng, MODES, 2)
        obj = gram_quadratic_form(a)
        want = np.sum((ttmat_to_dense(a) @ tt_to_dense(x).ravel()) ** 2)
        assert float(obj.evaluate(cores_of(x))) == pytest.approx(want, rel=1e-11)


class TestRayleigh:
    def test_identity_operator_value_one(self, rng):
        obj = rayleigh_quotient(ttmat_identity(MODES))
        x = random_tt(rng, MODES, 2)
        assert float(obj.evaluate(cores_of(x))) == pytest.approx(1.0, rel=1e-12)

    def test_identity_gradient_vanishes(self, rng):
        from ttriem.ttmanifold import riemannian_grad_tt

        obj = rayleigh_quotient(ttmat_identity(MODES))
        x = random_tt(rng, MODES, 2)
        g = riemannian_grad_tt(obj.evaluate, orthogonalize(x))
        assert g.norm() < 1e-12

    def test_scaled_identity(self, rng):
        eye = ttmat_identity(MODES)
        three = TtMatrix([3.0 * np.asarray(eye.cores[0])] + [np.asarray(c) for c in eye.cores[1:]])
        x = random_tt(rng, MODES, 2)
        assert float(rayleigh_quotient(three).evaluate(cores_of(x))) == pytest.approx(3.0)

    def test_ad_gradient_matches_projected_analytic_form(self, rng):
        from ttriem.oracles import dense_project
        from ttriem.ttmanifold import riemannian_grad_tt

        a = random_symmetric_ttmat(rng, MODES, 2)
        x = random_tt(rng, MODES, 2)
        base = orthogonalize(x)
        obj = rayleigh_quotient(a)
        g = riemannian_grad_tt(obj.evaluate, base)
        xd = tt_to_dense(x)
        ad_ = ttmat_to_dense(a)
        s = np.vdot(xd, xd)
        f = xd.ravel() @ ad_ @ xd.ravel() / s
        want = dense_project(
            base, (2.0 / s * (ad_ @ xd.ravel() - f * xd.ravel())).reshape(xd.shape)
        )
        np.testing.assert_allclose(
            tt_to_dense(g.materialize()), want, atol=1e-10 * max(np.abs(want).max(), 1)
        )

    def test_degenerate_point_rejected(self):
        obj = rayleigh_quotient(ttmat_identity(MODES))
        tiny = tt_scale(0.0, all_ones(3, 2))
        with pytest.raises(DegeneratePointError):
            obj.evaluate(cores_of(TtTensor([np.asarray(c) for c in tiny.cores])))

    @pytest.mark.parametrize("method", ["ad", "naive", "optimized"])
    @pytest.mark.parametrize("op", ["grad", "hvp"])
    def test_degenerate_point_rejected_by_every_pipeline(self, rng, method, op):
        from ttriem.baselines import compute_method

        obj = rayleigh_quotient(random_symmetric_ttmat(rng, MODES, 2))
        base = orthogonalize(tt_scale(1e-16, random_tt(rng, MODES, 2)))
        z = project_tt(base, random_tt(rng, MODES, 2))
        with pytest.raises(DegeneratePointError):
            compute_method(obj, method, op, base, z)


class TestCompletion:
    def test_single_entry(self):
        om = IndexSet(np.array([[0, 0, 0]]), np.array([0.0]))
        assert float(completion_loss(om).evaluate(cores_of(all_ones()))) == 1.0

    def test_perfect_fit(self, rng):
        x = random_tt(rng, MODES, 2)
        idx = np.array([[0, 0, 0], [1, 2, 1], [0, 1, 1]])
        from ttriem.tt import tt_entries

        om = IndexSet(idx, tt_entries(x, idx))
        assert float(completion_loss(om).evaluate(cores_of(x))) == pytest.approx(0.0, abs=1e-24)

    def test_random_vs_dense_masked_sum(self, rng):
        x = random_tt(rng, MODES, 2)
        idx = np.array([[i, j, k] for i in range(2) for j in range(3) for k in range(2)])
        sel = rng.permutation(len(idx))[:8]
        om = IndexSet(idx[sel], rng.standard_normal(8))
        xd = tt_to_dense(x)
        want = np.sum((xd[tuple(om.indices.T)] - om.values) ** 2)
        got = float(completion_loss(om).evaluate(cores_of(x)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_index_set_copies_only_what_others_may_write(self):
        # Read-only arrays that own their data are taken over; a writeable
        # array, or a view of another array, is copied, so writing to the
        # caller's arrays afterwards leaves the set as it was.
        idx = np.array([[0, 1, 1], [1, 2, 0]], dtype=np.intp)
        values = np.array([1.0, 2.0])
        om = IndexSet(idx, values)
        assert not np.shares_memory(om.indices, idx) and not np.shares_memory(om.values, values)
        idx[0, 0], values[0] = 1, 5.0
        assert om.indices[0, 0] == 0 and om.values[0] == 1.0
        assert not om.indices.flags.writeable and not om.values.flags.writeable
        for a in (idx, values):
            a.flags.writeable = False
        om = IndexSet(idx, values)
        assert om.indices is idx and om.values is values
        view = IndexSet(idx[:1], values[:1])
        assert view.indices.flags.owndata and view.values.flags.owndata

    def test_index_out_of_range(self, rng):
        om = IndexSet(np.array([[0, 3, 0]]), np.array([1.0]))
        with pytest.raises(IndexError):
            completion_loss(om).evaluate(cores_of(random_tt(rng, MODES, 2)))

    def test_extra_mode_is_dimension_error(self, rng):
        # The (N, d) check of the entries sweep covers every path.
        obj = completion_loss(IndexSet(np.array([[0, 1, 1], [1, 2, 0]]), np.array([1.0, 2.0])))
        x = random_tt(rng, MODES + (2,), 2)
        for call in (lambda: obj.evaluate(cores_of(x)),
                     lambda: obj.euclid_grad_tt(x),
                     lambda: obj.hook("optimized_grad")(orthogonalize(x))):
            with pytest.raises(DimensionError):
                call()

    def test_rank_cap_unavailable(self, rng):
        idx = np.array([[i, j, k] for i in range(8) for j in range(8) for k in range(8)])
        om = IndexSet(idx, rng.standard_normal(len(idx)))
        obj = completion_loss(om)
        with pytest.raises(UnavailableMethodError):
            obj.euclid_grad_tt(random_tt(rng, (8, 8, 8), 2))


class TestExpMachines:
    def test_positive_label(self):
        w = all_ones()
        obj = expmachines_loss([w], [1.0])
        got = float(obj.evaluate(cores_of(all_ones())))
        assert got == pytest.approx(np.log1p(np.exp(-8.0)), rel=1e-12)

    def test_negative_label(self):
        w = all_ones()
        obj = expmachines_loss([w], [-1.0])
        got = float(obj.evaluate(cores_of(all_ones())))
        assert got == pytest.approx(np.log1p(np.exp(8.0)), rel=1e-12)

    def test_zero_point_gives_n_log_two(self, rng):
        ws = [random_tt(rng, MODES, 1) for _ in range(4)]
        obj = expmachines_loss(ws, [1.0, -1.0, 1.0, -1.0])
        zero = tt_scale(0.0, random_tt(rng, MODES, 1))
        assert float(obj.evaluate(cores_of(zero))) == pytest.approx(4 * np.log(2.0))

    def test_overflow_safe(self, rng):
        w = all_ones()
        obj = expmachines_loss([w], [-1.0])
        big = tt_scale(1e3, all_ones())
        got = float(obj.evaluate(cores_of(big)))
        assert np.isfinite(got) and got == pytest.approx(8e3, rel=1e-12)

    def test_monotone_in_margin(self):
        w = all_ones()
        obj = expmachines_loss([w], [1.0])
        values = [
            float(obj.evaluate(cores_of(tt_scale(alpha, all_ones()))))
            for alpha in np.linspace(-2.0, 2.0, 9)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_non_rank_one_weights_rejected(self, rng):
        with pytest.raises(InvalidDataError):
            expmachines_loss([random_tt(rng, MODES, 2)], [1.0])

    def test_bad_labels_rejected(self, rng):
        with pytest.raises(InvalidDataError):
            expmachines_loss([random_tt(rng, MODES, 1)], [0.5])


class TestRegularizedCompletion:
    def test_lambda_zero_reduces_to_completion(self, rng):
        x = random_tt(rng, MODES, 2)
        idx = np.array([[0, 0, 0], [1, 1, 1]])
        om = IndexSet(idx, rng.standard_normal(2))
        a = float(regularized_completion(om, 0.0).evaluate(cores_of(x)))
        b = float(completion_loss(om).evaluate(cores_of(x)))
        assert a == pytest.approx(b, rel=1e-14)

    def test_empty_omega_pure_norm(self):
        om = IndexSet(np.zeros((0, 3), dtype=int), np.zeros(0))
        obj = regularized_completion(om, 1.0)
        assert float(obj.evaluate(cores_of(all_ones()))) == pytest.approx(8.0)

    def test_sum_of_parts(self, rng):
        x = random_tt(rng, MODES, 2)
        idx = np.array([[0, 2, 1], [1, 0, 0]])
        om = IndexSet(idx, rng.standard_normal(2))
        lam = 0.3
        whole = float(regularized_completion(om, lam).evaluate(cores_of(x)))
        parts = float(completion_loss(om).evaluate(cores_of(x)))
        parts += lam * float(np.vdot(tt_to_dense(x), tt_to_dense(x)))
        assert whole == pytest.approx(parts, rel=1e-13)

    def test_negative_lambda_rejected(self):
        om = IndexSet(np.zeros((0, 3), dtype=int), np.zeros(0))
        with pytest.raises(InvalidDataError):
            regularized_completion(om, -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        om = IndexSet(np.zeros((0, 3), dtype=int), np.zeros(0))
        with pytest.raises(InvalidDataError, match="finite"):
            regularized_completion(om, lam)


def build_all_cases(rng):
    """Every objective, paired with the data it was built from."""
    idx = np.array([[i, j, k] for i in range(2) for j in range(3) for k in range(2)])[::2]
    qf_op = random_symmetric_ttmat(rng, MODES, 2)
    gram_op = random_ttmat(rng, MODES, MODES, 2)
    rq_op = random_symmetric_ttmat(rng, MODES, 2)
    omega = IndexSet(idx, rng.standard_normal(len(idx)))
    ws, ys = [random_tt(rng, MODES, 1) for _ in range(3)], [1.0, -1.0, 1.0]
    reg_omega = IndexSet(idx, rng.standard_normal(len(idx)))
    return [
        (quadratic_form(qf_op), SimpleNamespace(operator=qf_op)),
        (gram_quadratic_form(gram_op), SimpleNamespace(operator=gram_op)),
        (rayleigh_quotient(rq_op), SimpleNamespace(operator=rq_op)),
        (completion_loss(omega), SimpleNamespace(omega=omega, lam=0.0)),
        (expmachines_loss(ws, ys), SimpleNamespace(weight_tensors=ws, labels=ys)),
        (regularized_completion(reg_omega, 0.4), SimpleNamespace(omega=reg_omega, lam=0.4)),
    ]


def build_all_objectives(rng):
    return [obj for obj, _ in build_all_cases(rng)]


def _applied_program(label, a_cores):
    """The objective program that forms A X by ``matvec_cores`` (reference)."""

    def program(cores):
        ax = coreops.matvec_cores(a_cores, cores)
        if label == "gram":
            return coreops.dot_cores(ax, ax)
        sax = coreops.dot_cores(ax, cores)
        if label == "rayleigh":
            return ad.div(sax, coreops.dot_cores(cores, cores))
        return sax

    return program


class TestOperatorSweepPrograms:
    """Taped grad and HVP through the interface sweeps equal those of the
    programs that form A X."""

    @pytest.mark.parametrize("label", ["qf", "gram", "rayleigh"])
    def test_grad_and_hvp_match_applied_program(self, rng, label):
        modes = (3, 4, 3, 2)
        if label == "gram":
            a = random_ttmat(rng, (2, 3, 4, 2), modes, 3)
            obj = gram_quadratic_form(a)
        else:
            a = random_symmetric_ttmat(rng, modes, 3)
            obj = (quadratic_form if label == "qf" else rayleigh_quotient)(a)
        reference = _applied_program(label, list(a.cores))
        base = orthogonalize(random_tt(rng, modes, 3))
        z = project_tt(base, random_tt(rng, modes, 2))
        assert tangent_residual(riemannian_grad_tt(obj.evaluate, base),
                                riemannian_grad_tt(reference, base)) <= 1e-12
        assert tangent_residual(hess_vec_tt(obj.evaluate, base, z),
                                hess_vec_tt(reference, base, z)) <= 1e-12


class TestCrossObjectiveInvariants:
    def test_analytic_gradients_match_dense_ad(self, rng):
        x = random_tt(rng, MODES, 2)
        for obj, data in build_all_cases(rng):
            want = dense_record_euclid_grad(obj, data, x)
            got = tt_to_dense(obj.euclid_grad_tt(x))
            scale = max(np.abs(want).max(), 1.0)
            np.testing.assert_allclose(got, want, atol=1e-9 * scale, err_msg=obj.name)

    def test_evaluation_invariant_under_reorthogonalization(self, rng):
        x = random_tt(rng, MODES, 2)
        mo = orthogonalize(x)
        for obj in build_all_objectives(rng):
            ref = float(obj.evaluate(cores_of(x)))
            for mu in range(x.ndim):
                val = float(obj.evaluate([np.asarray(c) for c in mo.mu_cores(mu)]))
                assert val == pytest.approx(ref, rel=1e-10, abs=1e-12), obj.name

    def test_analytic_hessians_match_fd_of_gradient(self, rng):
        x = random_tt(rng, MODES, 2)
        z = random_tt(rng, MODES, 2)
        xd, zd = tt_to_dense(x), tt_to_dense(z)
        step = 1e-6
        for obj in build_all_objectives(rng):
            got = tt_to_dense(obj.euclid_hess_vec_tt(x, z))
            grad = obj.hook("dense_grad")
            fd = (grad(xd + step * zd) - grad(xd - step * zd)) / (2 * step)
            scale = max(np.abs(fd).max(), 1.0)
            np.testing.assert_allclose(got, fd, atol=1e-6 * scale, err_msg=obj.name)


class TestFactorProgramAdapter:
    def test_two_mode_quadratic_on_matrix_manifold(self, rng):
        a = random_symmetric_ttmat(rng, (3, 4), 2)
        obj = quadratic_form(a)
        u = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        x = FixedRankPoint(u, np.diag([1.5, 0.5]), v)
        g = riemannian_grad_matrix(obj.factor_program(), x)
        left, right = tangent_materialize(g)
        xd = x.to_dense()
        euclid = (2.0 * ttmat_to_dense(a) @ xd.ravel()).reshape(xd.shape)
        pv = x.v @ x.v.T
        want = euclid @ pv + x.u @ (x.u.T @ euclid) @ (np.eye(4) - pv)
        np.testing.assert_allclose(left @ right.T, want, atol=1e-10)


class TestIndexSetIo:
    def test_roundtrip(self, rng, tmp_path):
        idx = np.array([[0, 1, 0], [1, 2, 1]])
        om = IndexSet(idx, rng.standard_normal(2))
        path = tmp_path / "omega.txt"
        write_index_set(om, path)
        back = read_index_set(path)
        assert np.array_equal(back.indices, om.indices)
        np.testing.assert_array_equal(back.values, om.values)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "omega.txt"
        path.write_text("# header\n\n0 0 0 1.5  # trailing note\n1 2 1 -2.0\n")
        om = read_index_set(path)
        assert len(om) == 2 and om.ndim == 3
        np.testing.assert_allclose(om.values, [1.5, -2.0])

    def test_ragged_lines_rejected(self, tmp_path):
        path = tmp_path / "omega.txt"
        path.write_text("0 0 0 1.0\n0 1 2.0\n")
        with pytest.raises(InvalidDataError):
            read_index_set(path)

    def test_empty_set_rejected_as_empty(self, tmp_path):
        path = tmp_path / "omega.txt"
        write_index_set(IndexSet(np.zeros((0, 3), dtype=int), np.zeros(0)), path)
        with pytest.raises(InvalidDataError, match="no observation lines"):
            read_index_set(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "omega.txt"
        path.write_text(f"0 0 0 1.0\n0 1 2 {value}\n")
        with pytest.raises(InvalidDataError, match="finite"):
            read_index_set(path)

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidDataError):
            IndexSet(np.array([[0, 0, 0], [0, 0, 0]]), np.array([1.0, 2.0]))

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            IndexSet(np.array([[0, -1, 0]]), np.array([1.0]))

    def test_non_integral_index_rejected(self):
        with pytest.raises(IndexError, match="non-integral"):
            IndexSet(np.array([[0, 0.5, 0]]), np.array([1.0]))


SYMMETRIC_CONSTRUCTORS = [quadratic_form, rayleigh_quotient]


class TestSymmetryCheckAtEverySize:
    # The probe runs at every size; this operator has 1,048,576 entries.
    @pytest.mark.parametrize("make", SYMMETRIC_CONSTRUCTORS)
    def test_large_nonsymmetric_rejected(self, make):
        a = random_ttmat(np.random.default_rng(0), (4,) * 5, (4,) * 5, 2)
        with pytest.raises(InvalidDataError, match="symmetric"):
            make(a)

    @pytest.mark.parametrize("modes", [(2, 3, 2), (4,) * 5, (8,) * 8, (512, 512)])
    @pytest.mark.parametrize("make", SYMMETRIC_CONSTRUCTORS)
    def test_symmetric_accepted(self, rng, make, modes):
        make(random_symmetric_ttmat(rng, modes, 2))

    @pytest.mark.parametrize("make", SYMMETRIC_CONSTRUCTORS)
    def test_non_square_rejected(self, rng, make):
        with pytest.raises(InvalidDataError, match="square"):
            make(random_ttmat(rng, (2, 3), (3, 2), 2))


class TestSymmetryCheckUnderOptimize:
    def test_nonsymmetric_operator_rejected_under_dash_o(self):
        code = (
            "assert False, 'asserts are live: not running under -O'\n"
            "import numpy as np\n"
            "import ttriem as tr\n"
            "a = tr.random_ttmat(np.random.default_rng(0), (2, 2), (2, 2), 2)\n"
            "try:\n"
            "    tr.quadratic_form(a)\n"
            "except tr.InvalidDataError:\n"
            "    print('rejected')\n"
        )
        proc = run_python_optimized(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "rejected"
