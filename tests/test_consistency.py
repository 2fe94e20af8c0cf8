"""Cross-module consistency: the matrix manifold and the 2-mode TT
manifold must produce the same geometry, results must be reproducible
under concurrency, and operators may change mode sizes."""

import ast
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import ttriem
from ttriem.matrix import (
    FixedRankPoint,
    hess_vec_matrix,
    project_matrix,
    riemannian_grad_matrix,
    tangent_materialize,
)
from ttriem import ad
from ttriem.baselines import _tt_from_dense, project_sparse
from ttriem.objectives import IndexSet, completion_loss, quadratic_form
from ttriem.oracles import dense_preconditioned_residual
from ttriem.tt import (
    TtTensor,
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_entries,
    tt_to_dense,
)
from ttriem.ttmanifold import (
    hess_vec_tt,
    preconditioned_residual,
    project_tt,
    riemannian_grad_tt,
)


def matrix_point_as_tt(x: FixedRankPoint) -> TtTensor:
    us = x.u @ x.s
    first = us[None, :, :].transpose(0, 1, 2)  # (1, m, r)
    second = x.v.T[:, :, None]  # (r, n, 1)
    return TtTensor([first, second])


class TestMatrixVsTwoModeTt:
    def setup_method(self):
        rng = np.random.default_rng(99)
        u = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        self.x = FixedRankPoint(u, np.diag([2.0, 0.7]), v)
        # symmetric operator on 4 x 5 matrices, as a 2-mode TT operator
        self.op = random_symmetric_ttmat(rng, (4, 5), 2)
        self.obj = quadratic_form(self.op)
        self.z_dense = rng.standard_normal((4, 5))

    def test_gradients_coincide(self):
        g_mat = riemannian_grad_matrix(self.obj.factor_program(), self.x)
        left, right = tangent_materialize(g_mat)
        base = orthogonalize(matrix_point_as_tt(self.x))
        g_tt = riemannian_grad_tt(self.obj.evaluate, base)
        np.testing.assert_allclose(
            left @ right.T, tt_to_dense(g_tt.materialize()), atol=1e-10
        )

    def test_projections_coincide(self):
        t_mat = project_matrix(self.x, self.z_dense)
        left, right = tangent_materialize(t_mat)
        base = orthogonalize(matrix_point_as_tt(self.x))
        t_tt = project_tt(base, _tt_from_dense(self.z_dense))
        np.testing.assert_allclose(
            left @ right.T, tt_to_dense(t_tt.materialize()), atol=1e-11
        )

    def test_hessian_vector_products_coincide(self):
        z_mat = project_matrix(self.x, self.z_dense)
        h_mat = hess_vec_matrix(self.obj.factor_program(), self.x, z_mat)
        hl, hr = tangent_materialize(h_mat)
        base = orthogonalize(matrix_point_as_tt(self.x))
        z_tt = project_tt(base, _tt_from_dense(self.z_dense))
        h_tt = hess_vec_tt(self.obj.evaluate, base, z_tt)
        np.testing.assert_allclose(
            hl @ hr.T, tt_to_dense(h_tt.materialize()), atol=1e-10
        )


class TestConcurrency:
    def test_parallel_gradients_match_serial(self):
        instances = []
        for seed in range(8):
            rng = np.random.default_rng(400 + seed)
            base = orthogonalize(random_tt(rng, (2, 3, 2), 2))
            obj = quadratic_form(random_symmetric_ttmat(rng, (2, 3, 2), 2))
            instances.append((obj, base))
        serial = [riemannian_grad_tt(obj.evaluate, base) for obj, base in instances]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda p: riemannian_grad_tt(p[0].evaluate, p[1]), instances)
            )
        for s, p in zip(serial, parallel):
            for ds, dp in zip(s.deltas, p.deltas):
                np.testing.assert_allclose(ds, dp, atol=1e-13)


class TestRectangularOperators:
    def test_preconditioned_residual_with_shape_changing_operators(self, rng):
        modes_x = (2, 3)
        modes_mid = (3, 2)
        x = random_tt(rng, modes_x, 2)
        base = orthogonalize(x)
        a = random_ttmat(rng, modes_mid, modes_x, 2)  # maps x-space to mid-space
        b = random_ttmat(rng, modes_x, modes_mid, 2)  # maps back
        f = random_tt(rng, modes_mid, 2)
        t = preconditioned_residual(a, b, f, base)
        want = dense_preconditioned_residual(a, b, f, base)
        np.testing.assert_allclose(
            tt_to_dense(t.materialize()), want, atol=1e-10 * max(np.abs(want).max(), 1.0)
        )


def library_nodes():
    """(file name, node) of every syntax-tree node in ttriem."""
    for path in sorted(Path(ttriem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def library_method_calls(attr):
    """(file name, call node) of every ``<obj>.<attr>(...)`` call in ttriem."""
    return ((name, node) for name, node in library_nodes()
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


class TestOneOperandPath:
    def test_only_operand_helpers_lift_in_ad(self):
        # Each ad op lifts its operands through _operand, _operands or
        # _operand_list and then validates and computes once, on and off a
        # tape alike.  An isinstance(..., Var) test or a float64 coercion
        # anywhere else in ad.py would start a second, array-only path.
        allowed = {"_operand", "_operands", "_operand_list", "Tape", "record", "grad"}
        nodes = [node for name, node in library_nodes() if name == "ad.py"]
        exempt = {id(inner) for node in nodes
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in allowed
                  for inner in ast.walk(node)}

        def lifts(node):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                return any(isinstance(n, ast.Name) and n.id == "Var"
                           for n in ast.walk(node.args[1]))
            return (isinstance(node, ast.Attribute) and node.attr == "float64"
                    or isinstance(node, ast.Name) and node.id == "float64")

        found = [f"ad.py:{node.lineno}" for node in nodes if lifts(node) and id(node) not in exempt]
        assert found == []


class TestPairwiseContractions:
    def test_no_einsum_has_more_than_two_operands(self):
        # np.einsum without `optimize` runs three or more operands as one
        # unfactored loop; the library contracts them pairwise instead.
        wide = [f"{name}:{node.lineno}" for name, node in library_method_calls("einsum")
                if len(node.args) > 3]
        assert wide == []


class TestCompletionTapeMemory:
    def test_no_per_sample_slices_on_hvp_tape(self, rng, monkeypatch):
        # Completion entries keep O(N r) numbers per tape value: interior
        # cores go through ad.mode_matmul, and only the two boundary cores
        # (rank 1 on one side) are gathered per sample.  An (N, r_l, r_r)
        # slice stack of an interior core would bring back O(N r^2) tapes.
        modes, r = (4, 5, 4, 3, 4), 2
        idx = np.array(np.unravel_index(
            rng.choice(int(np.prod(modes)), 150, replace=False), modes)).T
        truth = random_tt(rng, modes, r)
        obj = completion_loss(IndexSet(idx, tt_entries(truth, idx)))
        base = orthogonalize(random_tt(rng, modes, r))
        z = project_tt(base, random_tt(rng, modes, r))
        tapes = []
        sweep = ad.grad

        def recording_grad(tape, *args, **kwargs):
            # hess_vec_tt clears its tape on return: keep the nodes each
            # sweep starts from (the outer one appends none)
            tapes.append(list(tape.nodes))
            return sweep(tape, *args, **kwargs)

        monkeypatch.setattr(ad, "grad", recording_grad)
        hess_vec_tt(obj.evaluate, base, z)
        forward, nodes = tapes
        slice_stack = len(idx) * (2 * r) ** 2  # N r_l r_r: interior block cores are 2r x 2r
        assert [n.op for n in nodes if n.value.size == slice_stack] == []
        gathers = [n for n in nodes if n.op == "gather_mode"]
        assert all(1 in n.value.shape[1:] for n in gathers)
        assert sum(1 for n in forward if n.op == "gather_mode") == 2


class TestCompletionRowSweeps:
    def test_one_row_permutation_per_core_in_entries(self, rng, monkeypatch):
        # Rows reach each interior core sorted by its index and leave sorted
        # by the next core's, so an entries sweep costs one np.take per core,
        # the two boundary gathers included.  Permuting into mode order and
        # back around every interior core took two each: 10 at d=6.
        modes = (4, 5, 3, 4, 3, 5)
        idx = np.stack([rng.integers(0, n, 200) for n in modes], axis=1)
        x = random_tt(rng, modes, 3)
        takes = []
        take = np.take

        def counting_take(*args, **kwargs):
            takes.append(np.shape(args[0]))
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counting_take)
        tt_entries(x, idx)
        assert len(takes) <= len(modes), takes

    def test_project_sparse_forms_no_one_hot_rows(self, rng):
        # The fused sparse projection holds (N, r) rows and (r, n, r) cores;
        # an (N, n_k) one-hot stack at this size would be 9.6 MB.  Numpy
        # reports its buffers to tracemalloc, so the peak bounds every array.
        modes, count = (600, 3, 600), 2000
        idx = np.stack([rng.integers(0, n, count) for n in modes], axis=1)
        w = rng.standard_normal(count)
        base = orthogonalize(random_tt(rng, modes, 2))
        tracemalloc.start()
        try:
            project_sparse(base, idx, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < count * max(modes), peak  # one byte per (N, n_k) entry


class TestNoUfuncAt:
    def test_no_ufunc_at_calls(self):
        # ufunc.at (np.add.at and the like) is an unbuffered per-element loop:
        # at N=12,000 samples of 10 x 10 slices np.add.at took 22 ms where
        # ad.scatter_mode's one-hot matrix product takes 2 ms.
        found = [f"{name}:{node.lineno}" for name, node in library_method_calls("at")]
        assert found == []


class TestNoAssertStatements:
    def test_library_raises_explicitly(self):
        # `python -O` strips assert statements, which would silence the
        # shared comparisons behind `ttriem check`; the library raises instead.
        found = [f"{name}:{node.lineno}" for name, node in library_nodes()
                 if isinstance(node, ast.Assert)]
        assert found == []


class TestNoNameSwitches:
    def test_no_string_comparison_on_name_or_function(self):
        # Each objective keeps what it knows in one place: the library
        # looks builders up in a table instead of switching on
        # `obj.name == "qf"` or `cfg.function == "qf"`.
        def named(node):
            return isinstance(node, ast.Attribute) and node.attr in ("name", "function")

        def literal(node):
            return isinstance(node, ast.Constant) and isinstance(node.value, str)

        found = []
        for name, node in library_nodes():
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                for op, a, b in zip(node.ops, sides, sides[1:]):
                    if (isinstance(op, (ast.Eq, ast.NotEq))
                            and (named(a) and literal(b) or literal(a) and named(b))):
                        found.append(f"{name}:{node.lineno}")
        assert found == []


class TestOperatorApplication:
    def test_matvec_cores_only_in_ttmat_apply(self):
        # Objectives reach <A X, Y> through the coreops interface sweeps; the
        # rank-R*r cores of A X are built only by ttmat_apply.
        def name(node):
            if isinstance(node, ast.Name):
                return node.id
            if isinstance(node, ast.Attribute):
                return node.attr
            return getattr(node, "name", None)  # FunctionDef, alias

        uses = set()
        for path in sorted(Path(ttriem.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if name(node) == "matvec_cores":
                        uses.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        assert uses == {"coreops.py:matvec_cores", "tt.py:ttmat_apply"}
