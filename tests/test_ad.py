import gc
import itertools
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from ttriem import ad, coreops
from ttriem.errors import (
    DimensionError,
    InvalidVariableError,
    UnsupportedOperationError,
)


def fd_gradient(f, args, step=1e-6):
    """Central finite differences of a scalar function of ndarray args."""
    grads = []
    for which in range(len(args)):
        g = np.zeros_like(args[which])
        for i in np.ndindex(*np.shape(args[which])):
            plus = [a.copy() for a in args]
            minus = [a.copy() for a in args]
            plus[which][i] += step
            minus[which][i] -= step
            g[i] = (f(*plus) - f(*minus)) / (2.0 * step)
        grads.append(g)
    return grads


def value_of(x):
    """The value of a gradient from a recording sweep: a ``Var``'s value, or
    the plain array that a gradient not depending on the inputs is."""
    return x.value if isinstance(x, ad.Var) else np.asarray(x)


def check_against_fd(program, numpy_program, args, rtol=1e-6):
    tape, out = ad.record(args, program)
    got = ad.grad(tape, out, [tape.nodes[i] for i in range(len(args))])
    want = fd_gradient(numpy_program, args)
    for g, w in zip(got, want):
        scale = max(np.abs(w).max(), 1.0)
        np.testing.assert_allclose(g, w, atol=rtol * scale)


class TestRecord:
    def test_worked_example_value(self):
        tape, out = ad.record(
            [1.0, 0.0], lambda a, b: ad.exp(a * b) + ad.sin(b)
        )
        assert out.value == 1.0

    def test_constant_program_single_node(self):
        # A constant program records nothing: its output is a plain 0-d
        # float64 array, and its gradient is zero.
        tape, out = ad.record([np.ones(2)], lambda x: 3.5)
        assert not isinstance(out, ad.Var)
        assert out.dtype == np.float64 and out.shape == () and out == 3.5
        assert len(tape) == 1 and tape.nodes[0].op == "input"
        (g,) = ad.grad(tape, out, tape.nodes)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_sum_of_ones(self):
        tape, out = ad.record([np.ones((2, 2))], lambda x: x.sum())
        assert out.value == 4.0

    def test_nonscalar_output_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            ad.record([np.ones(3)], lambda x: x * 2.0)

    def test_unsupported_op_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            ad.record([2.0], lambda x: x ** 0.5)


class TestGrad:
    def test_worked_example_gradient(self):
        tape, out = ad.record(
            [1.0, 0.0], lambda a, b: ad.exp(a * b) + ad.sin(b)
        )
        g = ad.grad(tape, out, [tape.nodes[0], tape.nodes[1]])
        # analytic: df/dx1 = x2 e^{x1 x2} = 0, df/dx2 = x1 e^{x1 x2} + cos x2 = 2
        np.testing.assert_allclose(g, [0.0, 2.0], atol=1e-15)

    def test_quadratic_identity(self, rng):
        x = rng.standard_normal((3, 2))
        tape, out = ad.record([x], lambda v: (v * v).sum())
        (g,) = ad.grad(tape, out, [tape.nodes[0]])
        np.testing.assert_allclose(g, 2.0 * x, atol=1e-14)

    def test_five_node_program_vs_fd(self, rng):
        x = rng.standard_normal((4,))
        y = rng.standard_normal((4,))

        def prog(a, b):
            return ad.reduce_sum(ad.exp(ad.sin(a)) * b + a * a)

        def ref(a, b):
            return float(np.sum(np.exp(np.sin(a)) * b + a * a))

        check_against_fd(prog, ref, [x, y])

    def test_wrt_not_on_tape(self):
        tape, out = ad.record([1.0], lambda x: x * x)
        other_tape, _ = ad.record([1.0], lambda x: x * x)
        with pytest.raises(InvalidVariableError):
            ad.grad(tape, out, [other_tape.nodes[0]])

    @pytest.mark.parametrize("kind", ["other_tape", "vector_var", "vector_array"])
    def test_output_must_be_a_scalar_of_the_tape(self, kind):
        # A plain scalar output is a constant (zero gradient); these raise.
        tape = ad.Tape()
        x = tape.input(np.ones(2))
        output = {
            "other_tape": ad.Tape().input(1.0),
            "vector_var": ad.mul(x, 2.0),
            "vector_array": np.ones(2),
        }[kind]
        with pytest.raises(InvalidVariableError):
            ad.grad(tape, output, [x])

    def test_wrt_must_be_input(self):
        tape, out = ad.record([2.0], lambda x: x * x)
        with pytest.raises(InvalidVariableError):
            ad.grad(tape, out, [out])

    def test_mixing_tapes_is_an_error(self):
        tape_a, _ = ad.record([1.0], lambda x: x + 0.0)
        tape_b, _ = ad.record([1.0], lambda x: x + 0.0)
        with pytest.raises(InvalidVariableError):
            ad.add(tape_a.nodes[0], tape_b.nodes[0])

    def test_unreached_input_gets_zeros(self):
        tape = ad.Tape()
        a = tape.input(np.ones(3))
        b = tape.input(2.0)
        out = ad.mul(b, b)
        (g,) = ad.grad(tape, out, [a])
        np.testing.assert_allclose(g, np.zeros(3))


class TestOpGradients:
    """Reverse-mode derivative of every supported op vs central differences."""

    CASES = [
        ("add", lambda a, b: (a + b), 2),
        ("sub", lambda a, b: (a - b), 2),
        ("mul", lambda a, b: (a * b), 2),
        ("div", lambda a, b: (a / (b * b + 1.0)), 2),
        ("neg", lambda a: -a, 1),
        ("exp", ad.exp, 1),
        ("log", lambda a: ad.log(a * a + 1.0), 1),
        ("sin", ad.sin, 1),
        ("cos", ad.cos, 1),
        ("sigmoid", ad.sigmoid, 1),
        ("softplus", ad.softplus, 1),
    ]

    @pytest.mark.parametrize("name,op,arity", CASES, ids=[c[0] for c in CASES])
    def test_elementwise(self, name, op, arity, rng):
        args = [rng.standard_normal((3, 5)) for _ in range(arity)]
        w = rng.standard_normal((3, 5))

        def prog(*vs):
            return ad.reduce_sum(op(*vs) * w)

        tape, out = ad.record(args, prog)
        got = ad.grad(tape, out, [tape.nodes[i] for i in range(arity)])

        def ref(*vals):
            import numpy as _np

            func = {
                "add": lambda a, b: a + b,
                "sub": lambda a, b: a - b,
                "mul": lambda a, b: a * b,
                "div": lambda a, b: a / (b * b + 1.0),
                "neg": lambda a: -a,
                "exp": _np.exp,
                "log": lambda a: _np.log(a * a + 1.0),
                "sin": _np.sin,
                "cos": _np.cos,
                "sigmoid": lambda a: 1.0 / (1.0 + _np.exp(-a)),
                "softplus": lambda a: _np.logaddexp(0.0, a),
            }[name]
            return float(np.sum(func(*vals) * w))

        want = fd_gradient(ref, args)
        for g, gw in zip(got, want):
            np.testing.assert_allclose(g, gw, atol=1e-6 * max(np.abs(gw).max(), 1.0))

    # The same axes written as non-negative and as negative numbers.
    AXES = {"nonneg": dict(perm=(0, 2, 1), axis=1, pairs=[(1, 1), (2, 0)]),
            "negative": dict(perm=(0, -1, -2), axis=-2, pairs=[(-2, -2), (-1, 0)])}

    @pytest.mark.parametrize("axes", AXES.values(), ids=AXES.keys())
    def test_reshape_transpose_slice_concat(self, axes, rng):
        x = rng.standard_normal((2, 3, 2))
        y = rng.standard_normal((2, 2, 2))
        w = rng.standard_normal((2, 5, 2))
        perm, axis = axes["perm"], axes["axis"]

        def prog(a, b):
            cat = ad.concat([ad.transpose(a, perm).transpose(perm), b], axis)
            piece = ad.slice_along(cat, axis, 1, 4)
            return ad.reduce_sum(piece * piece) + ad.reduce_sum(
                ad.reshape(a, (12,)) * ad.reshape(a, (12,))
            )

        def ref(a, b):
            cat = np.concatenate([a, b], axis=1)
            piece = cat[:, 1:4]
            return float(np.sum(piece * piece) + np.sum(a.ravel() ** 2))

        check_against_fd(prog, ref, [x, y])
        del w

    def test_reduce_sum_axes(self, rng):
        x = rng.standard_normal((3, 4, 2))
        w = rng.standard_normal((4,))

        def prog(a):
            return ad.reduce_sum(ad.reduce_sum(a, (0, 2)) * w)

        def ref(a):
            return float(np.sum(a.sum(axis=(0, 2)) * w))

        check_against_fd(prog, ref, [x])

    @pytest.mark.parametrize("axes", AXES.values(), ids=AXES.keys())
    def test_contract_vs_fd(self, axes, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 3, 5))
        w = rng.standard_normal((2, 5))

        def prog(u, v):
            return ad.reduce_sum(ad.contract(u, v, axes["pairs"]) * w)

        def ref(u, v):
            return float(np.sum(np.einsum("ijk,kjm->im", u, v) * w))

        check_against_fd(prog, ref, [a, b])

    def test_gather_scatter_batchmatmul(self, rng):
        core = rng.standard_normal((2, 4, 3))
        other = rng.standard_normal((5, 3, 2))
        idx = np.array([0, 3, 1, 1, 2])
        w = rng.standard_normal((5, 2, 2))

        def prog(c, o):
            g = ad.gather_mode(c, idx)  # (5, 2, 3)
            return ad.reduce_sum(ad.batch_matmul(g, o) * w)

        def ref(c, o):
            g = np.transpose(c[:, idx, :], (1, 0, 2))
            return float(np.sum(np.matmul(g, o) * w))

        check_against_fd(prog, ref, [core, other])

    def test_scatter_is_gather_adjoint(self, rng):
        mat = rng.standard_normal((6, 2, 3))
        core = rng.standard_normal((2, 4, 3))
        idx = np.array([1, 0, 3, 3, 2, 0])
        lhs = np.sum(ad.scatter_mode(mat, idx, 4) * core)
        rhs = np.sum(mat * ad.gather_mode(core, idx))
        assert abs(lhs - rhs) < 1e-12



def add_at_scatter(mat, idx, n):
    """Reference scatter-add: the unbuffered ``np.add.at`` loop."""
    buf = np.zeros((n, mat.shape[1], mat.shape[2]))
    np.add.at(buf, idx, mat)
    return np.transpose(buf, (1, 0, 2))


class TestModePrimitives:
    # (N, r_l, r_r, n, idx); the wide_mode cases have n > r_l * r_r, as
    # the prefix and suffix tables of coreops.entries_cores do.
    SCATTER_CASES = {
        "repeated": (6, 2, 3, 4, [1, 1, 1, 0, 3, 1]),
        "empty_slice": (5, 2, 3, 5, [0, 4, 0, 1, 4]),
        "no_samples": (0, 2, 3, 4, []),
        "n_above_N": (3, 3, 3, 7, [6, 0, 6]),
        "wide_mode_repeated": (9, 1, 3, 7, [2, 2, 6, 0, 2, 6, 5, 5, 2]),
        "wide_mode_no_samples": (0, 1, 2, 5, []),
    }

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed_view"])
    @pytest.mark.parametrize("case", SCATTER_CASES.values(), ids=SCATTER_CASES.keys())
    def test_scatter_matches_add_at(self, case, transposed, rng):
        count, rl, rr, n, idx = case
        if transposed:  # adjoints arrive as transposed views
            mat = np.transpose(rng.standard_normal((rr, rl, count)), (2, 1, 0))
        else:
            mat = rng.standard_normal((count, rl, rr))
        want = add_at_scatter(mat, np.asarray(idx, dtype=np.intp), n)
        scale = max(np.abs(want).max(), 1.0)
        got = ad.scatter_mode(mat, idx, n)
        on_tape = ad.scatter_mode(ad.Tape().input(mat), idx, n).value
        for out in (got, on_tape):
            assert out.shape == (rl, n, rr) and out.dtype == np.float64
            np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed_view"])
    def test_gather_same_bits_on_array_and_var(self, transposed, rng):
        if transposed:
            core = np.transpose(rng.standard_normal((3, 4, 2)), (2, 1, 0))
        else:
            core = rng.standard_normal((2, 4, 3))
        idx = np.array([3, 0, 0, 2, 3, 1, 3])
        plain = ad.gather_mode(core, idx)
        on_tape = ad.gather_mode(ad.Tape().input(core), idx).value
        assert np.array_equal(plain, on_tape)
        assert np.array_equal(plain, np.transpose(core[:, idx, :], (1, 0, 2)))
        assert plain.flags.c_contiguous and plain.shape == (7, 2, 3)

    @pytest.mark.parametrize("on_tape", [False, True], ids=["array", "var"])
    @pytest.mark.parametrize("idx", [[2, -1], [0, 0.7], [1, 4]],
                             ids=["negative", "fractional", "past_end"])
    def test_gather_scatter_reject_bad_indices(self, idx, on_tape, rng):
        # -1 would read and scatter the last slice and 0.7 slice 0.
        core, mat = rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 2, 3))
        if on_tape:
            tape = ad.Tape()
            core, mat = tape.input(core), tape.input(mat)
        with pytest.raises(IndexError):
            ad.gather_mode(core, idx)
        with pytest.raises(IndexError):
            ad.scatter_mode(mat, idx, 4)

    @pytest.mark.parametrize("n", [3, 6], ids=["narrow_mode", "wide_mode"])
    def test_second_order_through_gather_matmul_scatter(self, n, rng):
        # f(c) = <scatter(G G), c> with G the gathered slices, i.e. the sum
        # over samples of <G_i G_i, G_i>.  Nested AD gives H z, checked
        # against central differences of the hand-written Df(c)[z], which is
        # quadratic in c, so the differences are exact up to rounding.
        idx = np.array([0, 2, 2, 1, 0, 2, 1])
        core = rng.standard_normal((2, n, 2))
        z = rng.standard_normal(core.shape)

        def slices(c):
            return np.transpose(c[:, idx, :], (1, 0, 2))

        def directional(c):
            g, dz = slices(c), slices(z)
            return float(np.sum((dz @ g + g @ dz) * g + (g @ g) * dz))

        tape = ad.Tape()
        c = tape.input(core)
        g = ad.gather_mode(c, idx)
        out = ad.reduce_sum(ad.scatter_mode(ad.batch_matmul(g, g), idx, n) * c)
        assert np.isclose(out.value, np.sum((slices(core) @ slices(core)) * slices(core)))
        (g1,) = ad.grad(tape, out, [c], as_vars=True)
        np.testing.assert_allclose(value_of(g1), fd_gradient(
            lambda v: float(np.sum((slices(v) @ slices(v)) * slices(v))), [core])[0], atol=1e-6)
        (hz,) = ad.grad(tape, ad.reduce_sum(g1 * z), [c])
        want = fd_gradient(directional, [core], step=1e-3)[0]
        np.testing.assert_allclose(hz, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())

    def test_wide_scatter_forms_no_one_hot(self, rng):
        # 12,000 (1, 5) slices into a mode of 4096 values: the (n, N)
        # one-hot matrix would take 393 MB, against 0.5 MB of input and
        # 0.16 MB of output.  Numpy reports its buffers to tracemalloc.
        count, n = 12000, 4096
        mat = rng.standard_normal((count, 1, 5))
        idx = rng.integers(0, n, count)
        tracemalloc.start()
        try:
            got = ad.scatter_mode(mat, idx, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak
        np.testing.assert_allclose(got, add_at_scatter(mat, idx, n), rtol=1e-12, atol=1e-12)


class TestBatchMatmul:
    # (N, p, q, s) per shape class: per-sample dot products (p = s = 1) on
    # either side of the einsum cut-over, outer products (q = 1) and the
    # general products that stay with np.matmul, each also with no samples.
    MANY = ad._EINSUM_DOT_MIN + 5
    CASES = {
        "dot_few": (9, 1, 5, 1),
        "dot_many": (MANY, 1, 5, 1),
        "dot_no_samples": (0, 1, 5, 1),
        "outer": (9, 4, 1, 3),
        "outer_row": (MANY, 1, 1, 6),
        "outer_column": (MANY, 6, 1, 1),
        "outer_no_samples": (0, 4, 1, 3),
        "row_times_matrix": (9, 1, 4, 4),
        "general": (9, 2, 3, 4),
        "general_no_samples": (0, 2, 3, 4),
    }

    @staticmethod
    def operands(case, transposed, rng):
        count, p, q, s = case
        if transposed:  # adjoints pass transposed views
            a = np.transpose(rng.standard_normal((count, q, p)), (0, 2, 1))
            b = np.transpose(rng.standard_normal((count, s, q)), (0, 2, 1))
        else:
            a, b = rng.standard_normal((count, p, q)), rng.standard_normal((count, q, s))
        return a, b

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed_view"])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_matmul_on_and_off_tape(self, case, transposed, rng):
        a, b = self.operands(case, transposed, rng)
        want = np.matmul(a, b)
        plain = ad.batch_matmul(a, b)
        tape = ad.Tape()
        on_tape = ad.batch_matmul(tape.input(a), tape.input(b)).value
        assert np.array_equal(plain, on_tape)
        assert plain.shape == want.shape and plain.dtype == np.float64
        np.testing.assert_allclose(plain, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed_view"])
    def test_outer_product_has_samples_innermost(self, transposed, rng):
        # scatter_mode then reads each (p, s) entry's samples contiguously.
        a, b = self.operands(self.CASES["outer"], transposed, rng)
        out = ad.batch_matmul(a, b)
        assert out.flags.f_contiguous and out.strides[0] == out.itemsize
        assert np.array_equal(out, a * b)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_adjoints_match_matmul(self, case, rng):
        # d<w, A B> is w B^T for A and A^T w for B, whatever class the
        # adjoint products fall into.
        a, b = self.operands(case, False, rng)
        w = rng.standard_normal(np.matmul(a, b).shape)
        tape, out = ad.record([a, b], lambda x, y: ad.reduce_sum(ad.batch_matmul(x, y) * w))
        ga, gb = ad.grad(tape, out, tape.nodes[:2])
        np.testing.assert_allclose(ga, np.matmul(w, np.transpose(b, (0, 2, 1))),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(gb, np.matmul(np.transpose(a, (0, 2, 1)), w),
                                   rtol=1e-13, atol=1e-13)


def per_sample_slices(core, idx):
    """(N, r_l, r_r) stack of ``core[:, idx[s], :]``: the reference layout."""
    return np.transpose(core[:, np.asarray(idx, dtype=np.intp), :], (1, 0, 2))


class TestModeMatmul:
    # (N, r_l, r_r, n, idx); "wide_mode" has n > r_l * r_r, "unused_values"
    # leaves mode values without samples.
    CASES = {
        "narrow_mode": (7, 3, 2, 3, [0, 2, 2, 1, 0, 2, 1]),
        "wide_mode": (40, 2, 2, 32, list(range(0, 32, 3)) * 3 + [31] * 4 + [5, 5, 0]),
        "unused_values": (6, 2, 3, 9, [8, 1, 8, 1, 4, 8]),
        "no_samples": (0, 2, 3, 4, []),
    }

    def setup_case(self, case, rng, shuffled=False):
        # The samples come sorted by their mode value, so that the rows'
        # sample order is the sort's own; the chained tests keep the case's
        # own order instead.
        count, rl, rr, n, idx = case
        idx = np.asarray(idx, dtype=np.intp)
        assert len(idx) == count
        if not shuffled:
            idx = np.sort(idx, kind="stable")
        return (idx, ad.ModeSort(idx, n), rng.standard_normal((count, rl)),
                rng.standard_normal((rl, n, rr)), rng.standard_normal((count, rr)))

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_per_sample_reference(self, case, rng):
        idx, sort, rows, core, u = self.setup_case(case, rng)
        n = core.shape[1]
        want = np.einsum("sa,sab->sb", rows, per_sample_slices(core, idx))
        np.testing.assert_allclose(ad.mode_matmul(rows, core, sort), want,
                                   rtol=1e-13, atol=1e-13)
        outer = rows[:, :, None] * u[:, None, :]
        np.testing.assert_allclose(ad.mode_outer(rows, u, sort),
                                   add_at_scatter(outer, idx, n), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_outer_is_matmul_adjoint(self, case, rng):
        # <mode_outer(e, u), G> = <u, mode_matmul(e, G)>
        idx, sort, rows, core, u = self.setup_case(case, rng)
        lhs = np.sum(ad.mode_outer(rows, u, sort) * core)
        rhs = np.sum(u * ad.mode_matmul(rows, core, sort))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(lhs))

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_same_bits_on_array_and_var(self, case, rng):
        idx, sort, rows, core, u = self.setup_case(case, rng)
        tape = ad.Tape()
        plain = ad.mode_matmul(rows, core, sort)
        on_tape = ad.mode_matmul(tape.input(rows), tape.input(core), sort)
        assert np.array_equal(plain, on_tape.value)
        assert plain.shape == (len(idx), core.shape[2]) and plain.dtype == np.float64
        plain = ad.mode_outer(rows, u, sort)
        on_tape = ad.mode_outer(tape.input(rows), tape.input(u), sort)
        assert np.array_equal(plain, on_tape.value)
        assert plain.shape == core.shape and plain.flags.c_contiguous

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_second_order_against_fd(self, case, rng):
        # f(c, e) = <mode_outer(e, e), c> + sum(mode_matmul(e, c) * e), both
        # terms the sum over samples of e_s C_i e_s^T with i the sample's mode
        # value.  Nested AD gives the HVP in direction (zc, ze), checked
        # against central differences of the hand-written Df[zc, ze], which
        # is quadratic, so the differences are exact up to rounding.
        idx, sort, rows, core, _ = self.setup_case(case, rng)
        rl, n = core.shape[:2]
        core = rng.standard_normal((rl, n, rl))  # square slices
        zc, ze = rng.standard_normal(core.shape), rng.standard_normal(rows.shape)

        def quad(a, c, b):
            return np.einsum("sa,sab,sb->", a, per_sample_slices(c, idx), b)

        def value(c, e):
            return float(2.0 * quad(e, c, e))

        def directional(c, e):
            return float(2.0 * (quad(ze, c, e) + quad(e, zc, e) + quad(e, c, ze)))

        tape = ad.Tape()
        c, e = tape.input(core), tape.input(rows)
        out = (ad.reduce_sum(ad.mode_outer(e, e, sort) * c)
               + ad.reduce_sum(ad.mode_matmul(e, c, sort) * e))
        assert np.isclose(out.value, value(core, rows), rtol=1e-12, atol=1e-12)
        g_c, g_e = ad.grad(tape, out, [c, e], as_vars=True)
        for got, want in zip((g_c, g_e), fd_gradient(value, [core, rows])):
            np.testing.assert_allclose(value_of(got), want,
                                       atol=1e-6 * np.abs(want).max(initial=1.0))
        inner = ad.reduce_sum(g_c * zc) + ad.reduce_sum(g_e * ze)
        got = ad.grad(tape, inner, [c, e])
        want = fd_gradient(directional, [core, rows], step=1e-3)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-8, atol=1e-8 * np.abs(w).max(initial=1.0))

    def test_groups_must_match(self, rng):
        # The sort orders as many samples as there are rows, over as many
        # values as the core has mode slices; raw bounds are no sort.
        rows, u, core = (rng.standard_normal(s) for s in [(3, 2), (3, 2), (2, 3, 2)])
        for sort in (ad.ModeSort([0, 1, 1, 2], 3), ad.ModeSort([0, 2], 3), [0, 1, 2, 3]):
            with pytest.raises(DimensionError):
                ad.mode_matmul(rows, core, sort)
            with pytest.raises(DimensionError):
                ad.mode_outer(rows, u, sort)
        with pytest.raises(DimensionError):
            ad.mode_matmul(rows, core, ad.ModeSort([0, 1, 1], 2))  # the core has three values

    # Chained layouts: rows come in in this mode's sorted order ("own") or
    # in a second mode's ("second"), and go out in this mode's, the second
    # one's or the samples' own (None), carried by take_rows before and
    # after mode_matmul as entries_cores and project_sparse carry them.
    # "second_in_own_out" is the adjoint direction of "own_in_second_out".
    LAYOUTS = {
        "own_in": ("own", None),
        "own_in_second_out": ("own", "second"),
        "second_in_own_out": ("second", "own"),
        "own_both": ("own", "own"),
    }

    def setup_chained(self, case, layout, rng):
        # Rows, core and u as in setup_case with the samples in the case's
        # own order, the mode's sort, the sorts the rows come in and go out
        # in, and each side's sample order: the chain takes rows[perm_in]
        # and gives out[perm_out].
        idx, _, rows, core, u = self.setup_case(case, rng, shuffled=True)
        sorts = {"own": ad.ModeSort(idx, core.shape[1]),
                 "second": ad.ModeSort(rng.integers(0, 5, len(idx)), 5), None: None}
        into, out = (sorts[name] for name in layout)
        perm_in, perm_out = (np.arange(len(idx)) if s is None else s.order for s in (into, out))
        return idx, sorts["own"], into, out, perm_in, perm_out, rows, core, u

    @staticmethod
    def to_sorted(x, have, own):
        # Rows in the order of ``have`` taken into the sorted order of
        # ``own``; the samples' own order (None) is the sort of arange(N).
        if have is None:
            have = ad.ModeSort(np.arange(len(own.order)), len(own.order))
        return x if have is own else ad.take_rows(x, have, own)

    def chained(self, e, core, own, into, out):
        # mode_matmul of rows that come in the order of ``into`` and go out
        # in that of ``out``.
        e = ad.mode_matmul(self.to_sorted(e, into, own), core, own)
        return e if out is own else ad.take_rows(e, own, out)

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_matches_per_sample_reference(self, case, layout, rng):
        idx, own, into, out, perm_in, perm_out, rows, core, u = self.setup_chained(case, layout, rng)
        n = core.shape[1]
        want = np.einsum("sa,sab->sb", rows, per_sample_slices(core, idx))
        np.testing.assert_allclose(self.chained(rows[perm_in], core, own, into, out),
                                   want[perm_out], rtol=1e-13, atol=1e-13)
        outer = rows[:, :, None] * u[:, None, :]
        got = ad.mode_outer(self.to_sorted(rows[perm_in], into, own),
                            self.to_sorted(u[perm_out], out, own), own)
        np.testing.assert_allclose(got, add_at_scatter(outer, idx, n), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_adjoint_identities(self, case, layout, rng):
        # <mode_outer(e, u), G> = <u, chain(e, G)> = <chain back(u, G^T), e>,
        # with e in the input order and u in the output order, the chain
        # back running from the output order to the input one; and the
        # adjoint of take_rows(x, own, out) moves rows back from out to own.
        idx, own, into, out, perm_in, perm_out, rows, core, u = self.setup_chained(case, layout, rng)
        e, u = rows[perm_in], u[perm_out]
        mid = np.sum(u * self.chained(e, core, own, into, out))
        lhs = np.sum(ad.mode_outer(self.to_sorted(e, into, own), self.to_sorted(u, out, own),
                                   own) * core)
        rhs = np.sum(e * self.chained(u, np.transpose(core, (2, 1, 0)), own, out, into))
        for other in (lhs, rhs):
            assert abs(other - mid) <= 1e-12 * max(1.0, np.abs(mid))
        y = rng.standard_normal(e.shape)
        lhs = np.sum(ad.take_rows(e, own, out) * y)
        assert abs(lhs - np.sum(e * self.to_sorted(y, out, own))) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_same_bits_on_array_and_var(self, case, layout, rng):
        idx, own, into, out, perm_in, perm_out, rows, core, u = self.setup_chained(case, layout, rng)
        e, u = rows[perm_in], u[perm_out]
        tape = ad.Tape()
        plain = self.chained(e, core, own, into, out)
        on_tape = self.chained(tape.input(e), tape.input(core), own, into, out)
        assert np.array_equal(plain, on_tape.value)
        assert plain.shape == (len(idx), core.shape[2]) and plain.dtype == np.float64
        e, u = self.to_sorted(e, into, own), self.to_sorted(u, out, own)
        plain = ad.mode_outer(e, u, own)
        assert np.array_equal(plain, ad.mode_outer(tape.input(e), tape.input(u), own).value)
        assert plain.shape == core.shape and plain.flags.c_contiguous

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_second_order_against_fd(self, case, layout, rng):
        # The program of test_second_order_against_fd with e in the input
        # order: the chain by a core of identity slices carries e into the
        # output order on the tape, so both terms are again the sum over
        # samples of e_s C_i e_s^T and both sweeps cross take_rows on the
        # way into mode_matmul and back.
        idx, own, into, out, perm_in, _, rows, core, _ = self.setup_chained(case, layout, rng)
        rl, n = core.shape[:2]
        core = rng.standard_normal((rl, n, rl))  # square slices
        rows = rows[perm_in]
        zc, ze = rng.standard_normal(core.shape), rng.standard_normal(rows.shape)
        eye = np.repeat(np.eye(rl)[:, None, :], n, axis=1)
        in_row = np.argsort(perm_in)  # sample s is input row in_row[s]

        def quad(a, c, b):
            return np.einsum("sa,sab,sb->", a[in_row], per_sample_slices(c, idx), b[in_row])

        def value(c, e):
            return float(2.0 * quad(e, c, e))

        def directional(c, e):
            return float(2.0 * (quad(ze, c, e) + quad(e, zc, e) + quad(e, c, ze)))

        tape = ad.Tape()
        c, e = tape.input(core), tape.input(rows)
        e_out = self.chained(e, eye, own, into, out)
        outer = ad.mode_outer(self.to_sorted(e, into, own), self.to_sorted(e_out, out, own), own)
        out = ad.reduce_sum(outer * c) + ad.reduce_sum(self.chained(e, c, own, into, out) * e_out)
        assert np.isclose(out.value, value(core, rows), rtol=1e-12, atol=1e-12)
        g_c, g_e = ad.grad(tape, out, [c, e], as_vars=True)
        for got, want in zip((g_c, g_e), fd_gradient(value, [core, rows])):
            np.testing.assert_allclose(value_of(got), want,
                                       atol=1e-6 * np.abs(want).max(initial=1.0))
        inner = ad.reduce_sum(g_c * zc) + ad.reduce_sum(g_e * ze)
        got = ad.grad(tape, inner, [c, e])
        want = fd_gradient(directional, [core, rows], step=1e-3)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-8, atol=1e-8 * np.abs(w).max(initial=1.0))


class TestModeSort:
    @pytest.mark.parametrize("idx", [[0.5], [5], [-1]], ids=["fraction", "too_large", "negative"])
    def test_rejects_invalid_indices(self, idx):
        # Unchecked, a fraction would be truncated to value 0, and np.bincount
        # would reject out-of-range values with numpy's own errors.
        with pytest.raises(IndexError):
            ad.ModeSort(idx, 3)

    def test_reorder_chains(self, rng):
        # take_rows carries rows from one sort's order into another's or
        # into sample order (None), and two hops give the rows of one; the
        # sort of arange(N) over N values is the samples' own order.
        count = 50
        values = rng.standard_normal((count, 3))
        samples = ad.ModeSort(np.arange(count), count)
        sorts = []
        for n in (4, 7, 1):
            idx = rng.integers(0, n, count)
            sort = ad.ModeSort(idx, n)
            assert sort.bounds.dtype == np.intp
            for i in range(n):
                block = sort.order[sort.bounds[i]:sort.bounds[i + 1]]
                assert np.array_equal(block, np.flatnonzero(idx == i))
            sorts.append(sort)

        def sorted_rows(s):
            return values if s is None else values[s.order]

        for a in sorts:
            for b in sorts + [None]:
                moved = ad.take_rows(sorted_rows(a), a, b)
                assert np.array_equal(moved, sorted_rows(b))
                assert np.array_equal(ad.take_rows(moved, b or samples, a), sorted_rows(a))
                for c in sorts + [None]:
                    assert np.array_equal(ad.take_rows(moved, b or samples, c), sorted_rows(c))

    def test_arrays_are_read_only(self):
        # The mode ops trust a sort's arrays unchecked, so none can change.
        sort = ad.ModeSort([2, 0, 1, 2], 3)
        for a in (sort.order, sort.rank, sort.bounds):
            with pytest.raises(ValueError):
                a[0] = 1


class TestEntriesCores:
    @pytest.mark.parametrize("modes,ranks", [((5,), ()), ((4, 3), (3,)),
                                             ((3, 4, 2, 5), (2, 3, 2))],
                             ids=["d1", "d2", "d4"])
    def test_against_dense_entries(self, modes, ranks, rng):
        full = (1,) + ranks + (1,)
        cores = [rng.standard_normal((full[k], n, full[k + 1])) for k, n in enumerate(modes)]
        dense = cores[0]
        for core in cores[1:]:
            dense = np.tensordot(dense, core, axes=([-1], [0]))
        dense = dense.reshape(modes)
        idx = np.array([rng.integers(0, n, 9) for n in modes]).T
        want = dense[tuple(idx.T)]
        np.testing.assert_allclose(coreops.entries_cores(cores, idx), want,
                                   rtol=1e-13, atol=1e-13)
        tape = ad.Tape()
        vals = coreops.entries_cores([tape.input(c) for c in cores], idx)
        np.testing.assert_allclose(vals.value, want, rtol=1e-13, atol=1e-13)
        empty = coreops.entries_cores(cores, np.zeros((0, len(modes)), dtype=int))
        assert empty.shape == (0,)

    def test_gradient_against_fd(self, rng):
        cores = [rng.standard_normal(s) for s in ((1, 3, 2), (2, 4, 3), (3, 2, 2), (2, 3, 1))]
        idx = np.array([[0, 1, 1, 2], [2, 3, 0, 0], [0, 1, 1, 0], [1, 0, 1, 2], [0, 1, 0, 2]])
        w = rng.standard_normal(len(idx))

        def prog(*cs):
            return ad.reduce_sum(coreops.entries_cores(list(cs), idx) * w)

        check_against_fd(prog, lambda *cs: float(coreops.entries_cores(list(cs), idx) @ w),
                         cores)

    @pytest.mark.parametrize("bad,mode", [([[-1, 0, 0]], 0), ([[0, 4, 0]], 1), ([[0, 0, 2]], 2)])
    def test_out_of_range_names_mode(self, bad, mode, rng):
        cores = [rng.standard_normal(s) for s in ((1, 3, 2), (2, 4, 2), (2, 2, 1))]
        with pytest.raises(IndexError, match=f"mode {mode}"):
            coreops.entries_cores(cores, bad)

    @pytest.mark.parametrize("bad", [[[0.5, 0, 0]], [[0, np.nan, 0]], [[0, 0, np.inf]]])
    def test_non_integral_rejected(self, bad, rng):
        cores = [rng.standard_normal(s) for s in ((1, 3, 2), (2, 4, 2), (2, 2, 1))]
        with pytest.raises(IndexError, match="non-integral"):
            coreops.entries_cores(cores, np.array(bad))

    def test_integral_floats_accepted(self, rng):
        cores = [rng.standard_normal(s) for s in ((1, 3, 2), (2, 4, 2), (2, 2, 1))]
        idx = np.array([[2, 3, 1], [0, 1, 0]])
        assert np.array_equal(coreops.entries_cores(cores, idx.astype(float)),
                              coreops.entries_cores(cores, idx))


class TestStopGradient:
    def test_value_passthrough(self, rng):
        # The same float64 array on and off a tape, and no node recorded.
        x = rng.standard_normal((2, 3))
        plain = ad.stop_gradient(x)
        tape = ad.Tape()
        on_tape = ad.stop_gradient(tape.input(x))
        for out in (plain, on_tape):
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert np.array_equal(out, x)
        assert len(tape) == 1

    def test_one_frozen_factor(self, rng):
        x = rng.standard_normal((3, 3))
        tape, out = ad.record(
            [x], lambda v: ad.contract(ad.stop_gradient(v), v, [(0, 0), (1, 1)])
        )
        (g,) = ad.grad(tape, out, [tape.nodes[0]])
        np.testing.assert_allclose(g, x, atol=1e-14)

    def test_fully_frozen_gives_zero(self, rng):
        x = rng.standard_normal((3,))
        tape, out = ad.record([x], lambda v: ad.reduce_sum(ad.stop_gradient(v)))
        (g,) = ad.grad(tape, out, [tape.nodes[0]])
        assert np.abs(g).max() == 0.0

    def test_blocks_nested_sweeps(self):
        # d/dx of x * d/dx[ x * c(x) ] must treat c(x) as constant twice over
        tape = ad.Tape()
        x = tape.input(3.0)
        inner = ad.mul(x, ad.stop_gradient(x))
        (gi,) = ad.grad(tape, inner, [x], as_vars=True)  # == c(x)
        out = ad.mul(x, gi)
        (go,) = ad.grad(tape, out, [x])
        assert go == 3.0  # d/dx (x * c(x)) with frozen c = c(x) = 3


class TestNestedAd:
    def test_fourth_power_second_derivative(self):
        tape, out = ad.record([2.0], lambda v: (v * v) * (v * v))
        (g1,) = ad.grad(tape, out, [tape.nodes[0]], as_vars=True)
        (g2,) = ad.grad(tape, g1, [tape.nodes[0]])
        assert g2 == 48.0  # 12 x^2 at x = 2

    def test_second_derivative_matrix_program(self, rng):
        x = rng.standard_normal((3,))
        z = rng.standard_normal((3,))
        # f(x) = sum(exp(x)); hessian diag(exp(x)); check H z by nesting
        tape = ad.Tape()
        v = tape.input(x)
        out = ad.reduce_sum(ad.exp(v))
        (g,) = ad.grad(tape, out, [v], as_vars=True)
        w = ad.reduce_sum(ad.mul(g, z))
        (hz,) = ad.grad(tape, w, [v])
        np.testing.assert_allclose(hz, np.exp(x) * z, rtol=1e-12)

    def test_gradient_independent_of_inputs(self):
        # A linear program's gradient is a constant: the recording sweep
        # returns it as a plain array, and its own derivative is zero.
        tape, out = ad.record([np.ones(2)], lambda x: ad.reduce_sum(x * 3.0))
        (g,) = ad.grad(tape, out, tape.nodes[:1], as_vars=True)
        assert not isinstance(g, ad.Var)
        np.testing.assert_array_equal(value_of(g), [3.0, 3.0])
        (h,) = ad.grad(tape, ad.reduce_sum(g * np.array([1.0, 2.0])), tape.nodes[:1])
        np.testing.assert_array_equal(h, np.zeros(2))


class TestPermutedContract:
    # Key -> (shape of a, shape of b, a callable returning the axes): negative
    # axes, an iterator of pairs, no pairs (outer product) and every axis
    # paired (scalar).  Each is checked under every order of its result axes.
    CASES = {
        "negative": ((2, 3, 4), (3, 5, 2), lambda: [(-2, 0)]),
        "iterator": ((2, 3, 4), (4, 3, 2), lambda: zip((2, -2), (0, 1))),
        "outer": ((2, 3), (2,), lambda: []),
        "scalar": ((2, 3), (3, 2), lambda: [(0, 1), (1, 0)]),
    }

    @staticmethod
    def perms(case):
        shape_a, shape_b, axes = case
        pairs = list(axes())
        return list(itertools.permutations(range(len(shape_a) + len(shape_b) - 2 * len(pairs))))

    @staticmethod
    def reference(a, b, axes, perm):
        pairs = list(axes())
        return np.transpose(np.tensordot(a, b, ([p for p, _ in pairs], [q for _, q in pairs])),
                            perm)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_value_is_transposed_tensordot(self, case, rng):
        # The GEMM may sum in another order than np.tensordot, so the value
        # is held to tensordot in extended precision by the standard
        # dot-product error bound 2 K eps (|a| |b|), K the contracted extent.
        # On and off a tape, and from one call to the next, it is the same
        # bytes.
        shape_a, shape_b, axes = case
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        extent = math.prod(shape_a[p] for p, _ in axes())
        eps = np.finfo(np.float64).eps
        for perm in self.perms(case):
            want = self.reference(a.astype(np.longdouble), b.astype(np.longdouble), axes, perm)
            bound = 2 * extent * eps * self.reference(np.abs(a), np.abs(b), axes, perm)
            got = ad.contract(a, b, axes(), perm)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.all(np.abs(got - want) <= bound)
            tape = ad.Tape()
            for again in (ad.contract(a, b, axes(), perm),
                          ad.contract(tape.input(a), b, axes(), perm).value):
                assert np.ascontiguousarray(again).tobytes() == np.ascontiguousarray(got).tobytes()

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_gradient_against_fd(self, case, rng):
        shape_a, shape_b, axes = case
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        for perm in self.perms(case):
            w = rng.standard_normal(self.reference(a, b, axes, perm).shape)
            check_against_fd(
                lambda u, v: ad.reduce_sum(ad.contract(u, v, axes(), perm) * w),
                lambda u, v: float(np.sum(self.reference(u, v, axes, perm) * w)), [a, b])

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_second_order_against_fd(self, case, rng):
        # f(a, b) = sum(w * C(a, b)^2) for C the permuted contraction.  Nested
        # AD gives the HVP in direction (za, zb), checked against central
        # differences of the hand-written Df[za, zb] = 2 sum(w C (C(za, b) +
        # C(a, zb))), quadratic in each entry of a and of b, so the
        # differences are exact up to rounding.
        shape_a, shape_b, axes = case
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        za, zb = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        for perm in self.perms(case):
            w = rng.standard_normal(self.reference(a, b, axes, perm).shape)

            def directional(u, v):
                c = self.reference(u, v, axes, perm)
                dc = self.reference(za, v, axes, perm) + self.reference(u, zb, axes, perm)
                return float(2.0 * np.sum(w * c * dc))

            tape = ad.Tape()
            u, v = tape.input(a), tape.input(b)
            c = ad.contract(u, v, axes(), perm)
            g_a, g_b = ad.grad(tape, ad.reduce_sum(c * c * w), [u, v], as_vars=True)
            inner = ad.reduce_sum(g_a * za) + ad.reduce_sum(g_b * zb)
            got = ad.grad(tape, inner, [u, v])
            want = fd_gradient(directional, [a, b], step=1e-3)
            for g, gw in zip(got, want):
                np.testing.assert_allclose(g, gw, rtol=1e-8, atol=1e-8 * np.abs(gw).max())

    @pytest.mark.parametrize("perm", [(0,), (0, 1, 2), (1, 1), (0, 2)],
                             ids=["short", "long", "repeated", "past_end"])
    def test_bad_perm_rejected(self, perm):
        # A perm must order the result's axes, each once.
        a, b = np.ones((2, 3)), np.ones((3, 4))
        error = IndexError if perm == (0, 2) else DimensionError
        TestSameOnAndOffTape.check_raises([a, b], lambda u, v: ad.contract(u, v, [(1, 0)], perm),
                                          error)

    def test_repeated_axis_rejected(self):
        TestSameOnAndOffTape.check_raises(
            [np.ones((3, 3)), np.ones((3, 3))],
            lambda u, v: ad.contract(u, v, [(0, 0), (0, 1)]), DimensionError)

    def test_mismatch_raises_after_nearby_plan(self):
        # Plans are cached per shapes, so a cached plan for (2, 3) x (3, 4)
        # does not let (2, 3) x (4, 4) through.
        ad.contract(np.ones((2, 3)), np.ones((3, 4)), [(1, 0)], (1, 0))
        ad.contract(np.ones((2, 3)), np.ones((3, 4)), [(1, 0)])
        for perm in (None, (1, 0)):
            TestSameOnAndOffTape.check_raises(
                [np.ones((2, 3)), np.ones((4, 4))],
                lambda u, v: ad.contract(u, v, [(1, 0)], perm), DimensionError)

    @pytest.mark.parametrize("make", ["quadratic_form", "gram_quadratic_form",
                                      "rayleigh_quotient"])
    def test_hvp_inner_sweep_records_no_transpose(self, make, rng, monkeypatch):
        from ttriem import objectives
        from ttriem.tt import orthogonalize, random_symmetric_ttmat, random_tt
        from ttriem.ttmanifold import hess_vec_tt, project_tt

        modes = (3, 2, 3)
        base = orthogonalize(random_tt(rng, modes, 2))
        z = project_tt(base, random_tt(rng, modes, 2))
        obj = getattr(objectives, make)(random_symmetric_ttmat(rng, modes, 2))
        ops = []
        sweep = ad.grad

        def counting_grad(tape, *args, as_vars=False):
            before = len(tape)
            out = sweep(tape, *args, as_vars=as_vars)
            if as_vars:
                ops.append(Counter(node.op for node in tape.nodes[before:]))
            return out

        monkeypatch.setattr(ad, "grad", counting_grad)
        hess_vec_tt(obj.evaluate, base, z)
        assert len(ops) == 1 and ops[0]["contract"] > 0 and ops[0]["transpose"] == 0

    def test_hvp_reads_larger_operands_in_place(self, rng, monkeypatch):
        # BLAS reads the larger operand of every contraction at an interior
        # mode (no operand has an axis of extent 1) of a qf, gram and
        # Rayleigh HVP as a view, and every matrix operator core of a
        # matrix-manifold qf HVP too: no such operand is copied.
        from ttriem import objectives
        from ttriem.matrix import FixedRankPoint, hess_vec_matrix, project_matrix
        from ttriem.tt import orthogonalize, random_symmetric_ttmat, random_tt
        from ttriem.ttmanifold import hess_vec_tt, project_tt

        calls, blas_args = [], None

        def reading(blas):
            def call(*args):
                if blas_args is not None:
                    blas_args.extend(args)
                return blas(*args)
            return call

        contract = ad.contract

        def recording_contract(a, b, *args):
            nonlocal blas_args
            blas_args = []
            try:
                return contract(a, b, *args)
            finally:
                calls.append(([value_of(x) for x in (a, b)], blas_args))
                blas_args = None

        def read_in_place(operand, args):
            return any(np.shares_memory(operand, x) for x in args)

        monkeypatch.setattr(np, "dot", reading(np.dot))
        monkeypatch.setattr(np, "matmul", reading(np.matmul))
        monkeypatch.setattr(ad, "contract", recording_contract)
        modes = (4, 4, 4, 4)
        base = orthogonalize(random_tt(rng, modes, 3))
        z = project_tt(base, random_tt(rng, modes, 3))
        a = random_symmetric_ttmat(rng, modes, 2)
        for make in ("quadratic_form", "gram_quadratic_form", "rayleigh_quotient"):
            calls.clear()
            hess_vec_tt(getattr(objectives, make)(a).evaluate, base, z)
            interior = [(vals, args) for vals, args in calls
                        if all(1 not in v.shape for v in vals)]
            assert len(interior) > 10, make
            for vals, args in interior:
                larger = max(v.size for v in vals)
                assert any(read_in_place(v, args) for v in vals if v.size == larger), (
                    make, [v.shape for v in vals])

        obj = objectives.quadratic_form(random_symmetric_ttmat(rng, (12, 12), 2))
        point = FixedRankPoint.from_dense(rng.standard_normal((12, 12)), 2)
        calls.clear()
        hess_vec_matrix(obj.factor_program(), point,
                        project_matrix(point, rng.standard_normal((12, 12))))
        with_core = [(core, args) for vals, args in calls for core in obj.operator.cores
                     if any(v is core for v in vals)]
        assert len(with_core) > 4
        assert all(read_in_place(core, args) for core, args in with_core)


class TestCostContract:
    # The budgets count the adjoint structure a recording sweep
    # (as_vars=True) appends; a value-only sweep appends none
    # (TestValueOnlySweep).
    PROGRAMS = [
        lambda v: ad.reduce_sum(ad.exp(ad.sin(v)) * v),
        lambda v: ad.reduce_sum(ad.cos(v * v) / (v * v + 2.0)),
        lambda v: ad.contract(v, v, [(0, 0), (1, 1)]),
    ]

    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("prog_id", range(len(PROGRAMS)))
    def test_sweep_node_budget(self, size, prog_id, rng):
        x = rng.standard_normal((size, size))
        tape, out = ad.record([x], self.PROGRAMS[prog_id])
        primal_nodes = len(tape)
        ad.grad(tape, out, [tape.nodes[0]], as_vars=True)
        sweep_nodes = len(tape) - primal_nodes
        assert sweep_nodes <= 4 * primal_nodes

    @pytest.mark.parametrize("a_is_input,contracts", [(False, 1), (True, 2)])
    def test_constant_operand_costs_no_adjoint(self, a_is_input, contracts, rng, monkeypatch):
        # Only Var operands get an adjoint: with A a plain array the sweep
        # of sum(A x) contracts once (for x), with A an input twice.  The
        # calls are counted, because a contraction of constants (the seed
        # with A) computes a plain array and records no node.
        tape = ad.Tape()
        x = tape.input(rng.standard_normal(4))
        a = rng.standard_normal((3, 4))
        if a_is_input:
            a = tape.input(a)
        out = ad.reduce_sum(ad.contract(a, x, [(1, 0)]))
        calls = []
        contract = ad.contract

        def counting_contract(*args):
            calls.append(args)
            return contract(*args)

        monkeypatch.setattr(ad, "contract", counting_contract)
        ad.grad(tape, out, [x], as_vars=True)
        assert len(calls) == contracts

    def test_budget_independent_of_size(self, rng):
        counts = []
        for size in (2, 4, 8, 16):
            x = rng.standard_normal((size,))
            tape, out = ad.record([x], self.PROGRAMS[0])
            primal = len(tape)
            ad.grad(tape, out, [tape.nodes[0]], as_vars=True)
            counts.append((len(tape) - primal) / primal)
        assert max(counts) == min(counts)  # purely structural


class TestValueOnlySweep:
    # The cost-contract programs, and one whose rules build plain zeros and
    # ones (slice_along, reduce_sum over axes, concat).
    PROGRAMS = TestCostContract.PROGRAMS + [
        lambda v: ad.reduce_sum(ad.sin(ad.reduce_sum(
            ad.concat([ad.slice_along(v, 0, 1, 3), ad.exp(v)], 0), axes=(1,))) * 3.0),
    ]

    @pytest.mark.parametrize("prog_id", range(len(PROGRAMS)))
    def test_appends_no_node_and_matches_recording_sweep(self, prog_id, rng):
        x = rng.standard_normal((4, 3))
        tape, out = ad.record([x], self.PROGRAMS[prog_id])
        primal = len(tape)
        (g,) = ad.grad(tape, out, [tape.nodes[0]])
        assert len(tape) == primal
        tape, out = ad.record([x], self.PROGRAMS[prog_id])
        (gv,) = ad.grad(tape, out, [tape.nodes[0]], as_vars=True)
        assert isinstance(g, np.ndarray) and isinstance(gv, ad.Var)
        assert np.array_equal(g, gv.value)

    def test_raising_rule_leaves_tape_recording(self):
        def boom(u):
            raise RuntimeError("rule failed")

        tape = ad.Tape()
        x = tape.input(np.ones(3))
        out = ad.reduce_sum(ad.Var(tape, ad.exp(x).value, "boom", (x,), (boom,)))
        with pytest.raises(RuntimeError, match="rule failed"):
            ad.grad(tape, out, [x])
        assert tape.recording
        before = len(tape)
        assert isinstance(ad.exp(x), ad.Var) and len(tape) == before + 1

    def test_hess_vec_outer_sweep_appends_no_node(self, rng, monkeypatch):
        from ttriem.objectives import quadratic_form
        from ttriem.tt import orthogonalize, random_symmetric_ttmat, random_tt
        from ttriem.ttmanifold import hess_vec_tt, project_tt

        modes = (2, 3, 2)
        base = orthogonalize(random_tt(rng, modes, 2))
        z = project_tt(base, random_tt(rng, modes, 2))
        obj = quadratic_form(random_symmetric_ttmat(rng, modes, 2))
        sweeps = []
        sweep = ad.grad

        def counting_grad(tape, *args, as_vars=False):
            before = len(tape)
            out = sweep(tape, *args, as_vars=as_vars)
            sweeps.append((as_vars, len(tape) - before))
            return out

        monkeypatch.setattr(ad, "grad", counting_grad)
        hess_vec_tt(obj.evaluate, base, z)
        assert [as_vars for as_vars, _ in sweeps] == [True, False]
        assert sweeps[0][1] > 0 and sweeps[1][1] == 0


class TestTapeClear:
    def test_cleared_tape_freed_without_collector(self, rng):
        tape, out = ad.record([rng.standard_normal(3)], lambda v: ad.exp(v * v).sum())
        (g,) = ad.grad(tape, out, [tape.nodes[0]], as_vars=True)
        ad.grad(tape, g.sum(), [tape.nodes[0]])
        ref = weakref.ref(tape)
        del out, g
        gc.disable()
        try:
            tape.clear()
            assert len(tape) == 0
            del tape
            assert ref() is None
        finally:
            gc.enable()


class TestShapes:
    def test_elementwise_shape_mismatch(self):
        tape = ad.Tape()
        a = tape.input(np.ones((2, 3)))
        b = tape.input(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            ad.add(a, b)

    def test_scalar_broadcast_gradient(self, rng):
        x = rng.standard_normal((3, 2))

        def prog(a, s):
            return ad.reduce_sum(a * s)

        tape, out = ad.record([x, np.asarray(2.0)], prog)
        ga, gs = ad.grad(tape, out, [tape.nodes[0], tape.nodes[1]])
        np.testing.assert_allclose(ga, 2.0 * np.ones((3, 2)))
        np.testing.assert_allclose(gs, x.sum())

    def test_slice_along_negative_axis_on_array(self):
        assert ad.slice_along(np.zeros((2, 7)), -1, 0, 2).shape == (2, 2)


class TestVarOperators:
    def test_reflected_and_power_operators(self, rng):
        x = rng.uniform(0.5, 2.0, (2, 3))
        m = rng.standard_normal((3, 4))
        tape = ad.Tape()
        v = tape.input(x)
        np.testing.assert_array_equal((1.0 - v).value, 1.0 - x)
        np.testing.assert_array_equal((1.0 / v).value, 1.0 / x)
        np.testing.assert_array_equal((v ** 3).value, x * x * x)
        np.testing.assert_array_equal((v @ m).value, np.tensordot(x, m, axes=([1], [0])))
        np.testing.assert_array_equal(v.reshape((3, 2)).value, x.reshape(3, 2))
        np.testing.assert_array_equal(ad.reshape(v, 6).value, x.reshape(6))
        (g,) = ad.grad(tape, ad.reduce_sum(v ** 3), [v])
        np.testing.assert_allclose(g, 3.0 * x * x, rtol=1e-14)

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_power_rejects_non_positive_integer(self, n):
        v = ad.Tape().input(np.ones(2))
        with pytest.raises(UnsupportedOperationError):
            v ** n

    def test_repr_names_op_shape_and_index(self):
        tape = ad.Tape()
        tape.input(1.0)
        assert repr(tape.input(np.ones((2, 3)))) == "Var(op='input', shape=(2, 3), index=1)"


SORT = ad.ModeSort([2, 0, 1, 2, 0], 3)


class TestSameOnAndOffTape:
    # Key "op" or "op/variant" -> (operand shapes, call).  Each operand is
    # passed as an array and, in every combination, as a tape input.
    CASES = {
        "contract": ([(2, 3, 4), (4, 3)], lambda a, b: ad.contract(a, b, zip((2, -2), (0, 1)))),
        "contract/outer": ([(2,), (3,)], lambda a, b: ad.contract(a, b, [])),
        "contract/perm": ([(2, 3, 4), (4, 5)], lambda a, b: ad.contract(a, b, [(2, 0)], (2, 0, 1))),
        "reshape": ([(2, 3)], lambda a: ad.reshape(a, (3, 2))),
        "transpose": ([(2, 3, 4)], lambda a: ad.transpose(a, (2, -3, 1))),
        "concat": ([(2, 3), (2, 1), (2, 2)], lambda *p: ad.concat(list(p), -1)),
        "slice_along": ([(2, 5)], lambda a: ad.slice_along(a, -1, 1, 4)),
        "add": ([(2, 3), ()], ad.add),
        "sub": ([(), (2, 3)], ad.sub),
        "mul": ([(2, 3), (2, 3)], ad.mul),
        "div": ([(2, 3), (2, 3)], ad.div),
        "neg": ([(2, 3)], ad.neg),
        "exp": ([(2, 3)], ad.exp),
        "log": ([(2, 3)], ad.log),
        "sin": ([(2, 3)], ad.sin),
        "cos": ([(2, 3)], ad.cos),
        "sigmoid": ([(2, 3)], ad.sigmoid),
        "softplus": ([(2, 3)], ad.softplus),
        "reduce_sum": ([(2, 3, 4)], lambda a: ad.reduce_sum(a, (-1, 0))),
        "reduce_sum/all": ([(2, 3)], ad.reduce_sum),
        "add_n": ([(2, 3), (2, 3), (2, 3)], lambda *p: ad.add_n(list(p))),
        "gather_mode": ([(2, 4, 3)], lambda c: ad.gather_mode(c, [3, 0, 0, 2])),
        "scatter_mode": ([(4, 2, 3)], lambda m: ad.scatter_mode(m, [3, 0, 0, 2], 5)),
        "batch_matmul": ([(4, 2, 3), (4, 3, 2)], ad.batch_matmul),
        "take_rows": ([(5, 2)], lambda r: ad.take_rows(r, SORT, None)),
        "mode_matmul": ([(5, 2), (2, 3, 4)], lambda r, c: ad.mode_matmul(r, c, SORT)),
        "mode_outer": ([(5, 2), (5, 3)], lambda r, u: ad.mode_outer(r, u, SORT)),
        "stop_gradient": ([(2, 3)], ad.stop_gradient),
    }
    # Ops that give back the plain value and record no node on a tape.
    NO_NODE = {"stop_gradient"}
    # Inputs each op rejects with its own DimensionError, on arrays and on a
    # tape alike, where numpy would broadcast, clip or raise its own error.
    INVALID = {
        "add_broadcast": ([np.ones(3), np.ones((2, 3))], ad.add),
        "mul_broadcast": ([np.ones((2, 1)), np.ones((2, 3))], ad.mul),
        "slice_past_end": ([np.arange(3.0)], lambda a: ad.slice_along(a, 0, 2, 5)),
        "batch_matmul_broadcast": ([np.ones((1, 2, 3)), np.ones((4, 3, 2))], ad.batch_matmul),
        "gather_mode_2d": ([np.ones((2, 3))], lambda c: ad.gather_mode(c, [0, 1])),
        "add_n_empty": ([], lambda *p: ad.add_n(list(p))),
        "take_rows_wrong_length": ([np.ones((6, 2))], lambda r: ad.take_rows(r, SORT, None)),
        "take_rows_want_of_other_length": ([np.ones((5, 2))],
                                           lambda r: ad.take_rows(r, SORT, ad.ModeSort([0, 1], 2))),
        "mode_matmul_wrong_mode_size": ([np.ones((5, 2)), np.ones((2, 4, 3))],
                                        lambda r, c: ad.mode_matmul(r, c, SORT)),
        "concat_mismatched": ([np.ones((2, 3)), np.ones((3, 3))],
                              lambda *p: ad.concat(list(p), 1)),
        "concat_empty": ([], lambda *p: ad.concat(list(p), 0)),
    }
    # Axes past the last one, which were wrapped around on a tape.
    AXIS_OUT_OF_RANGE = {
        "contract": ([np.ones((2, 3)), np.ones(3)], lambda a, b: ad.contract(a, b, [(3, 0)])),
        "slice_along": ([np.ones((2, 3))], lambda a: ad.slice_along(a, 2, 0, 1)),
        "concat": ([np.ones((2, 3)), np.ones((2, 3))], lambda *p: ad.concat(list(p), 2)),
        "reduce_sum": ([np.ones((2, 3))], lambda a: ad.reduce_sum(a, (0, 2))),
    }

    def test_every_op_has_a_case(self):
        ops = {name for name in ad.__all__ if not isinstance(getattr(ad, name), type)}
        assert ops - {"record", "grad"} <= {key.split("/")[0] for key in self.CASES}

    @pytest.mark.parametrize("key", CASES)
    def test_same_value(self, key, rng):
        shapes, call = self.CASES[key]
        arrays = [rng.uniform(0.5, 2.0, shape) for shape in shapes]
        plain = call(*arrays)
        assert np.asarray(plain).dtype == np.float64
        for mask in range(1, 2 ** len(arrays)):
            tape = ad.Tape()
            args = [tape.input(a) if mask >> i & 1 else a for i, a in enumerate(arrays)]
            out = call(*args)
            if key in self.NO_NODE:
                assert type(out) is np.ndarray and len(tape) == bin(mask).count("1")
                value = out
            else:
                assert isinstance(out, ad.Var)
                value = out.value
            assert np.shape(plain) == value.shape and np.array_equal(plain, value)

    @pytest.mark.parametrize("key", INVALID)
    def test_same_dimension_error(self, key):
        self.check_raises(*self.INVALID[key], DimensionError)

    @pytest.mark.parametrize("key", AXIS_OUT_OF_RANGE)
    def test_axis_out_of_range(self, key):
        self.check_raises(*self.AXIS_OUT_OF_RANGE[key], IndexError)

    @staticmethod
    def check_raises(arrays, call, error):
        with pytest.raises(error):
            call(*arrays)
        tape = ad.Tape()
        with pytest.raises(error):
            call(*[tape.input(a) for a in arrays])
