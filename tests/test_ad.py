import gc
import weakref

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
        tape, out = ad.record([], lambda: 3.5)
        assert len(tape) == 1 and out.value == 3.5

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

        def prog(*vs):
            w = vs[0].tape.const(rng.standard_normal((3, 5)))
            return ad.reduce_sum(op(*vs) * w)

        tape, out = ad.record(args, prog)
        got = ad.grad(tape, out, [tape.nodes[i] for i in range(arity)])
        tape_w = tape.nodes[arity]  # the weight const recorded right after the inputs

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
            return float(np.sum(func(*vals) * tape_w.value))

        want = fd_gradient(ref, args)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-6 * max(np.abs(w).max(), 1.0))

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
            return ad.reduce_sum(ad.reduce_sum(a, (0, 2)) * a.tape.const(w))

        def ref(a):
            return float(np.sum(a.sum(axis=(0, 2)) * w))

        check_against_fd(prog, ref, [x])

    @pytest.mark.parametrize("axes", AXES.values(), ids=AXES.keys())
    def test_contract_vs_fd(self, axes, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 3, 5))
        w = rng.standard_normal((2, 5))

        def prog(u, v):
            return ad.reduce_sum(ad.contract(u, v, axes["pairs"]) * u.tape.const(w))

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
            return ad.reduce_sum(ad.batch_matmul(g, o) * c.tape.const(w))

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
    # (N, r_l, r_r, n, idx); the wide_mode cases have n > r_l * r_r, where
    # the one-hot matrix outgrows its input.
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
        np.testing.assert_allclose(g1.value, fd_gradient(
            lambda v: float(np.sum((slices(v) @ slices(v)) * slices(v))), [core])[0], atol=1e-6)
        (hz,) = ad.grad(tape, ad.reduce_sum(g1 * tape.const(z)), [c])
        want = fd_gradient(directional, [core], step=1e-3)[0]
        np.testing.assert_allclose(hz, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


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
        # sample order is the grouping's own; the chained tests keep the
        # case's own order instead.
        count, rl, rr, n, idx = case
        idx = np.asarray(idx, dtype=np.intp)
        assert len(idx) == count
        if not shuffled:
            idx = np.sort(idx, kind="stable")
        return (idx, ad.ModeSort(idx, n).groups(None), rng.standard_normal((count, rl)),
                rng.standard_normal((rl, n, rr)), rng.standard_normal((count, rr)))

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_per_sample_reference(self, case, rng):
        idx, groups, rows, core, u = self.setup_case(case, rng)
        n = core.shape[1]
        want = np.einsum("sa,sab->sb", rows, per_sample_slices(core, idx))
        np.testing.assert_allclose(ad.mode_matmul(rows, core, groups), want,
                                   rtol=1e-13, atol=1e-13)
        outer = rows[:, :, None] * u[:, None, :]
        np.testing.assert_allclose(ad.mode_outer(rows, u, groups, n),
                                   add_at_scatter(outer, idx, n), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_outer_is_matmul_adjoint(self, case, rng):
        # <mode_outer(e, u), G> = <u, mode_matmul(e, G)>
        idx, groups, rows, core, u = self.setup_case(case, rng)
        lhs = np.sum(ad.mode_outer(rows, u, groups, core.shape[1]) * core)
        rhs = np.sum(u * ad.mode_matmul(rows, core, groups))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(lhs))

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_same_bits_on_array_and_var(self, case, rng):
        idx, groups, rows, core, u = self.setup_case(case, rng)
        n = core.shape[1]
        tape = ad.Tape()
        plain = ad.mode_matmul(rows, core, groups)
        on_tape = ad.mode_matmul(tape.input(rows), tape.input(core), groups)
        assert np.array_equal(plain, on_tape.value)
        assert plain.shape == (len(idx), core.shape[2]) and plain.dtype == np.float64
        plain = ad.mode_outer(rows, u, groups, n)
        on_tape = ad.mode_outer(tape.input(rows), tape.input(u), groups, n)
        assert np.array_equal(plain, on_tape.value)
        assert plain.shape == core.shape and plain.flags.c_contiguous

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_second_order_against_fd(self, case, rng):
        # f(c, e) = <mode_outer(e, e), c> + sum(mode_matmul(e, c) * e), both
        # terms the sum over samples of e_s C_i e_s^T with i the sample's mode
        # value.  Nested AD gives the HVP in direction (zc, ze), checked
        # against central differences of the hand-written Df[zc, ze], which
        # is quadratic, so the differences are exact up to rounding.
        idx, groups, rows, core, _ = self.setup_case(case, rng)
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
        out = (ad.reduce_sum(ad.mode_outer(e, e, groups, n) * c)
               + ad.reduce_sum(ad.mode_matmul(e, c, groups) * e))
        assert np.isclose(out.value, value(core, rows), rtol=1e-12, atol=1e-12)
        g_c, g_e = ad.grad(tape, out, [c, e], as_vars=True)
        for got, want in zip((g_c, g_e), fd_gradient(value, [core, rows])):
            np.testing.assert_allclose(got.value, want, atol=1e-6 * np.abs(want).max(initial=1.0))
        inner = ad.reduce_sum(g_c * tape.const(zc)) + ad.reduce_sum(g_e * tape.const(ze))
        got = ad.grad(tape, inner, [c, e])
        want = fd_gradient(directional, [core, rows], step=1e-3)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-8, atol=1e-8 * np.abs(w).max(initial=1.0))

    def test_groups_must_match(self, rng):
        groups = ad.ModeSort([0, 1, 1], 2).groups(None)
        with pytest.raises(DimensionError):
            ad.mode_matmul(rng.standard_normal((3, 2)), rng.standard_normal((2, 3, 2)), groups)
        with pytest.raises(DimensionError):
            ad.mode_matmul(rng.standard_normal((4, 2)), rng.standard_normal((2, 2, 2)), groups)
        with pytest.raises(DimensionError):
            ad.mode_outer(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), groups, 3)


    # Chained groupings: rows come in in this mode's sorted order ("own")
    # and go out in it (no take), in a second mode's ("second") or in the
    # samples' own (None).  "second_in_own_out" is the inverse of the
    # grouping that hands rows out in the second mode's order: the one an
    # adjoint sweep runs through.
    LAYOUTS = {
        "own_in": (None, False),
        "own_in_second_out": ("second", False),
        "second_in_own_out": ("second", True),
        "own_both": ("own", False),
    }

    def setup_chained(self, case, layout, rng):
        # Rows, core and u as in setup_case, plus each side's sample order:
        # the op takes rows[perm_in] and its adjoint u[perm_out].
        idx, _, rows, core, u = self.setup_case(case, rng, shuffled=True)
        sorts = {"own": ad.ModeSort(idx, core.shape[1]),
                 "second": ad.ModeSort(rng.integers(0, 5, len(idx)), 5), None: None}
        out, inverted = layout
        groups = sorts["own"].groups(sorts[out])
        perm_in, perm_out = (np.arange(len(idx)) if s is None else s.order
                             for s in (sorts["own"], sorts[out]))
        if inverted:
            groups, perm_in, perm_out = groups.inverse, perm_out, perm_in
        return idx, groups, perm_in, perm_out, rows, core, u

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_matches_per_sample_reference(self, case, layout, rng):
        idx, groups, perm_in, perm_out, rows, core, u = self.setup_chained(case, layout, rng)
        n = core.shape[1]
        want = np.einsum("sa,sab->sb", rows, per_sample_slices(core, idx))
        np.testing.assert_allclose(ad.mode_matmul(rows[perm_in], core, groups), want[perm_out],
                                   rtol=1e-13, atol=1e-13)
        outer = rows[:, :, None] * u[:, None, :]
        np.testing.assert_allclose(ad.mode_outer(rows[perm_in], u[perm_out], groups, n),
                                   add_at_scatter(outer, idx, n), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_adjoint_identities(self, case, layout, rng):
        # <mode_outer(e, u), G> = <u, mode_matmul(e, G)> = <mode_matmul(u,
        # G^T) over the inverse grouping, e>, with e in the input order and
        # u in the output order.
        idx, groups, perm_in, perm_out, rows, core, u = self.setup_chained(case, layout, rng)
        e, u = rows[perm_in], u[perm_out]
        mid = np.sum(u * ad.mode_matmul(e, core, groups))
        lhs = np.sum(ad.mode_outer(e, u, groups, core.shape[1]) * core)
        rhs = np.sum(e * ad.mode_matmul(u, np.transpose(core, (2, 1, 0)), groups.inverse))
        for other in (lhs, rhs):
            assert abs(other - mid) <= 1e-12 * max(1.0, np.abs(mid))
        assert groups.inverse.inverse is groups

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_same_bits_on_array_and_var(self, case, layout, rng):
        idx, groups, perm_in, perm_out, rows, core, u = self.setup_chained(case, layout, rng)
        e, u = rows[perm_in], u[perm_out]
        n = core.shape[1]
        tape = ad.Tape()
        plain = ad.mode_matmul(e, core, groups)
        assert np.array_equal(plain, ad.mode_matmul(tape.input(e), tape.input(core), groups).value)
        assert plain.shape == (len(idx), core.shape[2]) and plain.dtype == np.float64
        plain = ad.mode_outer(e, u, groups, n)
        assert np.array_equal(plain, ad.mode_outer(tape.input(e), tape.input(u), groups, n).value)
        assert plain.shape == core.shape and plain.flags.c_contiguous

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_chained_second_order_against_fd(self, case, layout, rng):
        # The program of test_second_order_against_fd with e in the input
        # order; mode_matmul by a core of identity slices carries e into the
        # output order on the tape, so both terms are again the sum over
        # samples of e_s C_i e_s^T and the rows adjoint runs through the
        # inverse grouping in both sweeps.
        idx, groups, perm_in, _, rows, core, _ = self.setup_chained(case, layout, rng)
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
        e_out = ad.mode_matmul(e, eye, groups)
        out = (ad.reduce_sum(ad.mode_outer(e, e_out, groups, n) * c)
               + ad.reduce_sum(ad.mode_matmul(e, c, groups) * e_out))
        assert np.isclose(out.value, value(core, rows), rtol=1e-12, atol=1e-12)
        g_c, g_e = ad.grad(tape, out, [c, e], as_vars=True)
        for got, want in zip((g_c, g_e), fd_gradient(value, [core, rows])):
            np.testing.assert_allclose(got.value, want, atol=1e-6 * np.abs(want).max(initial=1.0))
        inner = ad.reduce_sum(g_c * tape.const(zc)) + ad.reduce_sum(g_e * tape.const(ze))
        got = ad.grad(tape, inner, [c, e])
        want = fd_gradient(directional, [core, rows], step=1e-3)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-8, atol=1e-8 * np.abs(w).max(initial=1.0))


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
            return ad.reduce_sum(coreops.entries_cores(list(cs), idx) * cs[0].tape.const(w))

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
        x = rng.standard_normal((2, 3))
        tape = ad.Tape()
        v = tape.input(x)
        assert np.array_equal(ad.stop_gradient(v).value, x)

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
        w = ad.reduce_sum(ad.mul(g, tape.const(z)))
        (hz,) = ad.grad(tape, w, [v])
        np.testing.assert_allclose(hz, np.exp(x) * z, rtol=1e-12)


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
    def test_constant_operand_costs_no_adjoint(self, a_is_input, contracts, rng):
        # Only differentiable operands get an adjoint: with A constant the
        # sweep of sum(A x) contracts once (for x), with A an input twice.
        tape = ad.Tape()
        x = tape.input(rng.standard_normal(4))
        a = rng.standard_normal((3, 4))
        a = tape.input(a) if a_is_input else tape.const(a)
        out = ad.reduce_sum(ad.contract(a, x, [(1, 0)]))
        primal = len(tape)
        ad.grad(tape, out, [x], as_vars=True)
        assert [n.op for n in tape.nodes[primal:]].count("contract") == contracts

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
    # The cost-contract programs, and one whose rules lift plain zeros and
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
        assert repr(tape.const(np.ones((2, 3)))) == "Var(op='const', shape=(2, 3), index=1)"


GROUPS = ad.ModeSort([2, 0, 1, 2, 0], 3).groups(None)


class TestSameOnAndOffTape:
    # Key "op" or "op/variant" -> (operand shapes, call).  Each operand is
    # passed as an array and, in every combination, as a tape input.
    CASES = {
        "stop_gradient": ([(2, 3)], ad.stop_gradient),
        "contract": ([(2, 3, 4), (4, 3)], lambda a, b: ad.contract(a, b, zip((2, -2), (0, 1)))),
        "contract/outer": ([(2,), (3,)], lambda a, b: ad.contract(a, b, [])),
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
        "mode_matmul": ([(5, 2), (2, 3, 4)], lambda r, c: ad.mode_matmul(r, c, GROUPS)),
        "mode_outer": ([(5, 2), (5, 3)], lambda r, u: ad.mode_outer(r, u, GROUPS, 3)),
    }
    # Inputs each op rejects with its own DimensionError, on arrays and on a
    # tape alike, where numpy would broadcast, clip or raise its own error.
    INVALID = {
        "add_broadcast": ([np.ones(3), np.ones((2, 3))], ad.add),
        "mul_broadcast": ([np.ones((2, 1)), np.ones((2, 3))], ad.mul),
        "slice_past_end": ([np.arange(3.0)], lambda a: ad.slice_along(a, 0, 2, 5)),
        "batch_matmul_broadcast": ([np.ones((1, 2, 3)), np.ones((4, 3, 2))], ad.batch_matmul),
        "gather_mode_2d": ([np.ones((2, 3))], lambda c: ad.gather_mode(c, [0, 1])),
        "add_n_empty": ([], lambda *p: ad.add_n(list(p))),
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
            assert isinstance(out, ad.Var)
            assert np.shape(plain) == out.value.shape and np.array_equal(plain, out.value)

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
