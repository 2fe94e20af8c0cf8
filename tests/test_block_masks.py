"""Block masks: the structural zero blocks that contract skips, checked
against the same programs run dense, and the schedule statistics that
count the multiply-adds they save."""

import contextlib
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttriem import ad
from ttriem.objectives import gram_quadratic_form, quadratic_form
from ttriem.tt import orthogonalize, random_symmetric_ttmat, random_tt, random_ttmat
from ttriem.ttmanifold import hess_vec_tt, project_tt


@contextlib.contextmanager
def split_always():
    """Split every contraction that skips a multiply-add, however few: at
    test sizes the crossover keeps every contraction whole."""
    saved = ad.SPLIT_MIN_MACS, ad.SPLIT_WRITE_MACS
    ad.SPLIT_MIN_MACS = ad.SPLIT_WRITE_MACS = 0
    ad._contract_plan.cache_clear()
    try:
        yield
    finally:
        ad.SPLIT_MIN_MACS, ad.SPLIT_WRITE_MACS = saved
        ad._contract_plan.cache_clear()


def contract_stats(owner):
    """The ``contract`` statistics of the schedule last recorded for ``owner``."""
    return list(ad._schedules[owner][1].values())[-1].stats()["contract"]


# ---------------------------------------------------------------------------
# random programs over block cores

# How each block of a block core is filled: a tape input, a tape input of
# zeros, a constant, a constant of zeros, or nothing.
KINDS = ("var", "zero", "const", "zero_const", "absent")
OPS = ("contract", "contract", "reshape", "transpose", "take_block", "add", "add_n", "sub",
       "neg", "mul", "reduce_sum")


def _reshapes(shape):
    # Shapes of the same size: adjacent axes merged, an axis split, flat.
    out = [(int(np.prod(shape)),)]
    for i in range(len(shape) - 1):
        out.append(shape[:i] + (shape[i] * shape[i + 1],) + shape[i + 2:])
    for i, n in enumerate(shape):
        out += [shape[:i] + (f, n // f) + shape[i + 1:] for f in range(2, n) if n % f == 0]
    return [s for s in out if len(s) <= 4]


def draw_program(data):
    """(cores, ops): per block core its shape, its cut points along the
    first and last axes and the kinds of its blocks, in C order; then ops
    over a pool of values (the cores first), each (name, operand positions,
    arguments), drawn by shapes alone."""
    cores = []
    for k in range(data.draw(st.integers(1, 3))):
        a, n, b = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3)), data.draw(st.integers(2, 5))
        cuts = [tuple(sorted(data.draw(st.sets(st.integers(1, m - 1), min_size=1, max_size=2))))
                for m in (a, b)]
        kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=(len(cuts[0]) + 1) * (len(cuts[1]) + 1),
                                   max_size=(len(cuts[0]) + 1) * (len(cuts[1]) + 1)))
        if k == 0:
            kinds[0] = "var"  # the output depends on a tape input
        cores.append(((a, n, b), *cuts, kinds))
    shapes = [spec[0] for spec in cores]
    ops = []
    for _ in range(data.draw(st.integers(1, 8))):
        name = data.draw(st.sampled_from(OPS))
        i = data.draw(st.integers(0, len(shapes) - 1))
        s = shapes[i]
        same = [j for j, t in enumerate(shapes) if t == s]
        if name == "transpose":
            perm = tuple(data.draw(st.permutations(range(len(s)))))
            ops.append((name, (i,), perm))
            shapes.append(tuple(s[p] for p in perm))
        elif name == "reshape":
            new = data.draw(st.sampled_from(_reshapes(s)))
            ops.append((name, (i,), new))
            shapes.append(new)
        elif name == "take_block":
            at = tuple(tuple(sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2,
                                                      unique=True)))) for n in s)
            ops.append((name, (i,), at))
            shapes.append(tuple(hi - lo for lo, hi in at))
        elif name in ("add", "sub", "mul"):
            ops.append((name, (i, data.draw(st.sampled_from(same))), None))
            shapes.append(s)
        elif name == "add_n":
            ops.append((name, tuple(data.draw(st.lists(st.sampled_from(same), min_size=1,
                                                       max_size=3))), None))
            shapes.append(s)
        elif name == "neg":
            ops.append((name, (i,), None))
            shapes.append(s)
        elif name == "reduce_sum" and len(s) > 1:
            axes = tuple(data.draw(st.lists(st.integers(0, len(s) - 1), min_size=1,
                                            max_size=len(s) - 1, unique=True)))
            ops.append((name, (i,), axes))
            shapes.append(tuple(n for ax, n in enumerate(s) if ax not in axes))
        elif name == "contract":
            j = data.draw(st.integers(0, len(shapes) - 1))
            t = shapes[j]
            pairs = []
            for p, n in enumerate(s):
                free = [q for q, m in enumerate(t) if m == n and q not in [q2 for _, q2 in pairs]]
                if free and data.draw(st.booleans()):
                    pairs.append((p, data.draw(st.sampled_from(free))))
            rest = [n for p, n in enumerate(s) if p not in [p2 for p2, _ in pairs]] + \
                [m for q, m in enumerate(t) if q not in [q2 for _, q2 in pairs]]
            if not 1 <= len(rest) <= 4 or np.prod(rest) > 400:
                continue
            perm = tuple(data.draw(st.permutations(range(len(rest)))))
            ops.append((name, (i, j), (tuple(pairs), perm)))
            shapes.append(tuple(rest[p] for p in perm))
    return cores, ops


def blocks(spec):
    """The blocks of a block core, in the order of its kinds."""
    (a, n, b), cuts_a, cuts_b, _ = spec
    rows, cols = (0,) + cuts_a + (a,), (0,) + cuts_b + (b,)
    return [((lo, hi), (0, n), (lo2, hi2)) for lo, hi in zip(rows, rows[1:])
            for lo2, hi2 in zip(cols, cols[1:])]


def run_ops(values, ops, seed):
    """The program's scalar: sum_v <v, W_v> over the pool the ops build
    from ``values``, each W_v a constant drawn from ``seed`` and v's place."""
    pool = list(values)
    for name, ins, arg in ops:
        xs = [pool[i] for i in ins]
        if name == "contract":
            pool.append(ad.contract(*xs, *arg))
        elif name in ("reshape", "transpose", "take_block", "reduce_sum"):
            pool.append(getattr(ad, name)(*xs, arg))
        elif name == "add_n":
            pool.append(ad.add_n(xs))
        else:
            pool.append(getattr(ad, name)(*xs))
    return ad.add_n([ad.reduce_sum(ad.mul(v, np.random.default_rng([seed, i]).standard_normal(v.shape)))
                     for i, v in enumerate(pool)])


class Program:
    """A drawn program with its constants: as a program of its tape inputs
    (the var and zero blocks) through block cores, and dense, as a program
    of the block cores' values."""

    def __init__(self, cores, ops, rng):
        self.cores, self.ops = cores, ops
        self.consts = {}
        for k, spec in enumerate(cores):
            for b, (kind, at) in enumerate(zip(spec[3], blocks(spec))):
                shape = tuple(hi - lo for lo, hi in at)
                if kind in ("const", "zero_const"):
                    self.consts[k, b] = rng.standard_normal(shape) * (kind == "const")
        self.inputs = [(k, b) for k, spec in enumerate(cores)
                       for b, kind in enumerate(spec[3]) if kind in ("var", "zero")]
        self.seed = int(rng.integers(2**32))

    def parts(self, rng):
        """Values of the tape inputs: random, or zeros for a zero block."""
        return [np.zeros(self.shape_of(k, b)) if self.cores[k][3][b] == "zero"
                else rng.standard_normal(self.shape_of(k, b)) for k, b in self.inputs]

    def shape_of(self, k, b):
        return tuple(hi - lo for lo, hi in blocks(self.cores[k])[b])

    def block_cores(self, xs):
        given = dict(zip(self.inputs, xs))
        out = []
        for k, spec in enumerate(self.cores):
            parts = [(given[k, b] if (k, b) in given else self.consts[k, b], at)
                     for b, at in enumerate(blocks(spec)) if spec[3][b] != "absent"]
            out.append(ad.block_core(spec[0], parts))
        return out

    def masked(self, xs):
        return run_ops(self.block_cores(xs), self.ops, self.seed)

    def dense(self, cores):
        return run_ops(cores, self.ops, self.seed)

    def to_parts(self, core_arrays):
        """Each tape input's block of the per-core arrays."""
        return [core_arrays[k][tuple(slice(lo, hi) for lo, hi in blocks(self.cores[k])[b])]
                for k, b in self.inputs]

    def to_cores(self, part_arrays):
        """Per-core arrays holding the tape inputs' blocks, zero elsewhere."""
        out = [np.zeros(spec[0]) for spec in self.cores]
        for (k, b), v in zip(self.inputs, part_arrays):
            out[k][tuple(slice(lo, hi) for lo, hi in blocks(self.cores[k])[b])] = v
        return out


def sweep(program, inputs, owner, dirs=None):
    """The gradient of ``program`` at ``inputs`` (tape inputs), or its HVP
    along ``dirs``, as a whole call (:func:`ttriem.ad._whole_call`) of
    ``program`` for ``owner``, with the inputs and directions as its
    sources."""
    def call():
        tape = ad.Tape()
        xs = [tape.input(v) for v in inputs]
        try:
            out = program(xs)
            if dirs is None:
                return ad.grad(tape, out, xs)
            inner = ad.grad(tape, out, xs, as_vars=True)
            w = ad.add_n([ad.contract(g, d, [(i, i) for i in range(d.ndim)])
                          for g, d in zip(inner, dirs)])
            return ad.grad(tape, w, xs)
        finally:
            tape.clear()

    return [np.array(r) for r in ad._whole_call(owner, "sweep", list(inputs) + (dirs or []), call)]


def check_zero_blocks(val, mask):
    """Fail unless every block ``mask`` calls zero is zero in ``val``."""
    for cell in ad._zero_cells(mask, mask[0]):
        block = tuple(slice(c[i], c[i + 1]) for c, i in zip(mask[0], cell))
        assert not np.any(val[block]), (mask, cell)


class TestDifferential:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_masked_programs_match_dense_and_replay_bit_identical(self, data):
        cores, ops = draw_program(data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        prog = Program(cores, ops, rng)
        first, later = prog.parts(rng), prog.parts(rng)
        dirs = [rng.standard_normal(np.shape(v)) for v in first]
        node = ad._node

        def checked(*args, **kwargs):
            out = node(*args, **kwargs)
            mask = ad._mask_of(out)
            if mask is not None:
                check_zero_blocks(getattr(out, "value", out), mask)
            return out

        with split_always():
            for hvp in (None, dirs):
                # Eager, recorded, then replayed at other values; an owner
                # with no weak reference runs the call eagerly there.
                owner = (lambda xs: prog.masked(xs))
                with mock.patch.object(ad, "_node", checked):
                    got = [sweep(owner, first, owner, hvp), sweep(owner, first, owner, hvp)]
                    before = sum(ad.replayed.values())
                    got.append(sweep(owner, later, owner, hvp))
                    assert sum(ad.replayed.values()) > before
                    want = sweep(lambda xs: prog.masked(xs), later, object(), hvp)
                for a, b in zip(got[0], got[1]):
                    assert a.tobytes() == b.tobytes()
                for a, b in zip(got[2], want):
                    assert a.tobytes() == b.tobytes()
                # The dense program of the block cores' values, fed through
                # Tape.input, runs unmasked.
                for inputs, masked in ((first, got[0]), (later, want)):
                    values = [np.array(c) for c in prog.block_cores(inputs)]
                    dense = sweep(prog.dense, values, object(),
                                  None if hvp is None else prog.to_cores(hvp))
                    for a, b in zip(masked, prog.to_parts(dense)):
                        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
                        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)

    def test_sweep_masks_do_not_read_values(self, rng):
        # The adjoint of x's block is zero where z's rows are, at the
        # recording call only; a mask read from that value would replay as
        # zero at the next point.
        a, w = rng.standard_normal((4, 4)), rng.standard_normal((2, 4))

        def program(xs):
            y = ad.take_block(ad.contract(xs[0], a, [(1, 0)]), ((0, 2), (0, 4)))
            return ad.reduce_sum(ad.mul(ad.mul(y, y), w))

        flat = np.vstack([np.zeros((2, 4)), rng.standard_normal((2, 4))])
        later = [rng.standard_normal((4, 4))]
        with split_always():
            for _ in range(2):
                sweep(program, [flat], program)
            got = sweep(program, later, program)
            want = sweep(lambda xs: program(xs), later, object())
        assert got[0].tobytes() == want[0].tobytes() and np.any(want[0])

    def test_tape_input_has_no_mask(self, rng):
        core = ad.block_core((4, 2, 4), [(rng.standard_normal((2, 2, 2)), ((0, 2), (0, 2), (0, 2)))])
        assert ad._mask_of(core) is not None
        assert ad._mask_of(ad.Tape().input(core)) is None


class TestMasks:
    def test_block_core_marks_uncovered_and_zero_parts(self, rng):
        v = rng.standard_normal((2, 3, 2))
        core = ad.block_core((4, 3, 4), [(v, ((0, 2), (0, 3), (0, 2))),
                                         (np.zeros((2, 3, 2)), ((2, 4), (0, 3), (2, 4)))])
        cuts, zero = ad._mask_of(core)
        assert cuts == ((0, 2, 4), (0, 3), (0, 2, 4))
        assert zero == ((0, 0, 1), (1, 0, 0), (1, 0, 1))

    def test_mask_follows_views_and_sums(self, rng):
        v = rng.standard_normal((2, 3, 2))
        core = ad.block_core((4, 3, 4), [(v, ((0, 2), (0, 3), (0, 2)))])
        mask = ad._mask_of(core)
        assert ad._mask_of(ad.transpose(core, (1, 2, 0))) == \
            (((0, 3), (0, 2, 4), (0, 2, 4)), ((0, 0, 1), (0, 1, 0), (0, 1, 1)))
        # A reshape keeps the mask while every cut axis passes through whole;
        # uncut axes may merge, split, come or go.
        assert ad._mask_of(ad.reshape(core, (4, 1, 3, 4))) == \
            (((0, 2, 4), (0, 1), (0, 3), (0, 2, 4)), ((0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)))
        wide = ad.block_core((4, 2, 3, 4), [(rng.standard_normal((2, 2, 3, 2)),
                                             ((0, 2), (0, 2), (0, 3), (0, 2)))])
        assert ad._mask_of(ad.reshape(wide, (4, 6, 4))) == (((0, 2, 4), (0, 6), (0, 2, 4)), mask[1])
        # Merging or splitting a cut axis drops the mask.
        assert ad._mask_of(ad.reshape(core, (12, 4))) is None
        assert ad._mask_of(ad.reshape(core, (2, 2, 3, 4))) is None
        # Blocks taken out, and every elementwise op, add, sub and neg among
        # them, give unmasked values.
        assert ad._mask_of(ad.take_block(core, ((0, 2), (0, 3), (0, 4)))) is None
        for value in (ad.neg(core), ad.add(core, core), ad.sub(core, core), ad.mul(core, core)):
            assert ad._mask_of(value) is None
        # add_n is zero where every term is.
        other = ad.block_core((4, 3, 4), [(rng.standard_normal((2, 3, 2)), ((2, 4), (0, 3), (0, 2)))])
        assert ad._mask_of(ad.add_n([core, core])) == mask
        assert ad._mask_of(ad.add_n([core, other])) == (((0, 4), (0, 3), (0, 2, 4)), ((0, 0, 1),))
        assert ad._mask_of(ad.add_n([core, np.ones((4, 3, 4))])) is None

    def test_plan_runs_only_non_zero_products(self, rng):
        # Only block 0 of the contracted axis is non-zero: one product, which
        # writes the whole result.
        one = ad.block_core((3, 6), [(rng.standard_normal((3, 2)), ((0, 3), (0, 2)))])
        # Blocks 0 and 2 are non-zero and block 1 is zero: their two products
        # would sum into one result block, so the contraction runs whole.
        two = ad.block_core((3, 6), [(rng.standard_normal((3, 2)), ((0, 3), (0, 2))),
                                     (rng.standard_normal((3, 2)), ((0, 3), (4, 6)))])
        dense = rng.standard_normal((6, 5))
        with split_always():
            kernel, plan = ad._contract_plan((3, 6), (6, 5), ((1, 0),), None, ad._mask_of(one),
                                             None)[0]
            assert kernel is ad._block_products
            assert (plan[2], plan[3], len(plan[1]), plan[0][2]) == (3 * 2 * 5, 3 * 6 * 5, 1, False)
            assert ad._contract_plan((3, 6), (6, 5), ((1, 0),), None, ad._mask_of(two),
                                     None)[0][0] is ad._gemm
            for row in (one, two):
                np.testing.assert_allclose(ad.contract(row, dense, [(1, 0)]), np.array(row) @ dense,
                                           rtol=1e-14, atol=1e-14)

    def test_skipped_block_meeting_inf_gives_zero(self):
        # A structural zero block is never multiplied, so its partner's inf
        # makes no NaN: the narrower contract of a split contraction.
        core = ad.block_core((2, 2), [(np.ones((1, 1)), ((0, 1), (0, 1)))])
        other = np.array([[1.0, 0.0], [np.inf, 0.0]])
        with split_always():
            got = ad.contract(core, other, [(1, 0)])
        np.testing.assert_array_equal(got, [[1.0, 0.0], [0.0, 0.0]])

    def test_masks_do_not_keep_arrays_alive(self, rng):
        core = ad.block_core((4, 4), [(rng.standard_normal((2, 2)), ((0, 2), (0, 2)))])
        ref, key = weakref.ref(core), id(core)
        assert key in ad._masks
        del core
        assert ref() is None and key not in ad._masks and key not in ad._mask_refs


class TestScheduleStats:
    @pytest.mark.parametrize("build", [
        lambda rng, modes: quadratic_form(random_symmetric_ttmat(rng, modes, 2)),
        lambda rng, modes: gram_quadratic_form(random_ttmat(rng, modes, modes, 2)),
    ], ids=["qf", "gram"])
    def test_hvp_skips_half_the_dense_multiply_adds(self, rng, build):
        modes = (4, 4, 4, 4)
        base = orthogonalize(random_tt(rng, modes, 4))
        z = project_tt(base, random_tt(rng, modes, 4))
        program = build(rng, modes).evaluate
        with split_always():
            for _ in range(2):  # eager, then recorded
                hess_vec_tt(program, base, z)
        stats = contract_stats(program)
        assert stats["macs"] <= 0.5 * stats["dense_macs"]
        assert stats["steps"] > 0 and stats["bytes"] > 0

    def test_program_without_block_core_runs_dense(self, rng):
        a, b = rng.standard_normal((6, 5)), rng.standard_normal((5, 7))

        def program(x, y):
            return ad.reduce_sum(ad.mul(ad.contract(x, y, [(1, 0)]), ad.contract(x, y, [(1, 0)])))

        owner = lambda: None  # noqa: E731  (any object with a weak reference)
        def call():
            tape, out = ad.record([a, b], program)
            try:
                return ad.grad(tape, out, tape.nodes[:2])
            finally:
                tape.clear()

        with split_always():
            for _ in range(2):
                ad._whole_call(owner, "grad", [a, b], call)
        stats = contract_stats(owner)
        # Two forward and four adjoint contractions of 6 * 5 * 7
        # multiply-adds each.
        assert stats["macs"] == stats["dense_macs"] == 6 * 6 * 5 * 7
        assert list(ad._schedules[owner][1].values())[-1].stats()["mul"]["steps"] >= 1
