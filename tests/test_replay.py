"""Whole-call replays of registered programs (ad._whole_call), eager calls
of every other program, one block core per mode, values alongside
gradients and the non-finite checks of the gradient and HVP pipelines."""

import gc
import sys
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from ttriem import ad, coreops, ttmanifold
from ttriem.baselines import _linear_system_objective, compute_method, riemannian_gd_demo
from ttriem.bench import objective_suite, sample_indices
from ttriem.errors import DegeneratePointError, DimensionError, NonFiniteError
from ttriem.matrix import FixedRankPoint, hess_vec_matrix, project_matrix, riemannian_grad_matrix
from ttriem.objectives import (
    IndexSet,
    Objective,
    _static,
    completion_loss,
    expmachines_loss,
    gram_quadratic_form,
    quadratic_form,
    rayleigh_quotient,
    regularized_completion,
)
from ttriem.tt import (
    TtMatrix,
    TtTensor,
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_norm,
    tt_scale,
)
from ttriem.ttmanifold import (
    TtTangent,
    _block_cores,
    _delta_seed,
    hess_vec_tt,
    project_tt,
    riemannian_grad_tt,
    riemannian_value_and_grad_tt,
    tangent_scale,
)

MODES = (3, 4, 3)


def point(rng, modes=MODES, rank=2):
    return orthogonalize(random_tt(rng, modes, rank))


def direction(rng, base, rank=2):
    return project_tt(base, random_tt(rng, base.mode_sizes, rank))


def same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.deltas, b.deltas))


def eager(program):
    """A new program object calling ``program``, not registered: its calls
    run eagerly."""
    return lambda cores: program(cores)


def static(program):
    """A new program object calling ``program``, registered as the
    objectives' constructors register theirs: its calls replay whole."""
    return _static(lambda cores: program(cores))


def replaying(call):
    """``call()``, and whether it ran a replayed schedule."""
    before = sum(ad.replayed.values())
    out = call()
    return out, sum(ad.replayed.values()) > before


def kept(owner):
    """The schedules kept for ``owner``, oldest first."""
    return list(ad._schedules.get(owner, ({}, {}))[1].values())


def taped_grad(program, x):
    """The gradient of ``program`` at the array ``x``, from one eager call
    on a tape."""
    tape = ad.Tape()
    xv = tape.input(x)
    try:
        return ad.grad(tape, program(xv), [xv])
    finally:
        tape.clear()


class TestReplay:
    def test_bit_identical_to_eager_sweeps(self, rng):
        # Each schedule is recorded by the second call at the first base
        # point and direction, then replayed at two base points and two
        # directions each.
        bases = [point(rng), point(rng)]
        dirs = [[direction(rng, b), direction(rng, b)] for b in bases]
        programs = {name: obj.evaluate for name, obj in registered(rng).items()}
        # A stop_gradient constant is the same object as a forward value.
        programs["stop_gradient"] = static(lambda cores: coreops.dot_cores(
            [ad.stop_gradient(c) for c in cores], [ad.mul(c, c) for c in cores]))
        for name, p in programs.items():
            for _ in range(2):
                riemannian_grad_tt(p, bases[0])
                hess_vec_tt(p, bases[0], dirs[0][0])
            for base, zs in zip(bases, dirs):
                got, ran = replaying(lambda: riemannian_grad_tt(p, base))
                assert ran, name
                assert same_bits(got, riemannian_grad_tt(eager(p), base)), name
                for z in zs:
                    got, ran = replaying(lambda: hess_vec_tt(p, base, z))
                    assert ran, name
                    assert same_bits(got, hess_vec_tt(eager(p), base, z)), name
            assert len(kept(p)) == 2, name

    def test_programs_never_share_a_schedule(self, rng):
        def make():
            return static(lambda cores: coreops.dot_cores(cores, cores))

        first, second = make(), make()
        base = point(rng)
        for program in (first, second):
            # The second program's second call records: it finds nothing
            # of the first's to replay.
            ran = [replaying(lambda: riemannian_grad_tt(program, base))[1] for _ in range(3)]
            assert ran == [False, False, True]
        (a,), (b,) = kept(first), kept(second)
        assert a is not b

    def test_recorded_on_second_call(self, rng):
        # A program made for one call never pays for a recording.
        program = _linear_system_objective(random_symmetric_ttmat(rng, MODES, 2),
                                           random_tt(rng, MODES, 2)).evaluate
        base = point(rng)
        riemannian_grad_tt(program, base)
        assert kept(program) == []
        riemannian_grad_tt(program, base)
        assert len(kept(program)) == 1
        assert replaying(lambda: riemannian_grad_tt(program, base))[1]

    def test_schedules_freed_with_program_without_collector(self, rng):
        def make():
            return static(lambda cores: coreops.dot_cores(cores, cores))

        program = make()
        base = point(rng)
        riemannian_grad_tt(program, base)
        riemannian_grad_tt(program, base)
        schedule = weakref.ref(kept(program)[0])
        gc.disable()
        try:
            del program
            assert schedule() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("program, total, peak", [
        # Steps: m = x * x, s = sum(m) (m, s dropped); a = u * ones,
        # b = a * x, c = a * x (a dropped), b + c (b, c dropped).  At most
        # a, b and c are held: 3 x 24 bytes.
        (lambda x: ad.reduce_sum(ad.mul(x, x)), 128, 72),
        # Steps: e = exp(x), f = exp(e), s = sum(f) (s dropped);
        # a = u * ones, b = a * f (a, f dropped), b * e (b, e dropped).  At
        # most e, f, a and b are held: 4 x 24 bytes.
        (lambda x: ad.reduce_sum(ad.exp(ad.exp(x))), 128, 96),
    ], ids=["square", "exp_chain"])
    def test_peak_live_bytes(self, program, total, peak):
        # Every step writes a (3,) float64 array of 24 bytes, but the sum,
        # whose float64 scalar takes 8.
        owner = eager(program)
        x = np.arange(1.0, 4.0)
        for _ in range(2):
            ad._whole_call(owner, "grad", [x], lambda: taped_grad(owner, x))
        (schedule,) = kept(owner)
        assert sum(s["bytes"] for s in schedule.stats().values()) == total
        assert schedule.peak_live_bytes == peak

    def test_schedules_capped_per_program(self, rng):
        program = static(lambda cores: coreops.dot_cores(cores, cores))
        for n in range(2, ad.SCHEDULES_PER_PROGRAM + 4):  # a new key each time
            base = point(rng, (3, n, 3))
            riemannian_grad_tt(program, base)
            riemannian_grad_tt(program, base)
        assert len(kept(program)) == ad.SCHEDULES_PER_PROGRAM

    def test_swept_completion_tape_replays(self, rng):
        # 100 samples over modes of 30 leave modes 1 and 2 to the row sweep:
        # its sorts' bounds and row permutations are literals of the
        # program, as the gathers' index vectors are.
        modes = (30,) * 4
        idx = sample_indices(rng, modes, 100)
        assert coreops._table_split(list(modes), len(idx)) == (1, 3)
        obj = completion_loss(IndexSet(idx, rng.standard_normal(len(idx))))
        p = obj.evaluate
        base = point(rng, modes)
        z = direction(rng, base)
        for _ in range(2):  # eager, then recorded
            riemannian_grad_tt(p, base)
            hess_vec_tt(p, base, z)
        for base in (base, point(rng, modes)):
            z = direction(rng, base)
            before = ad.replayed.copy()
            got, ran = replaying(lambda: riemannian_grad_tt(p, base))
            assert ran and same_bits(got, riemannian_grad_tt(eager(p), base))
            got, ran = replaying(lambda: hess_vec_tt(p, base, z))
            assert ran and same_bits(got, hess_vec_tt(eager(p), base, z))
            counted = ad.replayed - before
            assert all(counted[op] > 0 for op in ("mode_matmul", "mode_outer", "take_rows"))
        assert len(kept(p)) == 2

    def test_completion_tables_replay(self, rng):
        # Every mode lies in a table: the gathers and scatters replay with
        # the forward pass's index vectors as literals.
        idx = sample_indices(rng, MODES, 20)
        assert coreops._table_split(list(MODES), len(idx)) == (2, 2)
        obj = completion_loss(IndexSet(idx, rng.standard_normal(len(idx))))
        p = obj.evaluate
        base = point(rng)
        z = direction(rng, base)
        for _ in range(2):  # eager, then recorded
            riemannian_grad_tt(p, base)
            hess_vec_tt(p, base, z)
        for base in (base, point(rng)):
            z = direction(rng, base)
            before = ad.replayed.copy()
            got, ran = replaying(lambda: riemannian_grad_tt(p, base))
            assert ran and same_bits(got, riemannian_grad_tt(eager(p), base))
            got, ran = replaying(lambda: hess_vec_tt(p, base, z))
            assert ran and same_bits(got, hess_vec_tt(eager(p), base, z))
            counted = ad.replayed - before
            assert counted["gather_mode"] > 0 and counted["scatter_mode"] > 0
        assert len(kept(p)) == 2

    @staticmethod
    def peak(call):
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def check_replayed_hvp_peak(self, program, base, z):
        for _ in range(2):  # the second call records
            hess_vec_tt(program, base, z)
        eager_peak = self.peak(lambda: hess_vec_tt(eager(program), base, z))
        ran = []
        replay_peak = self.peak(lambda: ran.append(replaying(lambda: hess_vec_tt(program, base, z))[1]))
        assert ran == [True]
        assert replay_peak <= eager_peak

    def test_replayed_hvp_peak_no_higher_than_eager(self, rng):
        modes = (6,) * 5
        obj = gram_quadratic_form(random_ttmat(rng, modes, modes, 3))
        base = point(rng, modes, 6)
        self.check_replayed_hvp_peak(obj.evaluate, base, direction(rng, base, 6))

    def test_replayed_completion_hvp_peak_no_higher_than_eager(self, rng):
        modes = (8,) * 4
        idx = sample_indices(rng, modes, 2000)
        assert coreops._table_split(list(modes), len(idx)) == (2, 2)
        obj = completion_loss(IndexSet(idx, rng.standard_normal(len(idx))))
        base = point(rng, modes, 3)
        self.check_replayed_hvp_peak(obj.evaluate, base, direction(rng, base, 3))

    def test_whole_call_runs_eagerly_for_unreferenceable_owner(self, rng):
        x = rng.standard_normal(3)
        for _ in range(3):
            got, ran = replaying(lambda: ad._whole_call(
                1, "grad", [x], lambda: taped_grad(lambda v: ad.reduce_sum(ad.mul(v, v)), x)))
            np.testing.assert_array_equal(got[0], 2.0 * x)
            assert not ran


def registered(rng, modes=MODES, rank=2):
    """Every objective whose program ttriem.objectives registers as static,
    by name."""
    suite = objective_suite(rng, modes, rank)
    objs = {obj.name: obj for obj in suite}
    omega = IndexSet(sample_indices(rng, modes, 20), rng.standard_normal(20))
    objs["regularized_completion"] = regularized_completion(omega, 0.3)
    objs["linear_system"] = _linear_system_objective(random_symmetric_ttmat(rng, modes, 2),
                                                     random_tt(rng, modes, rank))
    return objs


def forward_tape(p, base):
    """The tape of one forward pass of ``p`` at ``base``, as a gradient
    call records it."""
    tape = ad.Tape()
    p(_block_cores(base, [tape.input(v) for v in _delta_seed(base)]))
    return tape


def structure(tape):
    """Per node of ``tape``: its op, its value's shape and mask, and its
    parents, each a node's index or a constant's shape."""
    return [(node.op, node.value.shape, node.mask,
             tuple(p.index if isinstance(p, ad.Var) else np.shape(p) for p in node.parents))
            for node in tape.nodes]


def matrix_case(rng, m=6, rank=2):
    """A quadratic form on m x m matrices, a rank-``rank`` point and a
    tangent direction at it."""
    obj = quadratic_form(random_symmetric_ttmat(rng, (m, m), 2))
    x = FixedRankPoint.from_dense(rng.standard_normal((m, m)), rank)
    return obj, x, project_matrix(x, rng.standard_normal((m, m)))


REGISTERED = ["quadratic_form", "gram_quadratic_form", "rayleigh_quotient", "completion",
              "expmachines", "regularized_completion", "linear_system"]


class TestWholeCall:
    # The objectives' programs are static: a whole gradient or HVP call,
    # forward pass included, is recorded once and replayed with no tape.
    def test_only_the_constructors_register(self, rng):
        objs = registered(rng)
        assert all(obj.evaluate in ttmanifold._static_programs for obj in objs.values())
        wrapped = eager(objs["quadratic_form"].evaluate)
        assert wrapped not in ttmanifold._static_programs
        # A registered objective's factor program is registered; that of an
        # objective around a wrapper is not.
        assert objs["quadratic_form"].factor_program() in ttmanifold._static_programs
        factor = Objective(name="wrapped", evaluate=wrapped).factor_program()
        assert factor not in ttmanifold._static_programs

    @pytest.mark.parametrize("name", REGISTERED)
    def test_forward_structure_fixed_by_shapes(self, rng, name):
        # The registry's claim: at points of one shape, the forward tape
        # is the same, so a whole call recorded at one serves them all.
        p = registered(rng)[name].evaluate
        shapes = [structure(forward_tape(p, point(rng))) for _ in range(3)]
        assert shapes[0] and shapes[0] == shapes[1] == shapes[2]

    @pytest.mark.parametrize("name", REGISTERED)
    def test_replays_bit_identical_to_eager(self, rng, name, monkeypatch):
        p = registered(rng)[name].evaluate
        bases = [point(rng) for _ in range(3)]
        z = direction(rng, bases[0])
        for _ in range(2):  # eager, then recorded
            riemannian_grad_tt(p, bases[0])
            hess_vec_tt(p, bases[0], z)
        taped = []
        on_tape = ttmanifold._on_tape
        monkeypatch.setattr(ttmanifold, "_on_tape", lambda *a: taped.append(1) or on_tape(*a))
        for base in bases:  # the recording point, then two fresh ones
            z = direction(rng, base)
            (value, g), ran = replaying(lambda: riemannian_value_and_grad_tt(p, base))
            assert ran and not taped
            want_value, want_g = riemannian_value_and_grad_tt(eager(p), base)
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            assert same_bits(g, want_g)
            taped.clear()
            h, ran = replaying(lambda: hess_vec_tt(p, base, z))
            assert ran and not taped
            assert same_bits(h, hess_vec_tt(eager(p), base, z))
            taped.clear()
        assert len(kept(p)) == 2

    def test_objectives_keep_their_data(self, rng):
        # A replay reads the constants its recording saw, so the objectives
        # hold read-only copies of their data: writing to the caller's
        # arrays afterwards changes neither eager nor replayed calls.
        idx = sample_indices(rng, MODES, 20)
        values = rng.standard_normal(20)
        ys = rng.choice([-1.0, 1.0], 3)
        op_cores = [np.array(c) for c in random_symmetric_ttmat(rng, MODES, 2).cores]
        rhs_cores = [np.array(c) for c in random_tt(rng, MODES, 2).cores]
        objs = [completion_loss(IndexSet(idx, values)),
                expmachines_loss([random_tt(rng, MODES, 1) for _ in range(3)], ys),
                _linear_system_objective(TtMatrix(op_cores), TtTensor(rhs_cores))]
        base = point(rng)
        want = [riemannian_grad_tt(eager(obj.evaluate), base) for obj in objs]
        for obj in objs:
            for _ in range(2):  # eager, then recorded
                riemannian_grad_tt(obj.evaluate, base)
        idx[:, 0] = (idx[:, 0] + 1) % MODES[0]
        values += 1.0
        ys *= -1.0
        for c in op_cores + rhs_cores:
            c += 1.0
        for obj, g in zip(objs, want):
            got, ran = replaying(lambda: riemannian_grad_tt(obj.evaluate, base))
            assert ran and same_bits(got, g)
            assert same_bits(riemannian_grad_tt(eager(obj.evaluate), base), g)

    def test_replayed_counts_forward_kernels(self, rng, monkeypatch):
        # A replayed qf gradient runs the kernels of the forward pass and of
        # its sweep, those an eager call runs, and its schedule counts both.
        p = quadratic_form(random_symmetric_ttmat(rng, MODES, 2)).evaluate
        base = point(rng)
        forward = sum(node.op == "contract" for node in forward_tape(p, base).nodes)
        for _ in range(2):
            riemannian_grad_tt(p, base)
        (whole,) = kept(p)
        # The kernels of one eager call and the bytes they write.  The seed
        # block cores are the whole call's sources, so no step writes them.
        ran, written = Counter(), []
        node = ad._node

        def counting(tape, op, kernel, *args, **kwargs):
            out = node(tape, op, kernel, *args, **kwargs)
            if kernel is not ad._kept_value:
                ran[op] += 1
                written.append(getattr(out, "value", out).nbytes)
            return out

        with monkeypatch.context() as m:
            m.setattr(ad, "_node", counting)
            riemannian_grad_tt(eager(p), base)
        before = ad.replayed.copy()
        riemannian_grad_tt(p, base)
        counted = ad.replayed - before
        assert 0 < forward < counted["contract"] == ran["contract"]
        assert whole.stats()["contract"]["steps"] == counted["contract"]
        assert counted - Counter(check=1) == ran
        total = sum(s["bytes"] for s in whole.stats().values())
        assert total == sum(written)
        assert max(written) <= whole.peak_live_bytes < total

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_degenerate_point_raises_on_replay(self, rng, monkeypatch, hvp):
        p = rayleigh_quotient(random_symmetric_ttmat(rng, MODES, 2)).evaluate
        base = point(rng)
        z = direction(rng, base)
        x = random_tt(rng, MODES, 2)
        tiny = orthogonalize(tt_scale(1e-15 / tt_norm(x), x))  # <X, X> = 1e-30
        tiny_z = direction(rng, tiny)

        def call(p, at, z):
            return hess_vec_tt(p, at, z) if hvp else riemannian_grad_tt(p, at)

        for _ in range(3):  # eager, recorded, replayed
            call(p, base, z)
        with pytest.raises(DegeneratePointError):
            call(eager(p), tiny, tiny_z)
        taped = []
        on_tape = ttmanifold._on_tape
        monkeypatch.setattr(ttmanifold, "_on_tape", lambda *a: taped.append(1) or on_tape(*a))
        with pytest.raises(DegeneratePointError):
            call(p, tiny, tiny_z)
        assert not taped
        (_, ran) = replaying(lambda: call(p, base, z))
        assert ran and not taped

    def test_unregistered_branch_follows_each_call(self, rng):
        # A program with a value-dependent branch is not static: each call
        # runs its forward pass and takes the branch of its own point.
        def program(cores):
            s = coreops.dot_cores(cores, cores)
            if float(s.value) > 1.0:
                return ad.mul(s, s)
            return ad.exp(ad.mul(s, 0.5))

        assert program not in ttmanifold._static_programs
        bases = []
        for norm in (10.0, 0.1):  # squared norms 100 and 0.01, either side of 1
            x = random_tt(rng, MODES, 2)
            bases.append(orthogonalize(tt_scale(norm / tt_norm(x), x)))
        for base in bases * 3:
            z = direction(rng, base)
            value, g = riemannian_value_and_grad_tt(program, base)
            want_value, want_g = riemannian_value_and_grad_tt(eager(program), base)
            assert value == want_value and same_bits(g, want_g)
            assert same_bits(hess_vec_tt(program, base, z), hess_vec_tt(eager(program), base, z))
        assert value == pytest.approx(np.exp(0.005), rel=1e-12)

    def test_matrix_calls_replay_whole(self, rng, monkeypatch):
        # The factor program of a registered objective is registered too:
        # from the third call on, a matrix gradient or HVP builds no tape.
        obj, x, z = matrix_case(rng)
        p = obj.factor_program()
        wrapper = lambda left, right: p(left, right)  # noqa: E731  (an unregistered program)
        for _ in range(2):  # eager, then recorded
            riemannian_grad_matrix(p, x)
            hess_vec_matrix(p, x, z)
        want = riemannian_grad_matrix(wrapper, x), hess_vec_matrix(wrapper, x, z)

        def no_tape():
            raise AssertionError("a replayed call built a tape")

        monkeypatch.setattr(ad, "Tape", no_tape)
        got = riemannian_grad_matrix(p, x), hess_vec_matrix(p, x, z)
        for a, b in zip(got, want):
            assert same_bits(a.tt, b.tt)
        assert len(kept(p)) == 2

    def test_unregistered_program_keeps_no_schedule(self, rng):
        # An unregistered program runs eagerly on every call: nothing is
        # recorded for it, and its calls agree bit for bit.
        p = eager(quadratic_form(random_symmetric_ttmat(rng, MODES, 2)).evaluate)
        base = point(rng)
        z = direction(rng, base)
        results = []
        for _ in range(3):
            got, ran = replaying(lambda: (riemannian_grad_tt(p, base), hess_vec_tt(p, base, z)))
            assert not ran
            results.append(got)
        assert p not in ad._schedules
        for g, h in results[1:]:
            assert same_bits(g, results[0][0]) and same_bits(h, results[0][1])

    def test_schedule_freed_with_program_without_collector(self, rng):
        # The whole-call schedule holds no point and no program: both are
        # freed, with the schedule, by reference counting alone.
        def make():
            obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
            return obj, point(rng)

        gc.disable()
        try:
            obj, base = make()
            z = direction(rng, base)
            for _ in range(2):
                riemannian_grad_tt(obj.evaluate, base)
                hess_vec_tt(obj.evaluate, base, z)
            schedules = [weakref.ref(s) for s in kept(obj.evaluate)]
            assert len(schedules) == 2
            cores = [weakref.ref(c.value) for c in ttmanifold._seeds[base].cores]
            program, at = weakref.ref(obj.evaluate), weakref.ref(base)
            del base, z
            assert at() is None and all(c() is None for c in cores)
            del obj
            assert program() is None and all(s() is None for s in schedules)
        finally:
            gc.enable()


def replayed_schedules(owners):
    """The schedules kept for ``owners``."""
    return [s for owner in owners for s in kept(owner) if s is not None]


def in_thread(work):
    """``work()`` run in a new thread, whose replay arena starts empty; its
    result, and the thread's arena size when it returned."""
    out = []

    def run():
        out.append((work(), ad.thread_arena_bytes()))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and out
    return out[0]


@pytest.fixture
def split_always(monkeypatch):
    """Split every contraction that skips a multiply-add."""
    monkeypatch.setattr(ad, "SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(ad, "SPLIT_WRITE_MACS", 0)
    ad._contract_plan.cache_clear()
    yield
    monkeypatch.undo()
    ad._contract_plan.cache_clear()


class TestArena:
    # A replay runs on its thread's arena: planned buffers, views bound
    # once, results copied out.
    def interleaved_cases(self, rng):
        objs = registered(rng)
        return [(objs[name].evaluate, point(rng)) for name in
                ("quadratic_form", "gram_quadratic_form", "rayleigh_quotient", "completion")]

    def test_interleaved_replays_bit_identical_to_eager(self, rng):
        cases = self.interleaved_cases(rng)
        dirs = [direction(rng, base) for _, base in cases]
        for _ in range(2):  # eager, then recorded
            for (p, base), z in zip(cases, dirs):
                riemannian_grad_tt(p, base)
                hess_vec_tt(p, base, z)
        for _ in range(2):
            for (p, base), z in zip(cases, dirs):
                got, ran = replaying(lambda: (riemannian_grad_tt(p, base), hess_vec_tt(p, base, z)))
                assert ran
                assert same_bits(got[0], riemannian_grad_tt(eager(p), base))
                assert same_bits(got[1], hess_vec_tt(eager(p), base, z))

    def test_results_do_not_alias_the_arena(self, rng):
        p = registered(rng)["gram_quadratic_form"].evaluate
        bases = [point(rng), point(rng)]
        dirs = [direction(rng, b) for b in bases]
        for _ in range(2):
            hess_vec_tt(p, bases[0], dirs[0])
        first, ran = replaying(lambda: riemannian_value_and_grad_tt(p, bases[0]))
        h_first = hess_vec_tt(p, bases[0], dirs[0])
        saved = [d.copy() for d in first[1].deltas + h_first.deltas]
        hess_vec_tt(p, bases[1], dirs[1])
        riemannian_grad_tt(p, bases[1])
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(first[1].deltas + h_first.deltas, saved))
        assert same_bits(h_first, hess_vec_tt(eager(p), bases[0], dirs[0]))

    def test_two_threads_replay_one_schedule(self, rng):
        p = registered(rng)["rayleigh_quotient"].evaluate
        bases = [point(rng) for _ in range(2)]
        dirs = [direction(rng, b) for b in bases]
        for _ in range(2):  # eager, then recorded, on this thread
            hess_vec_tt(p, bases[0], dirs[0])
        want = [hess_vec_tt(eager(p), b, z) for b, z in zip(bases, dirs)]
        start = threading.Barrier(2, timeout=60)
        results = [[], []]

        def work(k):
            start.wait()
            for _ in range(20):
                results[k].append(hess_vec_tt(p, bases[k], dirs[k]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(kept(p)) == 1
        for got, h in zip(results, want):
            assert len(got) == 20 and all(same_bits(g, h) for g in got)

    def test_replay_allocates_only_results_and_unplanned_outputs(self, rng, monkeypatch):
        # A qf r=5 HVP: every intermediate lives in the arena, so after the
        # first replay a call allocates its results, the outputs of the
        # kernels with no out= form, and the small headers numpy makes.
        modes = (8,) * 8
        p = quadratic_form(random_symmetric_ttmat(rng, modes, 5)).evaluate
        base = point(rng, modes, 5)
        z = direction(rng, base, 5)
        unplanned = []
        node = ad._node

        def counting(tape, op, kernel, vals, *args, **kwargs):
            out = node(tape, op, kernel, vals, *args, **kwargs)
            value = getattr(out, "value", out)
            if kernel not in ad._INTO and kernel not in ad._VIEWS and \
                    kernel is not ad._kept_value and all(value is not v for v in vals):
                unplanned.append(sys.getsizeof(value))
            return out

        with monkeypatch.context() as m:
            m.setattr(ad, "_node", counting)
            hess_vec_tt(eager(p), base, z)
        for _ in range(3):  # eager, recorded, replayed once
            hess_vec_tt(p, base, z)
        (schedule,) = kept(p)
        sources = [c.value for c in ttmanifold._seeds[base].cores] + list(z.deltas)
        gc.collect()
        tracemalloc.start()
        try:
            out, ran = replaying(lambda: ad._whole_call(p, "hvp", sources, None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ran
        results = sum(sys.getsizeof(r) for r in out)
        # numpy keeps about 40 bytes of headers per step here; 128 leaves
        # room for other numpy versions and stays under a fifth of the
        # intermediates an unplanned replay would allocate.
        assert peak <= results + sum(unplanned) + 128 * len(schedule.steps)
        assert 128 * len(schedule.steps) < schedule.peak_live_bytes / 5

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_arena_holds_each_schedule(self, rng, hvp):
        objs = registered(rng)
        base = point(rng)
        z = direction(rng, base)
        for obj in objs.values():
            for _ in range(2):
                hess_vec_tt(obj.evaluate, base, z) if hvp else riemannian_grad_tt(obj.evaluate, base)
        schedules = replayed_schedules(obj.evaluate for obj in objs.values())
        assert len(schedules) == len(objs)
        for s in schedules:
            assert 0 < s.peak_live_bytes <= s.arena_bytes and s.arena_bytes % 64 == 0

    def test_thread_arena_is_the_largest_schedule_run(self, rng):
        objs = registered(rng)
        base = point(rng)
        z = direction(rng, base)
        programs = [objs[name].evaluate for name in ("quadratic_form", "gram_quadratic_form")]

        def work():
            sizes = []
            for p in programs:
                for _ in range(3):  # eager, recorded, replayed
                    hess_vec_tt(p, base, z)
                sizes.append(ad.thread_arena_bytes())
            return sizes

        sizes, final = in_thread(work)
        qf, gram = (s.arena_bytes for s in replayed_schedules(programs))
        assert sizes == [qf, max(qf, gram)] and final == max(qf, gram)
        # A thread that runs only the smaller schedule keeps a smaller arena.
        assert in_thread(lambda: hess_vec_tt(programs[0], base, z))[1] == qf

    def test_bound_schedule_freed_with_program_without_collector(self, rng):
        # A thread's binding of a schedule to its arena holds no program:
        # after replays, the program, its schedules and their bindings are
        # freed by reference counting alone.
        gc.disable()
        try:
            obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
            base = point(rng)
            z = direction(rng, base)
            # Eager, recorded, then replayed twice, so both schedules are
            # bound to the arena the larger one sized.
            for _ in range(4):
                riemannian_grad_tt(obj.evaluate, base)
                hess_vec_tt(obj.evaluate, base, z)
            schedules = [weakref.ref(s) for s in kept(obj.evaluate)]
            assert all(s() in ad._state.bound for s in schedules)
            program = weakref.ref(obj.evaluate)
            del obj
            assert program() is None and all(s() is None for s in schedules)
        finally:
            gc.enable()

    @pytest.mark.parametrize("part", ["source", "computed"])
    def test_value_zero_block_core_part_is_not_frozen(self, split_always, part):
        # The block core of x and ones, contracted with ones, sums x's 12
        # entries and the 12 ones.  Recorded where x, or x * x, is zero, its
        # mask marks that block zero, so a replay of that schedule would
        # read 12 at x = ones.
        ones = np.ones((3, 4))
        owner = lambda: None  # noqa: E731  (any object with a weak reference)

        def call_at(x):
            def call():
                tape = ad.Tape()
                xv = tape.input(x)
                try:
                    top = xv if part == "source" else ad.mul(xv, xv)
                    core = ad.block_core((6, 4), [(top, ((0, 3), (0, 4))), (ones, ((3, 6), (0, 4)))])
                    out = ad.contract(core, np.ones((6, 4)), [(0, 0), (1, 1)])
                    return [out.value, *ad.grad(tape, out, [xv])]
                finally:
                    tape.clear()

            return replaying(lambda: ad._whole_call(owner, "value", [x], call))

        for _ in range(2):  # eager, then recorded at zero
            call_at(np.zeros((3, 4)))
        (value, _), ran = call_at(np.ones((3, 4)))
        assert float(value) == 24.0 and not ran
        (value, _), ran = call_at(np.zeros((3, 4)))
        assert float(value) == 12.0 and ran == (part == "source")
        assert (kept(owner) == [None]) == (part == "computed")


class TestBlockCore:
    def test_one_node_per_mode(self, rng):
        base = point(rng, (3, 4, 3, 2))
        tape = ad.Tape()
        cores = _block_cores(base, [tape.input(v) for v in _delta_seed(base)])
        assert [c.op for c in cores] == ["block_core"] * 4 and len(tape) == 8

    def test_values_and_adjoints(self, rng):
        frame = rng.standard_normal((2, 3))
        w = rng.standard_normal((4, 5))
        x = rng.standard_normal((2, 2))
        tape = ad.Tape()
        xv = tape.input(x)
        out = ad.block_core((4, 5), [(xv, ((2, 4), (0, 2))), (frame, ((0, 2), (2, 5)))])
        want = np.zeros((4, 5))
        want[2:, :2] = x
        want[:2, 2:] = frame
        np.testing.assert_array_equal(out.value, want)
        (g,) = ad.grad(tape, ad.reduce_sum(ad.mul(out, w)), [xv])
        np.testing.assert_array_equal(g, w[2:, :2])

    def test_second_order_through_take_block(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((2, 2))
        tape = ad.Tape()
        xv = tape.input(x)
        piece = ad.take_block(ad.mul(xv, xv), ((1, 3), (2, 4)))
        (g,) = ad.grad(tape, ad.reduce_sum(ad.mul(piece, w)), [xv], as_vars=True)
        (h,) = ad.grad(tape, ad.reduce_sum(g), [xv])
        want = np.zeros((3, 4))
        want[1:3, 2:4] = 2.0 * w
        np.testing.assert_array_equal(h, want)

    @pytest.mark.parametrize("parts", [
        [(np.ones((2, 2)), ((0, 2), (0, 2))), (np.ones((2, 2)), ((1, 3), (1, 3)))],
        [(np.ones((2, 3)), ((0, 2), (0, 2)))],
        [(np.ones((2, 2)), ((0, 2), (2, 4)))],
    ], ids=["overlap", "wrong_size", "outside"])
    def test_rejects_bad_blocks(self, parts):
        with pytest.raises(DimensionError):
            ad.block_core((3, 3), parts)


class TestValueAndGrad:
    def test_value_is_the_point_value(self, rng):
        base = point(rng)
        obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
        value, g = riemannian_value_and_grad_tt(obj.evaluate, base)
        want = float(obj.evaluate(list(base.to_tt().cores)))
        assert value == pytest.approx(want, rel=1e-12)
        assert same_bits(g, riemannian_grad_tt(obj.evaluate, base))

    def test_demo_evaluates_the_program_once(self, rng):
        obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
        plain = []

        def evaluate(cores):
            if not any(isinstance(c, ad.Var) for c in cores):
                plain.append(1)
            return obj.evaluate(cores)

        counted = Objective(name="counted", evaluate=evaluate)
        x, history = riemannian_gd_demo(counted, random_tt(rng, MODES, 2), 4, 0.01, 2)
        assert len(history) == 5 and len(plain) == 1
        assert history[-1] == float(obj.evaluate(list(x.cores)))


def probe(cores):
    # NaN: the log of a negative number.
    return ad.log(ad.sub(coreops.dot_cores(cores, cores), 1e9))


def zero_log_at(k):
    """exp(log(e^2)) = 0 at e = 0, a finite value whose gradient is 0/0,
    with e the sum of the delta block of core k, a middle core."""
    def program(cores):
        r = cores[k].shape[0] // 2
        e = ad.reduce_sum(ad.take_block(cores[k], ((r, 2 * r), (0, cores[k].shape[1]),
                                                   (0, cores[k].shape[2] // 2))))
        return ad.exp(ad.log(ad.mul(e, e)))

    return program


zero_log = zero_log_at(1)


def zero_log_last(cores):
    # zero_log on the last core, whose delta block is its lower half.
    r = cores[-1].shape[0] // 2
    e = ad.reduce_sum(ad.slice_along(cores[-1], 0, r, 2 * r))
    return ad.exp(ad.log(ad.mul(e, e)))


class TestNonFinite:
    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_non_finite_value_raises(self, rng, hvp):
        base = point(rng)
        z = direction(rng, base)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as err:
            hess_vec_tt(probe, base, z) if hvp else riemannian_grad_tt(probe, base)
        assert err.value.stage == "value"

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_finite_value_non_finite_gradient_raises(self, rng, hvp):
        base = point(rng)
        z = direction(rng, base)
        program = static(zero_log)
        for _ in range(3):  # eager, recorded, replayed
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as err:
                hess_vec_tt(program, base, z) if hvp else riemannian_grad_tt(program, base)
            assert err.value.stage == ("HVP" if hvp else "gradient")

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    @pytest.mark.parametrize("program, core", [(zero_log, 1), (zero_log_last, len(MODES) - 1)],
                             ids=["core_1", "last_core"])
    def test_non_finite_error_names_the_delta_core(self, rng, hvp, program, core):
        # The deltas are checked once gauged.  The gauge of mode k reads
        # delta k alone and leaves the last one as it is, so the error names
        # the core the sweep made non-finite.
        base = point(rng)
        z = direction(rng, base)
        program = static(program)
        replays = []
        for _ in range(3):  # eager, recorded, replayed
            before = sum(ad.replayed.values())
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as err:
                hess_vec_tt(program, base, z) if hvp else riemannian_grad_tt(program, base)
            replays.append(sum(ad.replayed.values()) > before)
            assert err.value.stage == ("HVP" if hvp else "gradient")
            assert err.value.detail == f"delta core {core} holds NaN or inf"
        assert replays == [False, False, True]

    @pytest.mark.parametrize("hvp", [False, True], ids=["grad", "hvp"])
    def test_non_finite_error_names_a_delta_core_inside_a_group(self, rng, hvp):
        # Modes 1 to 3 share their core shape, so the gauge writes their
        # deltas as one array, checked at once; a failure still names the
        # core the sweep made non-finite, the middle one of the group.
        base = point(rng, (3, 4, 4, 4, 3))
        assert [1, 2, 3] in [modes for modes, _, _ in ttmanifold._gauge_factors(base)]
        z = direction(rng, base)
        program = static(zero_log_at(2))
        for _ in range(3):  # eager, recorded, replayed
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as err:
                hess_vec_tt(program, base, z) if hvp else riemannian_grad_tt(program, base)
            assert err.value.detail == "delta core 2 holds NaN or inf"

    @pytest.mark.parametrize("bad", [[2], [2, 3], [3, 1], [4], [0, 4]])
    def test_projected_names_the_first_non_finite_delta_core(self, rng, bad):
        base = point(rng, (3, 4, 4, 4, 3))
        deltas = [rng.standard_normal(s.shape) for s in base.S]
        for k in bad:
            deltas[k][0, 1, 0] = np.inf if k % 2 else np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as err:
            TtTangent._projected(base, deltas, "gradient")
        assert err.value.stage == "gradient"
        assert err.value.detail == f"delta core {min(bad)} holds NaN or inf"

    def test_finite_program_passes(self, rng):
        base = point(rng)
        z = direction(rng, base)
        obj = quadratic_form(random_symmetric_ttmat(rng, MODES, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, g = riemannian_value_and_grad_tt(obj.evaluate, base)
            h = hess_vec_tt(obj.evaluate, base, z)
        assert np.isfinite(value)
        assert all(np.isfinite(d).all() for d in g.deltas + h.deltas)

    def test_demo_stops_on_non_finite_loss(self, rng):
        obj = Objective(name="probe", evaluate=probe)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            riemannian_gd_demo(obj, random_tt(rng, MODES, 2), 3, 0.1, 2)

    def test_compute_method_checks_optimized_results(self, rng):
        # The hooks project a tensor with entries of 1e200 each: its
        # contractions overflow to inf.
        base = point(rng)
        huge = TtTensor([np.full(s.shape, 1e200) for s in random_tt(rng, MODES, 2).cores])
        obj = Objective(name="huge", evaluate=lambda cores: 0.0,
                        optimized_grad=lambda b: project_tt(b, huge),
                        optimized_hvp=lambda b, z: project_tt(b, huge))
        for op, stage in (("grad", "gradient"), ("hvp", "HVP")):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as err:
                compute_method(obj, "optimized", op, base, direction(rng, base))
            assert err.value.stage == stage

    def test_computed_tangent_raises_non_finite(self, rng):
        base = point(rng)
        g = riemannian_grad_tt(quadratic_form(random_symmetric_ttmat(rng, MODES, 2)).evaluate, base)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            tangent_scale(1e308, tangent_scale(1e308, g))
        assert err.value.stage == "tangent"

