"""Recorded sweeps (ad.swept), whole-call replays of the objectives'
programs (ad._whole_call), one block core per mode, values alongside
gradients and the non-finite checks of the gradient and HVP pipelines."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from ttriem import ad, coreops, ttmanifold
from ttriem.baselines import compute_method, riemannian_gd_demo
from ttriem.bench import objective_suite, sample_indices
from ttriem.errors import DegeneratePointError, DimensionError, NonFiniteError
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
from ttriem.tt import (
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
    """A new program object calling ``program``: its first call runs the
    sweeps eagerly."""
    return lambda cores: program(cores)


def replaying(call):
    """``call()``, and whether it ran a replayed schedule."""
    before = sum(ad.replayed.values())
    out = call()
    return out, sum(ad.replayed.values()) > before


def kept(owner):
    """The schedules kept for ``owner``, oldest first."""
    return list(ad._schedules.get(owner, ({}, {}))[1].values())


def energy_program(rng, modes, rank):
    """The benchmark's energy 0.5 <(I + B) X, X> - <A T, X>, as its solve records it."""
    b_cores = list(random_symmetric_ttmat(rng, modes, 2).cores)
    at_cores = list(random_tt(rng, modes, rank).cores)

    def evaluate(cores):
        cores = list(cores)
        quad = ad.add(coreops.dot_cores(cores, cores),
                      coreops.dot_cores(coreops.matvec_cores(b_cores, cores), cores))
        return ad.sub(ad.mul(quad, 0.5), coreops.dot_cores(at_cores, cores))

    return evaluate


class TestReplay:
    def test_bit_identical_to_eager_sweeps(self, rng):
        # Each schedule is recorded by the second call at the first base
        # point and direction, then replayed at two base points and two
        # directions each.
        bases = [point(rng), point(rng)]
        dirs = [[direction(rng, b), direction(rng, b)] for b in bases]
        programs = {obj.name: obj.evaluate for obj in objective_suite(rng, MODES, 2)}
        programs["energy"] = energy_program(rng, MODES, 2)
        # A stop_gradient constant is the same object as a forward value.
        programs["stop_gradient"] = lambda cores: coreops.dot_cores(
            [ad.stop_gradient(c) for c in cores], [ad.mul(c, c) for c in cores])
        for name, p in programs.items():
            for _ in range(2):
                riemannian_grad_tt(p, bases[0])
                hess_vec_tt(p, bases[0], dirs[0][0])
            # Completion's prefix and suffix tables reach every mode of
            # MODES, so its tape holds no swept mode and replays too.
            for base, zs in zip(bases, dirs):
                got, ran = replaying(lambda: riemannian_grad_tt(p, base))
                assert ran, name
                assert same_bits(got, riemannian_grad_tt(eager(p), base)), name
                for z in zs:
                    got, ran = replaying(lambda: hess_vec_tt(p, base, z))
                    assert ran, name
                    assert same_bits(got, hess_vec_tt(eager(p), base, z)), name
            assert len(kept(p)) == 2, name

    def test_branch_on_value_records_anew(self, rng):
        def program(cores):
            s = coreops.dot_cores(cores, cores)
            if float(s.value) > 1.0:
                return ad.mul(s, s)
            return ad.exp(ad.mul(s, 0.5))

        bases = []
        for norm in (10.0, 0.1):  # squared norms 100 and 0.01, either side of 1
            x = random_tt(rng, MODES, 2)
            bases.append(orthogonalize(tt_scale(norm / tt_norm(x), x)))
        for base in bases:
            for replays in (False, False, True):  # eager, recorded, replayed
                got, ran = replaying(lambda: riemannian_grad_tt(program, base))
                assert ran == replays
                assert same_bits(got, riemannian_grad_tt(eager(program), base))
        assert len(kept(program)) == 2
        got, ran = replaying(lambda: riemannian_grad_tt(program, bases[0]))
        assert ran and same_bits(got, riemannian_grad_tt(eager(program), bases[0]))

    def test_programs_never_share_a_schedule(self, rng):
        def make():
            return lambda cores: coreops.dot_cores(cores, cores)

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
        program = energy_program(rng, MODES, 2)
        base = point(rng)
        riemannian_grad_tt(program, base)
        assert kept(program) == []
        riemannian_grad_tt(program, base)
        assert len(kept(program)) == 1
        assert replaying(lambda: riemannian_grad_tt(program, base))[1]

    def test_schedules_freed_with_program_without_collector(self, rng):
        def make():
            return lambda cores: coreops.dot_cores(cores, cores)

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
        # Steps: a = u * ones, b = a * x, c = a * x (a dropped), b + c
        # (b, c dropped).  At most a, b and c are held: 3 x 24 bytes.
        (lambda x: ad.reduce_sum(ad.mul(x, x)), 96, 72),
        # Steps: a = u * ones, b = a * exp(exp(x)) (a dropped), b * exp(x)
        # (b dropped).  At most two outputs are held: 2 x 24 bytes.
        (lambda x: ad.reduce_sum(ad.exp(ad.exp(x))), 72, 48),
    ], ids=["square", "exp_chain"])
    def test_peak_live_bytes(self, program, total, peak):
        # Every step writes a (3,) float64 array of 24 bytes.
        owner = eager(program)
        for _ in range(2):
            tape = ad.Tape()
            x = tape.input(np.arange(1.0, 4.0))
            out = owner(x)
            ad.swept(owner, "grad", tape, lambda: ad.grad(tape, out, [x]))
            tape.clear()
        (schedule,) = kept(owner)
        assert sum(s["bytes"] for s in schedule.stats().values()) == total
        assert schedule.peak_live_bytes == peak

    def test_schedules_capped_per_program(self, rng):
        def program(cores):
            return coreops.dot_cores(cores, cores)

        for n in range(2, ad.SCHEDULES_PER_PROGRAM + 4):  # a new signature each time
            base = point(rng, (3, n, 3))
            riemannian_grad_tt(program, base)
            riemannian_grad_tt(program, base)
        assert len(kept(program)) == ad.SCHEDULES_PER_PROGRAM

    def test_swept_completion_tape_replays(self, rng):
        # 100 samples over modes of 30 leave modes 1 and 2 to the row sweep:
        # its sorts' bounds and row permutations are constant parents, read
        # as slots like the gathers' index vectors.
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

    def test_swept_replay_reads_each_calls_sorts(self, rng):
        # The sorts' bounds and row permutations are constants of the tape,
        # not part of the schedule: a new observation set with the same N,
        # mode sizes and split replays at its own sorts.
        modes = (30,) * 4
        omega = [IndexSet(sample_indices(rng, modes, 100), rng.standard_normal(100))]
        assert coreops._table_split(list(modes), 100) == (1, 3)

        def program(cores):
            return completion_loss(omega[0]).evaluate(cores)

        base = point(rng, modes)
        z = direction(rng, base)
        for _ in range(2):  # eager, then recorded
            riemannian_grad_tt(program, base)
            hess_vec_tt(program, base, z)
        first = riemannian_grad_tt(eager(program), base), hess_vec_tt(eager(program), base, z)
        omega[0] = IndexSet(sample_indices(rng, modes, 100), omega[0].values)
        got, ran = replaying(lambda: riemannian_grad_tt(program, base))
        assert ran and same_bits(got, riemannian_grad_tt(eager(program), base))
        assert not same_bits(got, first[0])
        got, ran = replaying(lambda: hess_vec_tt(program, base, z))
        assert ran and same_bits(got, hess_vec_tt(eager(program), base, z))
        assert not same_bits(got, first[1])

    def test_completion_tables_replay(self, rng):
        # Every mode lies in a table: the gathers and scatters replay with
        # the forward pass's index vectors as slots.
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

    def test_replay_reads_each_calls_index_vector(self, rng):
        # The index vector is a constant of the tape, not part of the
        # schedule: a new one of the same length replays at its own values.
        cell = [rng.integers(0, 4, 30)]
        weights = rng.standard_normal((30, 4, 4))

        def program(cores):
            rows = ad.gather_mode(cores[1], cell[0])  # (30, 4, 4): block cores are 2r wide
            return ad.reduce_sum(ad.mul(ad.mul(rows, rows), weights))

        base = point(rng)
        z = direction(rng, base)
        for _ in range(2):  # eager, then recorded
            riemannian_grad_tt(program, base)
            hess_vec_tt(program, base, z)
        first = hess_vec_tt(eager(program), base, z)
        cell[0] = (cell[0] + 1) % 4
        got, ran = replaying(lambda: riemannian_grad_tt(program, base))
        assert ran and same_bits(got, riemannian_grad_tt(eager(program), base))
        got, ran = replaying(lambda: hess_vec_tt(program, base, z))
        assert ran and same_bits(got, hess_vec_tt(eager(program), base, z))
        assert not same_bits(got, first)

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

    def test_swept_runs_eagerly_for_unreferenceable_owner(self, rng):
        tape = ad.Tape()
        x = tape.input(rng.standard_normal(3))
        out = ad.reduce_sum(ad.mul(x, x))
        for _ in range(3):
            got, ran = replaying(lambda: ad.swept(1, "grad", tape, lambda: ad.grad(tape, out, [x])))
            np.testing.assert_array_equal(got[0], 2.0 * x.value)
            assert not ran


def registered(rng, modes=MODES, rank=2):
    """Every objective whose program ttriem.objectives registers as static,
    by name."""
    suite = objective_suite(rng, modes, rank)
    objs = {obj.name: obj for obj in suite}
    omega = IndexSet(sample_indices(rng, modes, 20), rng.standard_normal(20))
    objs["regularized_completion"] = regularized_completion(omega, 0.3)
    return objs


def forward_tape(p, base):
    """The tape of one forward pass of ``p`` at ``base``, as a gradient
    call records it."""
    tape = ad.Tape()
    p(_block_cores(base, [tape.input(v) for v in _delta_seed(base)]))
    return tape


class TestWholeCall:
    # The objectives' programs are static: a whole gradient or HVP call,
    # forward pass included, is recorded once and replayed with no tape.
    def test_only_the_constructors_register(self, rng):
        objs = registered(rng)
        assert all(obj.evaluate in ttmanifold._static_programs for obj in objs.values())
        wrapped = eager(objs["quadratic_form"].evaluate)
        factor = objs["quadratic_form"].factor_program()
        assert wrapped not in ttmanifold._static_programs
        assert factor not in ttmanifold._static_programs

    @pytest.mark.parametrize("name", ["quadratic_form", "gram_quadratic_form",
                                      "rayleigh_quotient", "completion", "expmachines",
                                      "regularized_completion"])
    def test_forward_structure_fixed_by_shapes(self, rng, name):
        # The registry's claim: at points of one shape, the forward tape
        # is the same, so a whole call recorded at one serves them all.
        p = registered(rng)[name].evaluate
        sigs = [ad._signature(forward_tape(p, point(rng)).nodes) for _ in range(3)]
        assert sigs[0] is not None and sigs[0] == sigs[1] == sigs[2]

    @pytest.mark.parametrize("name", ["quadratic_form", "gram_quadratic_form",
                                      "rayleigh_quotient", "completion", "expmachines",
                                      "regularized_completion"])
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
        objs = [completion_loss(IndexSet(idx, values)),
                expmachines_loss([random_tt(rng, MODES, 1) for _ in range(3)], ys)]
        base = point(rng)
        want = [riemannian_grad_tt(eager(obj.evaluate), base) for obj in objs]
        for obj in objs:
            for _ in range(2):  # eager, then recorded
                riemannian_grad_tt(obj.evaluate, base)
        idx[:, 0] = (idx[:, 0] + 1) % MODES[0]
        values += 1.0
        ys *= -1.0
        for obj, g in zip(objs, want):
            got, ran = replaying(lambda: riemannian_grad_tt(obj.evaluate, base))
            assert ran and same_bits(got, g)
            assert same_bits(riemannian_grad_tt(eager(obj.evaluate), base), g)

    def test_replayed_counts_forward_kernels(self, rng):
        # A replayed qf gradient runs the forward pass's contractions as
        # well as those of its sweep, and its schedule counts both.
        p = quadratic_form(random_symmetric_ttmat(rng, MODES, 2)).evaluate
        base = point(rng)
        forward = forward_tape(p, base).nodes
        swept_only = eager(p)
        for _ in range(2):
            riemannian_grad_tt(p, base)
            riemannian_grad_tt(swept_only, base)
        (whole,), (sweep,) = kept(p), kept(swept_only)
        contracts = sum(node.op == "contract" for node in forward)
        assert contracts > 0
        before = ad.replayed.copy()
        riemannian_grad_tt(p, base)
        counted = ad.replayed - before
        assert counted["contract"] == contracts + sweep.kernels["contract"]
        assert whole.stats()["contract"]["steps"] == counted["contract"]
        # The forward values are step outputs of the whole call; the seed
        # block cores are its sources, so no step writes them.
        written = sum(node.value.nbytes for node in forward
                      if node.op not in ("input", "block_core"))
        total = sum(s["bytes"] for s in whole.stats().values())
        assert total == written + sum(s["bytes"] for s in sweep.stats().values())
        assert whole.peak_live_bytes > sweep.peak_live_bytes

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
        for _ in range(3):  # eager, recorded, replayed
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as err:
                hess_vec_tt(zero_log, base, z) if hvp else riemannian_grad_tt(zero_log, base)
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
        program = eager(program)
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
        program = eager(zero_log_at(2))
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

