"""Recorded sweeps (ad.swept), one block core per mode, values alongside
gradients and the non-finite checks of the gradient and HVP pipelines."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from ttriem import ad, coreops
from ttriem.baselines import compute_method, riemannian_gd_demo
from ttriem.bench import objective_suite, sample_indices
from ttriem.errors import DimensionError, NonFiniteError
from ttriem.objectives import (
    IndexSet,
    Objective,
    completion_loss,
    gram_quadratic_form,
    quadratic_form,
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


def zero_log(cores):
    # exp(log(e^2)) = 0 at e = 0, a finite value whose gradient is 0/0.
    r = cores[1].shape[0] // 2
    e = ad.reduce_sum(ad.take_block(cores[1], ((r, 2 * r), (0, cores[1].shape[1]),
                                               (0, cores[1].shape[2] // 2))))
    return ad.exp(ad.log(ad.mul(e, e)))


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

