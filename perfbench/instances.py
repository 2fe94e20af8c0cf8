"""Seeded inputs for the benchmark workloads and the operations run on them.

Everything here is generated from the workload seed alone; the library
only ever receives the resulting arrays.  Library functions are looked up
as module attributes at call time (``tr.riemannian_grad_tt``, never a
name imported once), so the traced run's wrappers see every call.
"""

import time
from dataclasses import dataclass, field

import numpy as np

import ttriem as tr
import ttriem.ad as ad
import ttriem.baselines as baselines
import ttriem.coreops as coreops

# Operation kinds, in the order a traced round runs them.
KINDS = ("grad", "hvp", "opt_grad", "opt_hvp", "matrix_grad", "matrix_hvp", "solve")

# Full sizes.  operator_r20 and operator_r5 follow d=8, n=8, ra=5 at the two
# ranks; completion uses d=6, n=8, r=5 with 10*d*n*r^2 observations, whose
# AD HVP stays well inside 8 GiB (the 64,000 observations of the
# `ttriem bench` default completion size do not).
# operator_r20 solves at rank 8: from rank 9 up, the rank-3r chains that
# tt_round gets in a descent step send LAPACK gesdd onto its
# divide-and-conquer path, which fails to converge on their exactly
# rank-deficient unfoldings (11 of 40 seeds at rank 20).
SIZES = {
    "operator_r20": dict(d=8, n=8, r=20, ra=5, samples=32, solve_r=8, solve_steps=20,
                         solve_step=0.5),
    "operator_r5": dict(d=8, n=8, r=5, ra=5, samples=32, solve_r=5, solve_steps=20,
                        solve_step=0.5),
    "completion": dict(d=6, n=8, r=5, solve_steps=50, solve_step=0.25),
}

# The same structure at sizes that run in milliseconds (benchmark self-test).
TINY = {
    "operator_r20": dict(d=4, n=3, r=3, ra=2, samples=4, solve_r=3, solve_steps=20,
                         solve_step=0.5),
    "operator_r5": dict(d=4, n=3, r=2, ra=2, samples=4, solve_r=2, solve_steps=20,
                        solve_step=0.5),
    "completion": dict(d=4, n=4, r=2, solve_steps=60, solve_step=0.25),
}

# The fixed-rank matrix instance, the same on every workload: a quadratic
# form on m x m matrices of rank r, with a rank-ra operator.
MATRIX = dict(m=512, r=20, ra=5)
TINY_MATRIX = dict(m=12, r=2, ra=2)

# Which objectives each operator workload runs, and through which pipelines.
# operator_r20 runs no project_matvec-based optimized call: at r=20 one such
# call takes tens of seconds.  Its optimized rounds use the rank-1-sum
# projection of the expmach objective instead.
OPERATOR_CASES = {
    "operator_r20": (("qf", True, False), ("gram", True, False),
                     ("rayleigh", True, False), ("expmach", False, True)),
    "operator_r5": (("qf", True, True), ("rayleigh", True, True),
                    ("expmach", True, True)),
}

SOLVE_TOL = 1e-8


@dataclass
class TtCase:
    """One objective at one TT point: base point, HVP direction, pipelines."""

    label: str
    objective: tr.Objective
    base: tr.MuOrthogonal
    z: tr.TtTangent
    ad: bool
    optimized: bool


@dataclass
class MatrixCase:
    """A 2-mode objective on the fixed-rank matrix manifold."""

    label: str
    objective: tr.Objective
    point: tr.FixedRankPoint
    z: tr.MatrixTangent

    def __post_init__(self):
        self.program = self.objective.factor_program()


@dataclass
class SolveCase:
    """Gradient descent from a warm start toward a known rank-r minimizer.

    The relative loss of an iterate with objective value f is
    (f - f_min) / scale.
    """

    label: str
    objective: tr.Objective
    x0: tr.TtTensor
    steps: int
    step_size: float
    rank: int
    f_min: float
    scale: float


@dataclass
class Instance:
    workload: str
    sizes: dict
    cases: list
    matrix: MatrixCase
    solve: SolveCase
    observations: dict = field(default_factory=dict)

    @property
    def ad_cases(self):
        return [c for c in self.cases if c.ad]

    @property
    def opt_cases(self):
        return [c for c in self.cases if c.optimized]


def _unit_tt(rng, modes, rank):
    x = tr.random_tt(rng, modes, rank)
    return tr.tt_scale(1.0 / tr.tt_norm(x), x)


def _warm_start(rng, truth, rank):
    """round(truth + 0.5 * ||truth|| * noise, rank) with a unit-norm noise."""
    noise = _unit_tt(rng, truth.mode_sizes, rank)
    return tr.tt_round(tr.tt_axpy(0.5 * tr.tt_norm(truth), noise, truth), rank)


def _sample_indices(rng, mode_sizes, count):
    total = int(np.prod(mode_sizes))
    flat = rng.choice(total, size=min(count, total), replace=False)
    return np.array(np.unravel_index(flat, mode_sizes)).T


def _tangent(rng, base, rank):
    return tr.project_tt(base, tr.random_tt(rng, base.mode_sizes, rank))


def _operator_case(rng, label, modes, s, base, use_ad, optimized):
    if label == "qf":
        objective = tr.quadratic_form(tr.random_symmetric_ttmat(rng, modes, s["ra"]))
    elif label == "gram":
        objective = tr.gram_quadratic_form(tr.random_ttmat(rng, modes, modes, s["ra"]))
    elif label == "rayleigh":
        objective = tr.rayleigh_quotient(tr.random_symmetric_ttmat(rng, modes, s["ra"]))
    else:
        ws = [tr.random_tt(rng, modes, 1) for _ in range(s["samples"])]
        ys = rng.choice([-1.0, 1.0], size=s["samples"])
        objective = tr.expmachines_loss(ws, ys)
    return TtCase(label, objective, base, _tangent(rng, base, s["r"]), use_ad, optimized)


def _energy_solve(rng, modes, s):
    """Energy of A X = A T with A = I + B/(2 ||B||_F), minimized at a rank-r T.

    f(X) = 0.5 <A X, X> - <A T, X>.  Every eigenvalue of A lies in
    [0.5, 1.5], so fixed-step descent converges linearly from a warm start.
    """
    b = tr.random_symmetric_ttmat(rng, modes, s["ra"])
    b_norm = tr.tt_norm(tr.TtTensor([c.reshape(c.shape[0], -1, c.shape[3]) for c in b.cores]))
    b = tr.TtMatrix([b.cores[0] * (0.5 / b_norm)] + list(b.cores[1:]))
    truth = _unit_tt(rng, modes, s["solve_r"])
    at = tr.tt_axpy(1.0, tr.ttmat_apply(b, truth), truth)
    b_cores, at_cores = list(b.cores), list(at.cores)

    def evaluate(cores):
        cores = list(cores)
        quad = ad.add(coreops.dot_cores(cores, cores),
                      coreops.dot_cores(coreops.matvec_cores(b_cores, cores), cores))
        return ad.sub(ad.mul(quad, 0.5), coreops.dot_cores(at_cores, cores))

    f_min = -0.5 * tr.tt_dot(at, truth)
    objective = tr.Objective(name="energy", evaluate=evaluate, operator=b)
    return SolveCase("energy", objective, _warm_start(rng, truth, s["solve_r"]),
                     s["solve_steps"], s["solve_step"], s["solve_r"], f_min, abs(f_min))


def _random_point(rng, m, r):
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((m, r)))
    s = np.diag(np.sort(rng.uniform(1.0, 2.0, r))[::-1])
    return tr.FixedRankPoint(u, s, v)


def _matrix_tangent(rng, point):
    m, n = point.shape
    r = point.rank
    return tr.project_matrix(point, rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))


def _matrix_qf(rng, s):
    m, r = s["m"], s["r"]
    objective = tr.quadratic_form(tr.random_symmetric_ttmat(rng, (m, m), s["ra"]))
    point = _random_point(rng, m, r)
    return MatrixCase("qf", objective, point, _matrix_tangent(rng, point))


def build(workload, seed, tiny=False):
    """Build the instance of ``workload`` for ``seed`` (same seed, same data)."""
    s = dict((TINY if tiny else SIZES)[workload])
    s["matrix"] = dict(TINY_MATRIX if tiny else MATRIX)
    rng = np.random.default_rng(seed)
    modes = (s["n"],) * s["d"]
    if workload in OPERATOR_CASES:
        base = tr.orthogonalize(_unit_tt(rng, modes, s["r"]))
        cases = [_operator_case(rng, label, modes, s, base, use_ad, opt)
                 for label, use_ad, opt in OPERATOR_CASES[workload]]
        return Instance(workload, s, cases, _matrix_qf(rng, s["matrix"]),
                        _energy_solve(rng, modes, s))

    truth = tr.random_tt(rng, modes, s["r"])
    idx = _sample_indices(rng, modes, 10 * s["d"] * s["n"] * s["r"] ** 2)
    omega = tr.IndexSet(idx, tr.tt_entries(truth, idx))
    objective = tr.completion_loss(omega)
    x0 = _warm_start(rng, truth, s["r"])
    base = tr.orthogonalize(x0)
    case = TtCase("completion", objective, base, _tangent(rng, base, s["r"]), True, True)
    p_obs = len(omega) / float(np.prod(modes))
    solve = SolveCase("completion", objective, x0, s["solve_steps"],
                      s["solve_step"] / p_obs, s["r"], 0.0, float(omega.values @ omega.values))
    inst = Instance(workload, s, [case], _matrix_qf(rng, s["matrix"]), solve)
    inst.observations = {"observations": len(omega)}
    return inst


def run_kind(inst, kind, call_times=None):
    """Run one round of ``kind`` and return its results in a fixed order.

    With ``call_times`` (a list), the duration of each call is appended.
    """
    out = []
    for call in _calls(inst, kind):
        t0 = time.perf_counter()
        out.append(call())
        if call_times is not None:
            call_times.append(time.perf_counter() - t0)
    return out


def _calls(inst, kind):
    if kind == "grad":
        return [lambda c=c: tr.riemannian_grad_tt(c.objective.evaluate, c.base)
                for c in inst.ad_cases]
    if kind == "hvp":
        return [lambda c=c: tr.hess_vec_tt(c.objective.evaluate, c.base, c.z)
                for c in inst.ad_cases]
    if kind == "opt_grad":
        return [lambda c=c: baselines.optimized_grad(c.objective, c.base)
                for c in inst.opt_cases]
    if kind == "opt_hvp":
        return [lambda c=c: baselines.optimized_hvp(c.objective, c.base, c.z)
                for c in inst.opt_cases]
    m = inst.matrix
    if kind == "matrix_grad":
        return [lambda: tr.riemannian_grad_matrix(m.program, m.point)]
    if kind == "matrix_hvp":
        return [lambda: tr.hess_vec_matrix(m.program, m.point, m.z)]
    if kind == "solve":
        s = inst.solve
        return [lambda: baselines.riemannian_gd_demo(s.objective, s.x0, s.steps,
                                                     s.step_size, s.rank)]
    raise ValueError(f"unknown operation kind {kind!r}")


def cold_calls(inst):
    """The first call of each operation: full rounds, and one descent step."""
    refs = {kind: run_kind(inst, kind) for kind in KINDS if kind != "solve"}
    s = inst.solve
    baselines.riemannian_gd_demo(s.objective, s.x0, 1, s.step_size, s.rank)
    return refs


def describe(inst):
    """Instance sizes, for the environment record."""
    out = dict(inst.sizes)
    out["objectives"] = [
        c.label + ("" if c.ad else " (optimized only)") for c in inst.cases
    ]
    out["matrix"] = inst.matrix.label
    out["solve"] = inst.solve.label
    out.update(inst.observations)
    return out

