"""Benchmark harness: seeded instances, timed method runs, CSV output, and
the AD-cost-versus-evaluation-cost ratio measurement.
"""

import csv
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import objectives as obj_mod
from .baselines import compute_method
from .errors import DimensionError, UnavailableMethodError
from .oracles import tangent_residual
from .tt import (
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
)
from .ttmanifold import (
    _block_cores,
    _delta_seed,
    hess_vec_tt,
    project_tt,
    riemannian_grad_tt,
)

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "FUNCTIONS",
    "BUILDERS",
    "Sizes",
    "make_instance",
    "bench_run",
    "write_csv",
    "complexity_ratios",
    "sample_indices",
    "objective_suite",
]

CSV_COLUMNS = [
    "function", "method", "op", "d", "n", "rx", "rz", "ra",
    "seconds_mean", "seconds_std", "residual_vs_ad",
]


@dataclass
class BenchConfig:
    function: str
    method: str
    op: str
    d: int
    n: int
    rx: int
    rz: int
    ra: int
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.function not in FUNCTIONS:
            raise DimensionError(f"unknown function {self.function!r}")
        if self.method not in ("naive", "optimized", "ad"):
            raise DimensionError(f"unknown method {self.method!r}")
        if self.op not in ("grad", "hvp"):
            raise DimensionError(f"unknown op {self.op!r}")
        if min(self.d, self.n, self.rx, self.rz, self.ra) < 1:
            raise DimensionError("sizes and ranks must be positive")
        if self.trials < 1:
            raise DimensionError("trials must be at least 1")


@dataclass
class BenchRecord:
    config: BenchConfig
    seconds_mean: float = float("nan")
    seconds_std: float = float("nan")
    residual_vs_ad: float = float("nan")
    available: bool = True
    note: str = ""

    def row(self):
        cfg = asdict(self.config)
        out = {k: cfg[k] for k in CSV_COLUMNS if k in cfg}
        if self.available:
            out["seconds_mean"] = f"{self.seconds_mean:.6e}"
            out["seconds_std"] = f"{self.seconds_std:.6e}"
            out["residual_vs_ad"] = (
                f"{self.residual_vs_ad:.6e}" if np.isfinite(self.residual_vs_ad) else ""
            )
        else:
            out["seconds_mean"] = ""
            out["seconds_std"] = ""
            out["residual_vs_ad"] = ""
        return out


def sample_indices(rng, mode_sizes, count):
    """Distinct multi-indices, uniformly without replacement."""
    total = int(np.prod([float(n) for n in mode_sizes]))
    # Without replacement, Generator.choice needs O(count) memory whatever
    # the population: it permutes the whole range only when count exceeds a
    # fiftieth of it.
    flat = rng.choice(total, size=min(count, total), replace=False)
    return np.array(np.unravel_index(flat, mode_sizes)).T


class Sizes(NamedTuple):
    """The sizes that differ between the bench instances and the suite."""

    op_rank: int
    observations: int
    machines: int


def _completion(rng, modes, sizes):
    idx = sample_indices(rng, modes, sizes.observations)
    return obj_mod.completion_loss(obj_mod.IndexSet(idx, rng.standard_normal(len(idx))))


# One seeded builder ``(rng, modes, sizes) -> Objective`` per CLI name, in
# the order the acceptance suite indexes them.
BUILDERS = {
    "qf": lambda rng, modes, s: obj_mod.quadratic_form(
        random_symmetric_ttmat(rng, modes, s.op_rank)),
    "gram": lambda rng, modes, s: obj_mod.gram_quadratic_form(
        random_ttmat(rng, modes, modes, s.op_rank)),
    "rayleigh": lambda rng, modes, s: obj_mod.rayleigh_quotient(
        random_symmetric_ttmat(rng, modes, s.op_rank)),
    "completion": _completion,
    "expmach": lambda rng, modes, s: obj_mod.expmachines_loss(
        [random_tt(rng, modes, 1) for _ in range(s.machines)],
        rng.choice([-1.0, 1.0], size=s.machines)),
}
FUNCTIONS = tuple(BUILDERS)


def make_instance(cfg: BenchConfig):
    """Seeded deterministic instance: objective, base point and direction."""
    rng = np.random.default_rng(cfg.seed)
    modes = (cfg.n,) * cfg.d
    base = orthogonalize(random_tt(rng, modes, cfg.rx))
    z = project_tt(base, random_tt(rng, modes, cfg.rz))
    sizes = Sizes(cfg.ra, 10 * cfg.d * cfg.n * cfg.rx**2, 32)
    return BUILDERS[cfg.function](rng, modes, sizes), base, z


def objective_suite(rng, modes, r):
    """One of each of the five objectives on ``modes``, sized for base rank r."""
    sizes = Sizes(2, 2 * len(modes) * max(modes) * r * r, 8)
    return [build(rng, modes, sizes) for build in BUILDERS.values()]


def bench_run(cfg: BenchConfig):
    """Warm up once, time ``trials`` repetitions, report agreement vs AD."""
    objective, base, z = make_instance(cfg)
    record = BenchRecord(config=cfg)

    def run():
        return compute_method(objective, cfg.method, cfg.op, base,
                              z if cfg.op == "hvp" else None)

    try:
        result = run()  # warmup
    except UnavailableMethodError as exc:
        record.available = False
        record.note = str(exc)
        return [record]
    times = []
    for _ in range(cfg.trials):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    record.seconds_mean = float(np.mean(times))
    record.seconds_std = float(np.std(times)) if cfg.trials > 1 else 0.0
    reference = result if cfg.method == "ad" else compute_method(
        objective, "ad", cfg.op, base, z if cfg.op == "hvp" else None)
    record.residual_vs_ad = tangent_residual(result, reference)
    return [record]


def write_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.row())


def complexity_ratios(d=6, n=10, rank=5, op_rank=5, trials=7, seed=0):
    """Median ratios time(AD grad or hvp) / time(forward evaluation).

    The denominator is one plain (untaped) evaluation of the objective
    program at the tangent parametrization: that forward pass is the
    baseline the reverse sweeps are a constant multiple of.  Numerator and
    denominator are timed interleaved and the ratio is taken per trial, so
    machine-load drift largely cancels.
    """
    objective, base, z = make_instance(
        BenchConfig("qf", "ad", "grad", d, n, rank, rank, op_rank, seed=seed))
    block = _block_cores(base, _delta_seed(base))
    point = list(base.to_tt().cores)

    # warmup
    objective.evaluate(block)
    objective.evaluate(point)
    riemannian_grad_tt(objective.evaluate, base)
    hess_vec_tt(objective.evaluate, base, z)

    grad_ratios, hvp_ratios, evals, point_evals = [], [], [], []
    for _ in range(trials):
        t0 = time.perf_counter()
        objective.evaluate(point)
        t_point = time.perf_counter() - t0
        t0 = time.perf_counter()
        objective.evaluate(block)
        t_eval = time.perf_counter() - t0
        t0 = time.perf_counter()
        riemannian_grad_tt(objective.evaluate, base)
        t_grad = time.perf_counter() - t0
        t0 = time.perf_counter()
        hess_vec_tt(objective.evaluate, base, z)
        t_hvp = time.perf_counter() - t0
        evals.append(t_eval)
        point_evals.append(t_point)
        grad_ratios.append(t_grad / t_eval)
        hvp_ratios.append(t_hvp / t_eval)
    return {
        "grad_over_eval": float(np.median(grad_ratios)),
        "hvp_over_eval": float(np.median(hvp_ratios)),
        "eval_seconds": float(np.median(evals)),
        "point_eval_seconds": float(np.median(point_evals)),
    }
