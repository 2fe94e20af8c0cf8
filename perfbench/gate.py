"""Correctness gate: every operation the benchmark runs is checked.

The references are the results of the first (cold) call of each operation.
They are checked against the untaped objective: along t -> X + tZ the
block parametrization is linear in the deltas, so <grad, Z> and
<hvp(Z), Z> are the first and second derivatives of t -> f(X + tZ) at 0
and must match Richardson-extrapolated central differences.  The ``ad``
and ``optimized`` pipelines must agree, every solve must reach the stated
accuracy, and every later (timed) result must be finite and bit-identical
to its checked reference.
"""

import numpy as np

import ttriem as tr
from instances import SOLVE_TOL

FD_TOL = 1e-6  # relative; differences are exact for quadratics, O(h^4) otherwise
FD_STEP = 1e-2  # step as a share of ||X|| / ||Z||
METHOD_TOL = 1e-8  # relative residual between the ad and optimized pipelines


class Tally:
    """Counts of attempted and failed operations, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def arrays(result):
    """The arrays that make up an operation result."""
    if isinstance(result, tr.TtTangent):
        return list(result.deltas)
    if isinstance(result, tr.MatrixTangent):
        return [result.du, result.dv]
    x, history = result
    return list(x.cores) + [np.asarray(history, dtype=np.float64)]


def finite(result):
    return all(np.all(np.isfinite(a)) for a in arrays(result))


def same(result, reference):
    a, b = arrays(result), arrays(reference)
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _richardson(f, h):
    """First and second central differences of f at 0, extrapolated."""
    f0 = f(0.0)

    def central(step):
        fp, fm = f(step), f(-step)
        return (fp - fm) / (2.0 * step), (fp - 2.0 * f0 + fm) / step**2

    d1a, d2a = central(h)
    d1b, d2b = central(h / 2.0)
    return (4.0 * d1b - d1a) / 3.0, (4.0 * d2b - d2a) / 3.0


def _close(value, reference):
    scale = max(abs(value), abs(reference), 1e-300)
    return bool(np.isfinite(value)) and abs(value - reference) <= FD_TOL * scale


def line_cores(case, t):
    """Block cores of X + tZ in the delta parametrization of ``case.base``.

    At t = 0 the deltas are the point's own: S[0] in the first slot, zeros
    elsewhere, so the block cores represent X itself.
    """
    seed = [np.zeros(s.shape) for s in case.base.S]
    seed[0] = np.array(case.base.S[0])
    deltas = [s + t * dz for s, dz in zip(seed, case.z.deltas)]
    return list(tr.deltas_to_cores(case.base, deltas).cores)


def _tt_line(case):
    """t -> f(X + tZ), evaluated on the block cores of ``line_cores``."""

    def f(t):
        return float(case.objective.evaluate(line_cores(case, t)))

    x_norm = float(np.linalg.norm(case.base.S[-1]))
    return f, FD_STEP * x_norm / case.z.norm()


def _matrix_line(case):
    """t -> f(X + tZ) through the width-2r factors L = [U, US + t dU], R = [t dV, V]."""
    p = case.point

    def f(t):
        left = np.concatenate([p.u, p.u @ p.s + t * case.z.du], axis=1)
        right = np.concatenate([t * case.z.dv, p.v], axis=1)
        return float(case.program(left, right))

    return f, FD_STEP * float(np.linalg.norm(p.s)) / case.z.norm()


def _derivative_checks(tally, name, line, grad, hvp, dot, z):
    f, h = line
    d1, d2 = _richardson(f, h)
    g1, g2 = dot(grad, z), dot(hvp, z)
    tally.record(finite(grad) and _close(g1, d1),
                 f"{name} grad: <grad, Z> = {g1!r}, central difference {d1!r}")
    tally.record(finite(hvp) and _close(g2, d2),
                 f"{name} hvp: <hvp(Z), Z> = {g2!r}, second difference {d2!r}")


def _residual(a, b):
    diff = tr.tangent_axpy(-1.0, b, a)
    return diff.norm() / max(b.norm(), 1e-300)


def check_references(inst, refs, tally):
    """Check the cold-call results of every operation except the solve."""
    ad_results = {}
    for case, g, h in zip(inst.ad_cases, refs["grad"], refs["hvp"]):
        ad_results[case.label] = (g, h)
        _derivative_checks(tally, f"{case.label} ad", _tt_line(case), g, h,
                           tr.tangent_dot_tt, case.z)
    for case, g, h in zip(inst.opt_cases, refs["opt_grad"], refs["opt_hvp"]):
        if case.label not in ad_results:
            ga = tr.riemannian_grad_tt(case.objective.evaluate, case.base)
            ha = tr.hess_vec_tt(case.objective.evaluate, case.base, case.z)
            _derivative_checks(tally, f"{case.label} ad (reference)", _tt_line(case),
                               ga, ha, tr.tangent_dot_tt, case.z)
            ad_results[case.label] = (ga, ha)
        ga, ha = ad_results[case.label]
        for op, opt, ref in (("grad", g, ga), ("hvp", h, ha)):
            res = _residual(opt, ref) if finite(opt) else float("inf")
            tally.record(res <= METHOD_TOL,
                         f"{case.label} optimized {op}: residual vs ad {res:.3e}")
    m = inst.matrix
    _derivative_checks(tally, f"matrix {m.label}", _matrix_line(m),
                       refs["matrix_grad"][0], refs["matrix_hvp"][0],
                       tr.tangent_dot_matrix, m.z)


def solve_error(inst, result):
    """Relative loss reached by a solve."""
    s = inst.solve
    history = result[1]
    return (history[-1] - s.f_min) / s.scale


def check_solve(inst, result, tally):
    err = solve_error(inst, result) if finite(result) else float("inf")
    ok = bool(err <= SOLVE_TOL)
    tally.record(ok, f"solve {inst.solve.label}: relative loss {err:.3e} after "
                     f"{inst.solve.steps} steps (needs {SOLVE_TOL:.0e})")
    return ok


def check_round(kind, results, references, tally):
    """Every result of a timed round is finite and equals its reference."""
    for i, (res, ref) in enumerate(zip(results, references)):
        tally.record(finite(res) and same(res, ref),
                     f"{kind} result {i} differs from its checked reference")
