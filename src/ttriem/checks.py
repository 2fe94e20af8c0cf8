"""Named invariant suites behind ``ttriem check``.

Each check is a small deterministic battery that raises AssertionError on
violation (explicitly, so that ``python -O`` cannot strip it); the runner
prints one PASS/FAIL line per check and reports an overall exit status.
"""

import numpy as np

from . import ad
from .ad import contract
from .bench import objective_suite
from .dense import qr_thin, svd_thin
from .objectives import quadratic_form
from .oracles import (
    dense_preconditioned_residual,
    dense_project,
    dense_residual,
    method_residuals,
    oracle_residuals,
)
from .tt import (
    TtTensor,
    orthogonalize,
    pad_ranks,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_axpy,
    tt_dot,
    tt_to_dense,
    ttmat_apply,
    ttmat_to_dense,
)
from .ttmanifold import (
    preconditioned_residual,
    project_tt,
    tangent_axpy,
    tangent_dot_tt,
)

__all__ = ["CHECKS", "run_checks"]


def _require(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _rng(seed=0):
    return np.random.default_rng(seed)


def check_dense_kernels():
    rng = _rng(1)
    for p, q in ((4, 3), (6, 3), (5, 5)):
        m = rng.standard_normal((p, q))
        qm, rm = qr_thin(m)
        _require(np.abs(qm.T @ qm - np.eye(q)).max() < 1e-12, "qr_thin: Q is not orthonormal")
        _require(np.abs(qm @ rm - m).max() < 1e-12 * np.abs(m).max(),
                 "qr_thin: Q R differs from m")
        _require(np.all(np.diagonal(rm) >= 0.0), "qr_thin: R has a negative diagonal")
        u, s, v = svd_thin(m)
        _require(np.abs(u @ np.diag(s) @ v.T - m).max() < 1e-11,
                 "svd_thin: U diag(s) V^T differs from m")
        _require(np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0),
                 "svd_thin: s is not nonincreasing and nonnegative")
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    _require(np.abs(contract(a, b, [(1, 0)]) - a @ b).max() < 1e-13, "contract differs from a @ b")


def check_ad_engine():
    tape, out = ad.record([1.0, 0.0], lambda a, b: ad.exp(a * b) + ad.sin(b))
    _require(abs(out.value - 1.0) < 1e-15, "wrong forward value")
    g = ad.grad(tape, out, [tape.nodes[0], tape.nodes[1]])
    _require(abs(g[0] - 0.0) < 1e-15 and abs(g[1] - 2.0) < 1e-15, "wrong gradient")
    tape, out = ad.record([2.0], lambda v: (v * v) * (v * v))
    (g1,) = ad.grad(tape, out, [tape.nodes[0]], as_vars=True)
    (g2,) = ad.grad(tape, g1, [tape.nodes[0]])
    _require(abs(g2 - 48.0) < 1e-12, "wrong nested second derivative")


def check_stop_gradient():
    rng = _rng(2)
    x = rng.standard_normal((3, 3))
    tape, out = ad.record([x], lambda v: ad.contract(ad.stop_gradient(v), v, [(0, 0), (1, 1)]))
    (g,) = ad.grad(tape, out, [tape.nodes[0]])
    _require(np.abs(g - x).max() < 1e-14, "wrong gradient through the live factor")
    tape, out = ad.record([x], lambda v: ad.stop_gradient(v).sum())
    (g,) = ad.grad(tape, out, [tape.nodes[0]])
    _require(np.abs(g).max() == 0.0, "gradient leaked through stop_gradient")


def check_tt_orthogonality():
    rng = _rng(3)
    x = random_tt(rng, (3, 4, 2, 3), (2, 3, 2))
    mo = orthogonalize(x)
    dense = tt_to_dense(x)
    for mu in range(x.ndim):
        err = np.abs(tt_to_dense(TtTensor(mo.mu_cores(mu))) - dense).max()
        _require(err < 1e-10 * max(np.abs(dense).max(), 1.0),
                 f"mu={mu}: mu-cores do not reproduce the tensor")
    for k in range(x.ndim - 1):
        u = mo.U[k]
        _require(np.abs(np.einsum("aib,aic->bc", u, u) - np.eye(u.shape[2])).max() < 1e-11,
                 f"U[{k}] is not left-orthonormal")
    for k in range(1, x.ndim):
        v = mo.V[k]
        _require(np.abs(np.einsum("aib,cib->ac", v, v) - np.eye(v.shape[0])).max() < 1e-11,
                 f"V[{k}] is not right-orthonormal")


def check_tt_arithmetic():
    rng = _rng(4)
    x = random_tt(rng, (2, 3, 2), (2, 2))
    y = random_tt(rng, (2, 3, 2), (3, 2))
    a = random_ttmat(rng, (2, 3, 2), (2, 3, 2), 2)
    dx, dy = tt_to_dense(x), tt_to_dense(y)
    _require(abs(tt_dot(x, y) - np.vdot(dx, dy)) < 1e-12 * max(abs(np.vdot(dx, dy)), 1.0),
             "tt_dot differs from the dense inner product")
    s = tt_axpy(1.5, x, y)
    _require(np.abs(tt_to_dense(s) - (1.5 * dx + dy)).max() < 1e-12,
             "tt_axpy differs from the dense axpy")
    _require(np.abs(
        tt_to_dense(ttmat_apply(a, x)).ravel() - ttmat_to_dense(a) @ dx.ravel()
    ).max() < 1e-11 * max(np.abs(dx).max(), 1.0),
             "ttmat_apply differs from the dense matvec")
    # apply distributes over axpy
    lhs = tt_to_dense(ttmat_apply(a, s))
    rhs = 1.5 * tt_to_dense(ttmat_apply(a, x)) + tt_to_dense(ttmat_apply(a, y))
    _require(np.abs(lhs - rhs).max() < 1e-11 * max(np.abs(rhs).max(), 1.0),
             "ttmat_apply does not distribute over tt_axpy")


def check_projection():
    rng = _rng(5)
    x = random_tt(rng, (2, 3, 2), (2, 2))
    mo = orthogonalize(x)
    z = random_tt(rng, (2, 3, 2), (3, 3))
    t = project_tt(mo, z)
    _require(max(t.gauge_residuals()) < 1e-10, "projection violates the gauge conditions")
    want = dense_project(mo, tt_to_dense(z))
    got = tt_to_dense(t.materialize())
    _require(np.abs(got - want).max() < 1e-10 * max(np.abs(want).max(), 1.0),
             "projection differs from the dense oracle")
    t2 = project_tt(mo, t.materialize())
    diff = tangent_axpy(-1.0, t, t2)
    _require(np.sqrt(max(tangent_dot_tt(diff, diff), 0.0)) < 1e-10 * max(t.norm(), 1.0),
             "projection is not idempotent")


def _require_oracle(objective, base, z):
    rel_g, rel_h = oracle_residuals(objective, base, z)
    _require(rel_g < 1e-9, f"{objective.name}: gradient differs from the dense oracle "
                           f"(residual {rel_g:.2e})")
    _require(rel_h < 1e-9, f"{objective.name}: HVP differs from the dense oracle "
                           f"(residual {rel_h:.2e})")


def check_gradients_match_oracle():
    rng = _rng(6)
    modes = (2, 3, 2)
    base = orthogonalize(random_tt(rng, modes, 2))
    z = project_tt(base, random_tt(rng, modes, 2))
    for objective in objective_suite(rng, modes, 2):
        _require_oracle(objective, base, z)


def check_method_agreement():
    rng = _rng(7)
    modes = (3, 2, 3)
    base = orthogonalize(random_tt(rng, modes, 2))
    z = project_tt(base, random_tt(rng, modes, 2))
    for objective in objective_suite(rng, modes, 2):
        for op in ("grad", "hvp"):
            for (ref, other), rel in method_residuals(objective, op, base, z).items():
                _require(rel < 1e-8, f"{objective.name} {op}: {other} against {ref}, "
                                     f"residual {rel:.2e}")


def check_preconditioned_residual():
    rng = _rng(8)
    modes = (2, 3, 2)
    base = orthogonalize(random_tt(rng, modes, 2))
    a = random_ttmat(rng, modes, modes, 2)
    b = random_ttmat(rng, modes, modes, 2)
    f = random_tt(rng, modes, 2)
    rel = dense_residual(preconditioned_residual(a, b, f, base),
                         dense_preconditioned_residual(a, b, f, base))
    _require(rel < 1e-9, f"preconditioned residual differs from the dense reference ({rel:.2e})")


def check_overranked_robustness():
    # Declared rank above the true rank: zero singular values present.
    rng = _rng(9)
    modes = (2, 3, 2)
    base = orthogonalize(pad_ranks(random_tt(rng, modes, 1), 2))
    objective = quadratic_form(random_symmetric_ttmat(rng, modes, 2))
    _require_oracle(objective, base, project_tt(base, random_tt(rng, modes, 2)))


def check_objective_reparametrization():
    # Evaluation must not depend on which TT representation of X is used.
    rng = _rng(10)
    modes = (2, 3, 2)
    x = random_tt(rng, modes, 2)
    mo = orthogonalize(x)
    for objective in objective_suite(rng, modes, 2):
        vals = [float(objective.evaluate([np.asarray(c) for c in mo.mu_cores(mu)]))
                for mu in range(x.ndim)]
        vals.append(float(objective.evaluate([np.asarray(c) for c in x.cores])))
        spread = max(vals) - min(vals)
        _require(spread < 1e-10 * max(abs(vals[0]), 1.0), f"{objective.name}: spread {spread}")


CHECKS = [
    ("dense-kernels", check_dense_kernels),
    ("ad-engine", check_ad_engine),
    ("stop-gradient", check_stop_gradient),
    ("tt-orthogonality", check_tt_orthogonality),
    ("tt-arithmetic", check_tt_arithmetic),
    ("tangent-projection", check_projection),
    ("gradients-vs-oracle", check_gradients_match_oracle),
    ("method-agreement", check_method_agreement),
    ("preconditioned-residual", check_preconditioned_residual),
    ("overranked-robustness", check_overranked_robustness),
    ("objective-reparametrization", check_objective_reparametrization),
]


def run_checks(name_filter=None, out=print):
    """Run the (optionally filtered) checks; return the number of failures."""
    failures = 0
    selected = [c for c in CHECKS if name_filter is None or name_filter in c[0]]
    if not selected:
        out(f"no checks match filter {name_filter!r}")
        return 1
    for name, fn in selected:
        try:
            fn()
        except Exception as exc:  # report, keep going
            failures += 1
            out(f"FAIL {name}: {exc}")
        else:
            out(f"PASS {name}")
    return failures
