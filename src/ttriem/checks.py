"""Named invariant suites behind ``ttriem check``.

Each check is a small deterministic battery that raises AssertionError on
violation (explicitly, so that ``python -O`` cannot strip it); the runner
prints one PASS/FAIL line per check and reports an overall exit status.
"""

import numpy as np

from . import ad
from .baselines import compute_method
from .dense import contract, qr_thin, svd_thin
from .errors import UnavailableMethodError
from .objectives import (
    IndexSet,
    completion_loss,
    expmachines_loss,
    gram_quadratic_form,
    quadratic_form,
    rayleigh_quotient,
)
from .oracles import dense_oracle_grad, dense_oracle_hvp, dense_project
from .tt import (
    orthogonalize,
    random_symmetric_ttmat,
    random_tt,
    random_ttmat,
    tt_axpy,
    tt_dot,
    tt_to_dense,
    ttmat_apply,
)
from .ttmanifold import (
    hess_vec_tt,
    preconditioned_residual,
    project_tt,
    riemannian_grad_tt,
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
        from .tt import TtTensor

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
    from .tt import ttmat_to_dense

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


def check_gradients_match_oracle():
    rng = _rng(6)
    modes = (2, 3, 2)
    x = random_tt(rng, modes, 2)
    mo = orthogonalize(x)
    z = project_tt(mo, random_tt(rng, modes, 2))
    zd = tt_to_dense(z.materialize())
    a = random_symmetric_ttmat(rng, modes, 2)
    idx = np.array([[i, j, k] for i in range(2) for j in range(3) for k in range(2)])
    objs = [
        quadratic_form(a),
        gram_quadratic_form(random_ttmat(rng, modes, modes, 2)),
        rayleigh_quotient(a),
        completion_loss(IndexSet(idx, rng.standard_normal(len(idx)))),
        expmachines_loss([random_tt(rng, modes, 1) for _ in range(3)], [1.0, -1.0, 1.0]),
    ]
    for objective in objs:
        g = riemannian_grad_tt(objective.evaluate, mo)
        want = dense_oracle_grad(objective, mo)
        scale = max(np.abs(want).max(), 1.0)
        _require(np.abs(tt_to_dense(g.materialize()) - want).max() < 1e-9 * scale,
                 f"{objective.name}: gradient differs from the dense oracle")
        h = hess_vec_tt(objective.evaluate, mo, z)
        want = dense_oracle_hvp(objective, mo, zd)
        scale = max(np.abs(want).max(), 1.0)
        _require(np.abs(tt_to_dense(h.materialize()) - want).max() < 1e-9 * scale,
                 f"{objective.name}: HVP differs from the dense oracle")


def check_method_agreement():
    rng = _rng(7)
    modes = (3, 2, 3)
    x = random_tt(rng, modes, 2)
    mo = orthogonalize(x)
    z = project_tt(mo, random_tt(rng, modes, 2))
    a = random_symmetric_ttmat(rng, modes, 2)
    idx = np.array([[i, j, k] for i in range(3) for j in range(2) for k in range(3)])[::2]
    objs = [
        quadratic_form(a),
        gram_quadratic_form(random_ttmat(rng, modes, modes, 2)),
        rayleigh_quotient(a),
        completion_loss(IndexSet(idx, rng.standard_normal(len(idx)))),
        expmachines_loss([random_tt(rng, modes, 1) for _ in range(4)], [1.0, -1.0, 1.0, -1.0]),
    ]
    for objective in objs:
        for op in ("grad", "hvp"):
            results = {}
            for method in ("ad", "naive", "optimized"):
                try:
                    results[method] = compute_method(objective, method, op, mo, z)
                except UnavailableMethodError:
                    continue
            ref = results["ad"]
            for method, res in results.items():
                diff = tangent_axpy(-1.0, ref, res)
                rel = np.sqrt(max(tangent_dot_tt(diff, diff), 0.0)) / max(ref.norm(), 1e-300)
                _require(rel < 1e-8, f"{objective.name} {method} {op}: residual {rel}")


def check_preconditioned_residual():
    rng = _rng(8)
    modes = (2, 3, 2)
    x = random_tt(rng, modes, 2)
    mo = orthogonalize(x)
    a = random_ttmat(rng, modes, modes, 2)
    b = random_ttmat(rng, modes, modes, 2)
    f = random_tt(rng, modes, 2)
    t = preconditioned_residual(a, b, f, mo)
    from .tt import ttmat_to_dense

    ad_, bd = ttmat_to_dense(a), ttmat_to_dense(b)
    xd, fd = tt_to_dense(mo.to_tt()), tt_to_dense(f)
    want = dense_project(mo, (bd @ (ad_ @ xd.ravel() - fd.ravel())).reshape(xd.shape))
    _require(np.abs(tt_to_dense(t.materialize()) - want).max() < 1e-9 * max(np.abs(want).max(), 1.0),
             "preconditioned residual differs from the dense reference")


def check_overranked_robustness():
    # Declared rank above the true rank: zero singular values present.
    rng = _rng(9)
    modes = (2, 3, 2)
    low = random_tt(rng, modes, 1)
    padded_cores = []
    full = (1, 2, 2, 1)
    for k, c in enumerate(low.cores):
        core = np.zeros((full[k], modes[k], full[k + 1]))
        core[: c.shape[0], :, : c.shape[2]] = c
        padded_cores.append(core)
    from .tt import TtTensor

    x = TtTensor(padded_cores)
    mo = orthogonalize(x)
    a = random_symmetric_ttmat(rng, modes, 2)
    objective = quadratic_form(a)
    g = riemannian_grad_tt(objective.evaluate, mo)
    want = dense_oracle_grad(objective, mo)
    _require(np.abs(tt_to_dense(g.materialize()) - want).max() < 1e-9 * max(np.abs(want).max(), 1.0),
             "gradient differs from the dense oracle")
    z = project_tt(mo, random_tt(rng, modes, 2))
    h = hess_vec_tt(objective.evaluate, mo, z)
    want = dense_oracle_hvp(objective, mo, tt_to_dense(z.materialize()))
    _require(np.abs(tt_to_dense(h.materialize()) - want).max() < 1e-9 * max(np.abs(want).max(), 1.0),
             "HVP differs from the dense oracle")


def check_objective_reparametrization():
    # Evaluation must not depend on which TT representation of X is used.
    rng = _rng(10)
    modes = (2, 3, 2)
    x = random_tt(rng, modes, 2)
    mo = orthogonalize(x)
    a = random_symmetric_ttmat(rng, modes, 2)
    idx = np.array([[0, 0, 0], [1, 2, 1], [0, 1, 1]])
    objs = [
        quadratic_form(a),
        rayleigh_quotient(a),
        completion_loss(IndexSet(idx, rng.standard_normal(3))),
        expmachines_loss([random_tt(rng, modes, 1) for _ in range(2)], [1.0, -1.0]),
    ]
    for objective in objs:
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
