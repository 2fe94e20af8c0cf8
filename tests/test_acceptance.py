"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from ttriem import ad
from ttriem.baselines import demo_complete, demo_eigen, demo_solve
from ttriem.bench import BenchConfig, complexity_ratios, make_instance, objective_suite
from ttriem.oracles import (
    dense_preconditioned_residual,
    dense_residual,
    method_residuals,
    oracle_residuals,
)
from ttriem.tt import (
    orthogonalize,
    pad_ranks,
    random_tt,
    random_ttmat,
    ttmat_to_dense,
)
from ttriem.ttmanifold import (
    hess_vec_tt,
    point_as_tangent,
    preconditioned_residual,
    project_tt,
    riemannian_grad_tt,
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_method_equivalence():
    """Pairwise residual < 1e-8 between available methods, full grid < 60 s."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for d in (3, 4):
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                rng = np.random.default_rng(1000 * d + 100 * n + r)
                modes = (n,) * d
                base = orthogonalize(random_tt(rng, modes, r))
                z = project_tt(base, random_tt(rng, modes, r))
                for obj in objective_suite(rng, modes, r):
                    for op in ("grad", "hvp"):
                        pairs = method_residuals(obj, op, base, z)
                        assert any("ad" in pair for pair in pairs)
                        for (mi, mj), rel in pairs.items():
                            worst = max(worst, rel)
                            checked += 1
                            assert rel < 1e-8, (obj.name, op, mi, mj, d, n, r, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(1, ok, f"method equivalence: {checked} pairs, worst residual "
                   f"{worst:.2e}, suite {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_2_oracle_equivalence():
    """AD grad/hvp vs dense projector oracle: 1e-9 analytic, 1e-6 FD."""
    worst_analytic = 0.0
    worst_fd = 0.0
    instances = 0
    for seed in range(52):
        rng = np.random.default_rng(7000 + seed)
        d = int(rng.integers(3, 5))
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        modes = (n,) * d
        base = orthogonalize(random_tt(rng, modes, r))
        z = project_tt(base, random_tt(rng, modes, r))
        objectives = objective_suite(rng, modes, r)
        obj = objectives[seed % len(objectives)]
        rel_g, rel_h = oracle_residuals(obj, base, z)
        worst_analytic = max(worst_analytic, rel_g, rel_h)
        assert rel_g < 1e-9 and rel_h < 1e-9, (obj.name, seed, rel_g, rel_h)
        if seed % 4 == 0:
            rel_g, rel_h = oracle_residuals(obj, base, z, use_fd=True)
            worst_fd = max(worst_fd, rel_g, rel_h)
            assert rel_g < 1e-6 and rel_h < 1e-6, (obj.name, seed, rel_g, rel_h)
        instances += 1
    assert instances >= 50
    _report(2, True, f"oracle equivalence on {instances} instances: worst "
                     f"analytic {worst_analytic:.2e}, worst FD {worst_fd:.2e}")


def test_criterion_3_gauge_and_orthogonality():
    """Gauge and core-orthogonality residuals < 1e-10 across a random suite."""
    worst_orth = 0.0
    worst_gauge = 0.0
    for seed in range(40):
        rng = np.random.default_rng(3000 + seed)
        d = int(rng.integers(3, 5))
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 4))
        modes = (n,) * d
        base = orthogonalize(random_tt(rng, modes, r))
        for k in range(d - 1):
            u = base.U[k]
            worst_orth = max(worst_orth, np.abs(
                np.einsum("aib,aic->bc", u, u) - np.eye(u.shape[2])).max())
        for k in range(1, d):
            v = base.V[k]
            worst_orth = max(worst_orth, np.abs(
                np.einsum("aib,cib->ac", v, v) - np.eye(v.shape[0])).max())
        z = project_tt(base, random_tt(rng, modes, r + 1))
        obj = objective_suite(rng, modes, r)[seed % 5]
        produced = [
            z,
            riemannian_grad_tt(obj.evaluate, base),
            hess_vec_tt(obj.evaluate, base, z),
        ]
        for t in produced:
            res = t.gauge_residuals()
            if res:
                worst_gauge = max(worst_gauge, max(res))
    ok = worst_orth < 1e-10 and worst_gauge < 1e-10
    _report(3, ok, f"orthogonality residual {worst_orth:.2e}, "
                   f"gauge residual {worst_gauge:.2e}")
    assert ok


@pytest.mark.parametrize("rank", [5, 10, 20])
def test_criterion_4_complexity_contract(rank):
    """time(AD grad)/time(f eval) <= 10 and hvp ratio <= 25 at d=6, n=10.

    The evaluation baseline is one untaped forward pass of the objective
    program at the tangent parametrization: the quantity whose constant
    multiple the reverse sweeps are asserted to be.  The line also prints
    the three median times, since a cheaper evaluation alone raises both
    ratios.
    """
    start = time.perf_counter()
    res = complexity_ratios(d=6, n=10, rank=rank, op_rank=5, trials=9, seed=rank)
    elapsed = time.perf_counter() - start
    ok = res["grad_over_eval"] <= 10.0 and res["hvp_over_eval"] <= 25.0 and elapsed < 30.0
    _report(4, ok, f"r={rank}: grad/eval {res['grad_over_eval']:.2f} (<=10), "
                   f"hvp/eval {res['hvp_over_eval']:.2f} (<=25), "
                   f"eval/grad/hvp {1e3 * res['eval_seconds']:.3f}/"
                   f"{1e3 * res['grad_seconds']:.3f}/{1e3 * res['hvp_seconds']:.3f} ms, "
                   f"run {elapsed:.1f} s")
    assert res["grad_over_eval"] <= 10.0
    assert res["hvp_over_eval"] <= 25.0
    assert elapsed < 30.0


def _tape_nodes(monkeypatch, call):
    """Nodes on the tape that ``call`` sweeps, and the nodes each of its
    value-only sweeps appends."""
    nodes, appended = [], []
    sweep = ad.grad

    def counting_grad(tape, output, wrt, as_vars=False):
        before = len(tape)
        out = sweep(tape, output, wrt, as_vars=as_vars)
        nodes.append(len(tape))
        if not as_vars:
            appended.append(len(tape) - before)
        return out

    with monkeypatch.context() as m:
        m.setattr(ad, "grad", counting_grad)
        call()
    return nodes[-1], appended


def test_criterion_4_node_counts(monkeypatch):
    """Criterion 4 as a count: the tape nodes of the AD grad and HVP over
    those of one evaluation are 1.240 and 3.160 at each of r = 5, 10 and
    20, on the criterion's qf instances, and no value-only sweep appends a
    node."""
    ratios = {}
    for rank in (5, 10, 20):
        objective, base, z = make_instance(
            BenchConfig("qf", "ad", "grad", 6, 10, rank, rank, 5, seed=rank))
        block = point_as_tangent(base).materialize().cores
        tape, _ = ad.record(block, lambda *cores: objective.evaluate(list(cores)))
        grad_nodes, grad_appended = _tape_nodes(
            monkeypatch, lambda: riemannian_grad_tt(objective.evaluate, base))
        hvp_nodes, hvp_appended = _tape_nodes(
            monkeypatch, lambda: hess_vec_tt(objective.evaluate, base, z))
        assert grad_appended == [0] and hvp_appended == [0]
        ratios[rank] = (grad_nodes / len(tape), hvp_nodes / len(tape))
    ok = {(round(g, 3), round(h, 3)) for g, h in ratios.values()} == {(1.240, 3.160)}
    _report(4, ok, "tape nodes over eval nodes, grad/hvp: " + ", ".join(
        f"r={r} {g:.3f}/{h:.3f}" for r, (g, h) in ratios.items()))
    assert ok


def test_criterion_5_stop_gradient_preconditioned_residual():
    """P_X B (A X - F) matches the dense oracle on 20 non-commuting pairs."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        d = int(rng.integers(3, 5))
        n = int(rng.integers(2, 4))
        modes = (n,) * d
        base = orthogonalize(random_tt(rng, modes, 2))
        a = random_ttmat(rng, modes, modes, 2)
        b = random_ttmat(rng, modes, modes, 2)
        f = random_tt(rng, modes, 2)
        ad_, bd = ttmat_to_dense(a), ttmat_to_dense(b)
        assert np.abs(ad_ @ bd - bd @ ad_).max() > 1e-8  # genuinely non-commuting
        rel = dense_residual(preconditioned_residual(a, b, f, base),
                             dense_preconditioned_residual(a, b, f, base))
        worst = max(worst, rel)
        assert rel < 1e-9, (seed, rel)
    _report(5, True, f"stop-gradient residual projection on 20 instances, "
                     f"worst {worst:.2e}")


def test_criterion_6_overestimated_rank_robustness():
    """Zero singular values present: everything still runs and matches."""
    from ttriem.matrix import FixedRankPoint, riemannian_grad_matrix, tangent_materialize

    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(6000 + seed)
        d = int(rng.integers(3, 5))
        n = 3
        modes = (n,) * d
        true_rank = 1 + seed % 2
        x = pad_ranks(random_tt(rng, modes, true_rank), true_rank + 2)
        base = orthogonalize(x)
        z = project_tt(base, random_tt(rng, modes, 2))
        for obj in objective_suite(rng, modes, 2)[: 3]:
            rel_g, rel_h = oracle_residuals(obj, base, z)
            worst = max(worst, rel_g, rel_h)
            assert rel_g < 1e-9 and rel_h < 1e-9, (obj.name, seed, rel_g, rel_h)
    # matrix manifold with explicit zero singular values
    rng = np.random.default_rng(60)
    u = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    point = FixedRankPoint(u, np.diag([1.0, 0.5, 0.0]), v)

    def quad(left, right):
        from ttriem import ad

        prod = ad.contract(left, right, [(1, 1)])
        return (prod * prod).sum()

    g = riemannian_grad_matrix(quad, point)
    gl, gr = tangent_materialize(g)
    pv = point.v @ point.v.T
    euclid = 2.0 * point.to_dense()
    want = euclid @ pv + point.u @ (point.u.T @ euclid) @ (np.eye(4) - pv)
    rel = np.linalg.norm(gl @ gr.T - want) / max(np.linalg.norm(want), 1.0)
    worst = max(worst, rel)
    assert rel < 1e-9
    _report(6, True, f"overestimated-rank robustness, worst residual {worst:.2e}")


def test_criterion_7_demo_convergence():
    """The three descent demos hit their thresholds, each within 30 s."""
    t0 = time.perf_counter()
    _, solve_hist = demo_solve()
    t_solve = time.perf_counter() - t0
    solve_ok = all(b <= a + 1e-12 for a, b in zip(solve_hist, solve_hist[1:]))
    assert solve_ok and t_solve < 30.0

    t0 = time.perf_counter()
    _, eig_hist, lam = demo_eigen()
    t_eig = time.perf_counter() - t0
    eig_gap = eig_hist[-1] - lam
    assert eig_gap < 1e-6 and t_eig < 30.0

    t0 = time.perf_counter()
    _, comp_hist = demo_complete(steps=200)
    t_comp = time.perf_counter() - t0
    comp_steps = next((i for i, v in enumerate(comp_hist) if v < 1e-6), None)
    assert comp_steps is not None and comp_steps <= 200 and t_comp < 30.0

    _report(7, True,
            f"demos: solve monotone ({t_solve:.1f} s), eigen gap {eig_gap:.1e} "
            f"({t_eig:.1f} s), completion < 1e-6 in {comp_steps} steps ({t_comp:.1f} s)")
