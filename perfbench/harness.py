"""Setup, the closed measurement loop, the traced run and the metrics.

Imported by ``run.py`` after it has pinned the BLAS threads and put the
checkout's ``src`` directory on the import path.
"""

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import instances
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of this many cold set-ups, each in a fresh process,
# so that it carries the first-call costs (about 100 ms for a first call
# whose steady state is a few ms) that a warm process no longer pays.
SETUP_REPEATS = 5

# Every timed stretch (a round, a set-up) is bracketed by two runs of a
# fixed probe and reported as a multiple of the probe's time there, scaled
# by PROBE_REF_MS, the probe's median time on the 2-core machine the
# benchmark was built on.  Other tenants of a shared machine slow
# everything on it by up to about 1.8x, for stretches longer than a run;
# the probe slows with the round it brackets, so the ratio barely moves.
PROBE_REF_MS = 1.5

# Share of the measured seconds each operation kind gets, and the samples
# it gets at least.  The shares give the kinds with few, long samples
# (solves, the optimized HVP on operator_r5) enough of them for a stable
# median; the minimums give the grad and hvp tails twenty samples below
# them.
SHARES = {
    "operator_r20": dict(grad=0.2, hvp=0.4, opt_grad=0.05, opt_hvp=0.05,
                         matrix_grad=0.1, matrix_hvp=0.1, solve=0.1),
    "operator_r5": dict(grad=0.06, hvp=0.12, opt_grad=0.04, opt_hvp=0.5,
                        matrix_grad=0.1, matrix_hvp=0.1, solve=0.08),
    "completion": dict(grad=0.12, hvp=0.3, opt_grad=0.05, opt_hvp=0.05,
                       matrix_grad=0.05, matrix_hvp=0.1, solve=0.45),
}
MIN_SAMPLES = dict(grad=31, hvp=31, opt_grad=3, opt_hvp=3, matrix_grad=3,
                   matrix_hvp=3, solve=2)

# Functions each workload must reach in the traced run; zero calls to one
# of them means a wrapper was bypassed.
EXPECTED_COMMON = (
    "ad.contract", "ad.grad", "ttmanifold._block_cores", "ttmanifold._apply_gauge",
    "ttmanifold._tape_gauge", "ttmanifold.riemannian_grad_tt", "ttmanifold.hess_vec_tt",
    "matrix.riemannian_grad_matrix", "matrix.hess_vec_matrix",
    "baselines.optimized_grad", "baselines.optimized_hvp", "baselines.riemannian_gd_demo",
    "tt.orthogonalize", "tt.tt_round", "tt.tt_axpy", "dense.qr_thin", "dense.svd_thin",
)
EXPECTED = {
    "operator_r20": EXPECTED_COMMON + ("coreops.matvec_cores", "coreops.dot_cores",
                                       "baselines.project_rank1_sum"),
    "operator_r5": EXPECTED_COMMON + ("coreops.matvec_cores", "coreops.dot_cores",
                                      "baselines.project_matvec",
                                      "baselines.project_rank1_sum"),
    "completion": EXPECTED_COMMON + ("ad.gather_mode", "ad.scatter_mode", "ad.batch_matmul",
                                     "coreops.entries_cores", "baselines.project_sparse",
                                     "tt.tt_entries"),
}


def load_spec(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics


class SpeedProbe:
    """About a millisecond of interpreter work, small BLAS products and a
    2 MB memory pass: the mix the library's rounds are made of."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mat = rng.standard_normal((32, 32))
        self.cube = rng.standard_normal((8, 8, 40))
        self.vec = rng.standard_normal(250_000)
        self.seconds()  # the probe's own first call is not a measurement

    def seconds(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        x = self.mat
        for _ in range(20):
            x = np.tensordot(self.cube, x[:8, :8], axes=([1], [0]))
            x = x.reshape(-1)[:1024].reshape(32, 32) @ self.mat
        float(np.add(self.vec, 1.0).sum())
        return time.perf_counter() - t0


def median_ms(ratios):
    return PROBE_REF_MS * statistics.median(ratios)


def tail_ms(ratios):
    """Highest percentile with at least ten samples beyond it: (ms, percentile)."""
    ordered = sorted(ratios)
    n = len(ordered)
    return PROBE_REF_MS * ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# environment


def environment(args, inst):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": instances.describe(inst),
    }


# ---------------------------------------------------------------------------
# the run


def cold_setup(args, probe):
    """Build the instance and make the first call of each operation.

    Meant to run once per process, so that it pays the first-call costs of
    a fresh interpreter.  Returns its duration as a probe ratio (see
    PROBE_REF_MS) and the instance with its reference results.
    """
    before = probe.seconds()
    t0 = time.perf_counter()
    inst = instances.build(args.workload, args.seed, tiny=args.tiny)
    refs = instances.cold_calls(inst)
    elapsed = time.perf_counter() - t0
    return 2.0 * elapsed / (before + probe.seconds()), inst, refs


def setup(args, probe):
    """Cold set-ups in SETUP_REPEATS - 1 fresh processes, then this one's.

    The processes run one after another, before this one builds anything.
    A traced run, which reports no ``setup_s``, makes only its own.
    Returns the median set-up in seconds and this process's instance with
    its reference results.
    """
    ratios = [] if args.trace else [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    ratio, inst, refs = cold_setup(args, probe)
    ratios.append(ratio)
    return median_ms(ratios) / 1e3, inst, refs


def child_setup(args):
    """One cold set-up in a fresh process (``run.py --setup-only``)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(lines[-1])


def run_checked(inst, kind, refs, tally, probe, call_times=None):
    """One round of ``kind``, timed, then checked against its reference.

    Each round starts from a collected heap.  Tapes are reference cycles,
    so they wait for the cyclic collector; without this a round would pay,
    at random, for the tapes that rounds of other kinds left behind.  The
    collections a round's own garbage triggers still fall inside it.

    The first solve is checked for accuracy and becomes the reference of
    the later ones.  Returns the round's seconds and the mean of the probe
    runs right before and after it.
    """
    gc.collect()
    before = probe.seconds()
    t0 = time.perf_counter()
    out = instances.run_kind(inst, kind, call_times)
    elapsed = time.perf_counter() - t0
    around = 0.5 * (before + probe.seconds())
    if kind == "solve" and "solve" not in refs:
        if gate.check_solve(inst, out[0], tally):
            refs["solve"] = out
    else:
        gate.check_round(kind, out, refs[kind], tally)
    return elapsed, around


def measure(inst, refs, seconds, tally, probe):
    """Closed loop for ``seconds``: always run the kind furthest below its share.

    Returns per kind the round times in seconds and as probe ratios.
    """
    shares = SHARES[inst.workload]
    seconds_of = {k: [] for k in shares}
    ratios = {k: [] for k in shares}
    spent = dict.fromkeys(shares, 0.0)
    start = time.perf_counter()
    while True:
        pending = [k for k in shares if len(ratios[k]) < MIN_SAMPLES[k]]
        if time.perf_counter() - start >= seconds and not pending:
            break
        kind = min(pending or shares, key=lambda k: spent[k] / shares[k])
        dt, around = run_checked(inst, kind, refs, tally, probe)
        seconds_of[kind].append(dt)
        ratios[kind].append(dt / around)
        spent[kind] += dt
    return seconds_of, ratios


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(seconds_of, ratios, setup_s, rss_mb, tally):
    grad_tail, grad_pct = tail_ms(ratios["grad"])
    hvp_tail, hvp_pct = tail_ms(ratios["hvp"])
    values = {
        "grad_ms": median_ms(ratios["grad"]),
        "grad_tail_ms": grad_tail,
        "hvp_ms": median_ms(ratios["hvp"]),
        "hvp_tail_ms": hvp_tail,
        "opt_grad_ms": median_ms(ratios["opt_grad"]),
        "opt_hvp_ms": median_ms(ratios["opt_hvp"]),
        "matrix_grad_ms": median_ms(ratios["matrix_grad"]),
        "matrix_hvp_ms": median_ms(ratios["matrix_hvp"]),
        "solve_s": median_ms(ratios["solve"]) / 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
        "pass_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    detail = {
        "samples": {k: len(v) for k, v in ratios.items()},
        "wall_median_ms": {k: round(1e3 * statistics.median(v), 3)
                           for k, v in seconds_of.items()},
        "grad_tail_percentile": round(grad_pct, 1),
        "hvp_tail_percentile": round(hvp_pct, 1),
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    return values, detail


def traced(inst, refs, seconds, tally, args, probe):
    """Untraced rounds, then traced rounds; per-layer numbers per traced round.

    A round here runs every operation kind once, in the order of KINDS.
    The wrappers are installed only after the untraced rounds, so those
    run on the unwrapped library.  The untraced rounds also time one plain
    evaluation per objective right before its gradient and its HVP, for
    the grad/eval and hvp/eval ratios.
    """
    ad_cases = inst.ad_cases
    blocks = [gate.line_cores(c, 0.0) for c in ad_cases]

    def timed_evals():
        out = []
        for c, block in zip(ad_cases, blocks):
            t0 = time.perf_counter()
            c.objective.evaluate(block)
            out.append(time.perf_counter() - t0)
        return out

    ratios = {"grad": [[] for _ in ad_cases], "hvp": [[] for _ in ad_cases]}
    plain, budget = [], seconds / 3.0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < budget:
        total = 0.0
        for kind in instances.KINDS:
            if kind in ratios:
                evals, calls = timed_evals(), []
                total += run_checked(inst, kind, refs, tally, probe, calls)[0]
                for i, (tc, te) in enumerate(zip(calls, evals)):
                    ratios[kind][i].append(tc / te)
            else:
                total += run_checked(inst, kind, refs, tally, probe)[0]
        plain.append(total)

    tracer = Tracer()
    tracer.install([c.objective for c in inst.cases] + [inst.matrix.objective,
                                                        inst.solve.objective])
    with_trace = []
    tracer.active = True
    start = time.perf_counter()
    while not with_trace or time.perf_counter() - start < budget:
        total = sum(run_checked(inst, kind, refs, tally, probe)[0]
                    for kind in instances.KINDS)
        with_trace.append(total)
        tracer.round += 1
    tracer.active = False

    stats = tracer.function_stats()
    for name in EXPECTED[inst.workload]:
        tally.record(stats[name]["calls"] > 0,
                     f"traced run: {name} recorded no calls (stale binding?)")
    tally.record(tracer.eval_calls > 0, "traced run: no untaped objective evaluation")

    overhead = statistics.median(with_trace) - statistics.median(plain)
    ratio_values = {}
    for c, g, h in zip(ad_cases, ratios["grad"], ratios["hvp"]):
        ratio_values[c.label] = (statistics.median(g), statistics.median(h))
    extra = {
        "overhead_ms": 1e3 * overhead,
        "overhead_frac": overhead / statistics.median(plain),
        "ratios": ratio_values,
    }
    detail = {
        "rounds_untraced": len(plain),
        "rounds_traced": len(with_trace),
        "round_ms_untraced": 1e3 * statistics.median(plain),
        "round_ms_traced": 1e3 * statistics.median(with_trace),
        "spans": len(tracer.spans),
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write_spans(span_file, environment(args, inst))
    detail["span_file"] = str(span_file.relative_to(ROOT))
    return tracer, stats, extra, detail


def per_layer(names, tracer, stats, extra, rounds):
    """Values of the per-layer metrics, each normalised per traced round."""
    values = {}
    for name in names:
        parts = name.split(".")
        if parts[0] == "ratio":
            op = 0 if parts[1] == "grad_over_eval" else 1
            pair = extra["ratios"].get(parts[2])
            values[name] = pair[op] if pair else 0.0
        elif parts[0] == "trace":
            values[name] = extra[parts[1]]
        elif parts[:2] == ["ad", "tape"]:
            key = "bytes" if parts[2] == "mb" else parts[2]
            scale = 1.0 / 2**20 if parts[2] == "mb" else 1.0
            values[name] = tracer.tape[key] * scale / rounds
        elif name == "objectives.eval_ms":
            values[name] = 1e3 * tracer.eval_s / rounds
        elif name == "objectives.eval_calls":
            values[name] = tracer.eval_calls / rounds
        elif name == "ad.contract.gflop":
            values[name] = tracer.gflop / rounds
        else:
            s = stats[f"{parts[0]}.{parts[1]}"]
            stat = {"calls": s["calls"], "total_ms": 1e3 * s["total_s"],
                    "self_ms": 1e3 * s["self_s"], "out_mb": s["out_bytes"] / 2**20}
            values[name] = stat[parts[2]] / rounds
    return values


def run(args):
    """Run one workload; return (result object, detail lines)."""
    spec = load_spec(ROOT)
    tally = gate.Tally()
    probe = SpeedProbe()
    setup_s, inst, refs = setup(args, probe)
    # Read after the set-up, which runs every operation in a fixed order:
    # the timed loop's order depends on timings, and with it the moments
    # the cyclic garbage collector frees dead tapes, which would move the
    # high-water mark from run to run.
    rss_mb = peak_rss_mb()
    gate.check_references(inst, refs, tally)
    lines = [("env", environment(args, inst))]
    if args.trace:
        tracer, stats, extra, detail = traced(inst, refs, args.seconds, tally, args, probe)
        metrics = spec["per_layer"]
        values = per_layer([m["name"] for m in metrics], tracer, stats, extra,
                           detail["rounds_traced"])
    else:
        seconds_of, ratios = measure(inst, refs, args.seconds, tally, probe)
        metrics = spec["end_to_end"]
        values, detail = end_to_end(seconds_of, ratios, setup_s, rss_mb, tally)
    lines.append(("detail", detail))
    for msg in tally.messages:
        lines.append(("FAILED", msg))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metrics},
    }
    return result, lines


