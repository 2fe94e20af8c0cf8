"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
1. every workload runs end to end, untraced and traced, with every
   operation passing its correctness check and every metric of
   BENCHMARK.json printed;
2. traced results are bit-identical to untraced ones for the same seed;
3. an injected wrong gradient, and a timed result that differs from its
   reference, are counted as failures.
Exits with code 0 when all checks hold.
"""

import json
import subprocess
import sys

import run

SEED = 3


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    return ok


def end_to_end_runs(spec):
    ok = True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
                   workload, "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            ok &= check(proc.returncode == 0 and result.get("correct") is True
                        and result.get("failed") == 0
                        and list(result.get("metrics", {})) == wanted,
                        f"{workload} --trace {trace}: runs, passes its checks, prints "
                        f"{len(wanted)} metrics")
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
    return ok


def traced_bit_identical():
    import gate
    import instances
    from tracing import Tracer

    ok = True
    for workload in run.WORKLOADS:
        inst = instances.build(workload, SEED, tiny=True)
        plain = {k: instances.run_kind(inst, k) for k in instances.KINDS}
        tracer = Tracer()
        tracer.install([c.objective for c in inst.cases]
                       + [inst.matrix.objective, inst.solve.objective])
        tracer.active = True
        try:
            traced = {k: instances.run_kind(inst, k) for k in instances.KINDS}
        finally:
            tracer.active = False
        same = all(gate.same(a, b) for k in instances.KINDS
                   for a, b in zip(plain[k], traced[k]))
        ok &= check(same and len(tracer.spans) > 0,
                    f"{workload}: traced results are bit-identical to untraced ones "
                    f"({len(tracer.spans)} spans)")
    return ok


def injected_faults():
    import gate
    import instances
    import ttriem as tr

    original = tr.riemannian_grad_tt

    def wrong_gradient(p, x):
        return tr.tangent_scale(1.001, original(p, x))

    inst = instances.build("operator_r5", SEED, tiny=True)
    tr.riemannian_grad_tt = wrong_gradient
    try:
        refs = instances.cold_calls(inst)
    finally:
        tr.riemannian_grad_tt = original
    tally = gate.Tally()
    gate.check_references(inst, refs, tally)
    ok = check(tally.failed > 0, f"a gradient off by 0.1% fails the gate "
                                 f"({tally.failed} of {tally.attempted} checks fail)")

    refs = instances.cold_calls(inst)
    tally = gate.Tally()
    gate.check_references(inst, refs, tally)
    ok &= check(tally.failed == 0, "the unmodified gradient passes the gate")
    drifted = [tr.tangent_scale(1.0 + 1e-12, g) for g in instances.run_kind(inst, "grad")]
    gate.check_round("grad", drifted, refs["grad"], tally)
    ok &= check(tally.failed > 0, "a timed result that differs from its reference fails")
    return ok


def main():
    run.pin_blas_threads()
    run.import_library(run.ROOT)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = end_to_end_runs(spec)
    ok &= traced_bit_identical()
    ok &= injected_faults()
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
