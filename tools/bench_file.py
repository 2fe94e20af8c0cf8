"""Record interleaved benchmark runs per workload and checkout as a ``BENCH_<n>.json``.

    python3 tools/bench_file.py --out BENCH_2.json --seed 0 --seconds 30 PARENT CHANGE

Each checkout is a ``git clone`` of this repository at the commit to
measure.  Give the checkouts paths of equal length: the benchmark's
timings move with the length of the path and of the environment.  Each run
gets the environment variable ``BENCH_FILE_PAD`` of a random length from 0
to ``MAX_PAD`` bytes, drawn from the seed, so the environment's size is
spread alike over both sides instead of fixed for the whole file.  For each
workload of ``BENCHMARK.json``, in its order, the checkouts take turns
(A B A B ...) until each has run
``python3 perfbench/run.py --workload W --seed S --seconds T`` (untraced)
``REPEATS`` times from its root, so the sides of a workload are measured
back to back and share the machine's drifts.  The file keeps, per workload
and checkout, every run (the commit, the run's ``env`` line, its padding
length ``env_pad``, its last JSON line and its ``detail`` line, whose
``wall_median_ms`` and sample counts let a probe-relative gain be checked
against wall-clock time, and for the workloads that time
the AD and the fused pipelines on the same objectives, operator_r5 and
completion, the ratios grad_ms/opt_grad_ms and hvp_ms/opt_hvp_ms), and a
summary: each metric's and ratio's median over the runs, with its min and
max.  A run that fails its checks is recorded with its exit code, and the
script exits 1.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

REPEATS = 4
RATIO_WORKLOADS = ("operator_r5", "completion")
RATIOS = (("grad_ms", "opt_grad_ms"), ("hvp_ms", "opt_hvp_ms"))
MAX_PAD = 4096


def run_once(checkout, workload, seed, seconds, pad):
    """The record of one untraced run of ``workload`` in ``checkout``, with
    ``pad`` bytes of ``BENCH_FILE_PAD`` in its environment."""
    commit = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], check=True,
                            capture_output=True, text=True).stdout.strip()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, BENCH_FILE_PAD="x" * pad))
    lines = proc.stdout.splitlines()
    tagged = {tag: json.loads(payload) for tag, _, payload in
              (line.partition(" ") for line in lines) if tag in ("env", "detail")}
    result = json.loads(lines[-1])
    record = {"commit": commit, "exit_code": proc.returncode, "env": tagged["env"],
              "env_pad": pad, "result": result, "detail": tagged["detail"]}
    if workload in RATIO_WORKLOADS:
        metrics = result["metrics"]
        record["ratios"] = {f"{ad}/{fused}": metrics[ad]["value"] / metrics[fused]["value"]
                            for ad, fused in RATIOS}
    return record


def spread(values):
    """Median, min and max of ``values``."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def summary(records):
    """Per metric (and ratio) of one checkout's runs, its spread over them."""
    metrics = records[0]["result"]["metrics"]
    out = {"commit": records[0]["commit"],
           "metrics": {name: dict(spread([r["result"]["metrics"][name]["value"] for r in records]),
                                  unit=metrics[name]["unit"]) for name in metrics}}
    if "ratios" in records[0]:
        out["ratios"] = {name: spread([r["ratios"][name] for r in records])
                         for name in records[0]["ratios"]}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("checkouts", nargs="+", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((args.checkouts[0] / "BENCHMARK.json").read_text())
    pads = random.Random(args.seed)
    runs = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs[w] = [[] for _ in args.checkouts]
        for _ in range(REPEATS):
            for records, checkout in zip(runs[w], args.checkouts):
                records.append(run_once(checkout, w, args.seed, args.seconds,
                                        pads.randint(0, MAX_PAD)))
    args.out.write_text(json.dumps({
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": REPEATS,
        "summary": {w: [summary(records) for records in per] for w, per in runs.items()},
        "runs": runs,
    }, indent=1) + "\n")
    return int(any(r["exit_code"] for per in runs.values() for rs in per for r in rs))


if __name__ == "__main__":
    sys.exit(main())
