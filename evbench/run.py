#!/usr/bin/env python3
"""EvenDB benchmark: build the driver from source and run one workload.

    python3 evbench/run.py --workload ingest|serve|analytics --seed N \
        --seconds S --trace 0|1

Run from the repository root. The untraced run (--trace 0) is one
driver process: one client on its main domain, in-memory Env, Async
persistence, repeated set-ups and one measured phase; it reports the
end-to-end metrics. The traced run (--trace 1) runs the same workload
untraced and then traced, plus an ingest replay at Config.default, and
reports the per-layer metrics. Every line but the last is for people;
the last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero if the build fails, the driver crashes, or
any operation failed or returned a wrong result. See evbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

DRIVER = os.path.join("_build", "default", "evbench", "driver.exe")
BUILD_TIMEOUT_S = 840
DRIVER_TIMEOUT_S = 120
WORKLOADS = ("ingest", "serve", "analytics")

# The gated metrics. op_p50_us is printed but not gated: over ten runs on
# the reference machine it spread up to 25%, the largest bound allowed
# (see README.md).
END_TO_END = [
    "throughput_ops_s", "op_p99_us", "write_amp", "space_amp", "setup_s", "peak_heap_mib",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("run.py: no EvenDB sources here (run from the repository root)")
        sys.exit(2)
    dune = shutil.which("dune")
    if dune is None:
        log("run.py: dune not found on PATH")
        sys.exit(2)
    try:
        # No shared dune cache: the build reads and writes only here.
        env = dict(os.environ, DUNE_CACHE="disabled")
        res = subprocess.run(
            [dune, "build", "--root", ".", "./evbench/driver.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("run.py: build timed out")
        sys.exit(2)
    if res.returncode != 0:
        log("run.py: build failed")
        sys.exit(2)


def driver(args):
    """Run one driver process; return its JSON result and exit code."""
    try:
        res = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out: %s" % " ".join(args))
        sys.exit(3)
    lines = res.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), res.returncode
    except (IndexError, ValueError):
        log("run.py: driver crashed (exit %d): %s" % (res.returncode, " ".join(args)))
        sys.exit(3)


def values(d):
    return {k: v["value"] for k, v in d["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    run = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    results = [driver(run)]
    if a.trace == 0:
        shown = results[0][0]["metrics"]
        metrics = {m: shown[m] for m in END_TO_END}
    else:
        plain = values(results[0][0])
        results.append(driver(run + ["--trace"]))
        results.append(driver(["--replay-default", "--seed", str(a.seed)]))
        traced, replay = results[1][0], results[2][0]
        shown = metrics = dict(traced["layers"])
        metrics.update(replay["layers"])
        overhead = 100.0 * (1.0 - values(traced)["throughput_ops_s"] / plain["throughput_ops_s"])
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}

    attempted = sum(d.get("attempted", 0) for d, _ in results)
    failed = sum(d.get("failed", 0) for d, _ in results)
    correct = failed == 0 and all(code == 0 for _, code in results)
    print("# workload=%s seed=%d seconds=%d trace=%d" % (a.workload, a.seed, a.seconds, a.trace))
    for m, v in shown.items():
        print("%-44s %16.6g %s" % (m, v["value"], v["unit"]))
    print("%-44s %16.6g %s" % ("failed_ops_frac", failed / max(1, attempted), "ratio"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
