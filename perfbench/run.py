#!/usr/bin/env python3
"""Build and run the simulator host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ib-npf --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py spread --workload kv-tcp

The first form builds perfbench (a Go module of its own that imports the
simulator through a replace directive) and runs it; the result is the last
line of standard output. The second runs the benchmark once for each of the
seeds 1 to 10, for BENCHMARK.json's run_seconds, and prints each end-to-end
metric's median and quartiles across the runs, flagging any whose quartile
spread exceeds its bound in BENCHMARK.json.

Everything the build and the runs write stays under the build directory
($CARGO_TARGET_DIR, default .bench_build, inside the checkout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The spread report's seeds: ten, none of them the recorded seeds 0 and 1009.
SPREAD_SEEDS = range(1, 11)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def go_env():
    b = build_dir()
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(b, "gocache"),
        "GOMODCACHE": os.path.join(b, "gomod"),
        "GOTMPDIR": os.path.join(b, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory; point that inside the build directory too.
        "XDG_CONFIG_HOME": os.path.join(b, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def build():
    binary = os.path.join(build_dir(), "perfbench", "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                       stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run(args):
    binary = build()
    out = os.path.join(build_dir(), "perfbench")
    r = subprocess.run([binary, "--out", out] + args, cwd=ROOT)
    sys.exit(r.returncode)


def spread(args):
    p = argparse.ArgumentParser(prog="run.py spread")
    p.add_argument("--workload", required=True)
    a = p.parse_args(args)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = build()
    values = {}
    for seed in SPREAD_SEEDS:
        r = subprocess.run([binary, "--out", os.path.join(build_dir(), "perfbench"),
                            "--workload", a.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} failed: {r.stderr.strip()}")
        res = json.loads(lines[-1])
        flag = "" if res["correct"] and res["failed"] == 0 else "  CHECK FAILED"
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())) + flag,
            flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"\n{a.workload}: {len(SPREAD_SEEDS)} runs of {seconds}s")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    wide = False
    for k in sorted(values):
        q1, med, q3 = statistics.quantiles(values[k], n=4)
        s = (q3 - q1) / med if med else float("inf")
        b = bounds.get(k)
        mark = ""
        if b is not None and s > b:
            mark, wide = "  WIDER THAN BOUND", True
        elif b is not None and s > b / 3:
            mark = "  above bound/3"
        print(f"{k:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {b if b is not None else '-':>6}{mark}")
    sys.exit(1 if wide else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        spread(sys.argv[2:])
    run(sys.argv[1:])


if __name__ == "__main__":
    main()
