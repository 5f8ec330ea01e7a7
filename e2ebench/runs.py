#!/usr/bin/env python3
"""Repeat the benchmark and summarise each metric.

Runs the command in BENCHMARK.json of every CHECKOUT (default: this
checkout) RUNS times per workload and prints, per metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median.

With two checkouts the runs alternate, pair by pair, and which side runs
first alternates too: the protocol for comparing two commits. Pass --seed
to repeat one seed; by default run k uses seed SEED0 + k. Each checkout
builds into its own .bench_build directory.

    python3 e2ebench/runs.py --runs 10
    python3 e2ebench/runs.py --runs 10 --seed 1985 --checkouts ../parent .
    python3 e2ebench/runs.py --runs 5 --seed 1985 --out e2ebench/baseline/e2e.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds, trace):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    # Each checkout builds into its own .bench_build, as the benchmark is
    # built when it is run from a fresh checkout.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev(checkout):
    proc = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, help="repeat this seed in every run")
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--checkouts", nargs="+", default=[here])
    p.add_argument("--out", help="also write the summary as JSON here")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    labels = [f"{i}:{git_rev(c)}" for i, c in enumerate(args.checkouts)]
    result = {"checkouts": labels, "cpu": cpu_model(), "nproc": os.cpu_count(),
              "seconds": args.seconds, "trace": args.trace,
              "seed": args.seed if args.seed is not None else f"{args.seed0}+k",
              "workloads": {}}
    for workload in args.workloads.split(","):
        samples = [{} for _ in args.checkouts]
        for k in range(args.runs):
            seed = args.seed if args.seed is not None else args.seed0 + k
            order = list(enumerate(args.checkouts))
            for i, checkout in (order if k % 2 == 0 else order[::-1]):
                out = run_once(checkout, workload, seed, args.seconds, args.trace)
                if not out["correct"]:
                    raise SystemExit(f"{labels[i]}: {workload} seed {seed} failed its checks")
                for name, m in out["metrics"].items():
                    samples[i].setdefault(name, []).append(m["value"])
        result["workloads"][workload] = {}
        for label, per_checkout in zip(labels, samples):
            per_metric = {name: summary(v) for name, v in per_checkout.items()}
            result["workloads"][workload][label] = per_metric
            for name, s in per_metric.items():
                bound = e2e.get(name, {}).get("bound")
                flag = ""
                if bound is not None and s["spread"] > bound / 3:
                    flag = f"  spread above a third of bound {bound}"
                print(f"{workload:14} {label:16} {name:32} median {s['median']:<14.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.4f}{flag}")
        if len(samples) == 2:
            # The first checkout is the parent, the second the change.
            for name, m in e2e.items():
                old, new = samples[0][name], samples[1][name]
                sign = 1 if m["better"] == "higher" else -1
                wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
                change = statistics.median(new) / statistics.median(old) - 1
                print(f"{workload:14} {name:32} change wins {wins}/{len(old)} pairs, "
                      f"median {change:+.2%}, parent spread "
                      f"{result['workloads'][workload][labels[0]][name]['spread']:.2%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
