#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold-nav --seed 1 --seconds 6 --trace 0

Builds perfbench/ (a Go module of its own that uses the program's
packages from the enclosing checkout) into .bench_build/, then runs it
with the same arguments from the current directory, which must be the
root of a checkout. The last line of standard output is the result.

Steadiness mode runs one workload N times, with seeds base..base+N-1,
and prints each metric's median and inter-quartile spread (as a share
of the median) and the failure share of every run:

    python3 perfbench/run.py --workload hot-k2 --seconds 6 --steady 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def go_env(build_dir):
    """Keeps the Go toolchain's caches, configuration and temporary files,
    and git's search for a repository (the provenance line asks git for the
    commit), inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        path = os.path.join(build_dir, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off",
               CGO_ENABLED="0", GIT_CONFIG_NOSYSTEM="1",
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.dirname(build_dir)))
    return env


def build(build_dir, env):
    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def steady(binary, env, args):
    """Runs one workload args.steady times and prints medians and spreads."""
    values, shares = {}, []
    for i in range(args.steady):
        seed = args.seed + i
        proc = subprocess.run([binary, "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env=env, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("perfbench: run with seed %d failed" % seed)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d: correct=%s failed=%d/%d" % (seed, res["correct"], res["failed"], res["attempted"]),
              file=sys.stderr, flush=True)
    print("%-32s %14s %14s %14s %9s" % ("metric", "median", "q1", "q3", "spread"))
    for name in sorted(values):
        unit, vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-32s %14.6g %14.6g %14.6g %8.2f%%  %s" % (name, med, q1, q3, 100 * spread, unit))
        print("    " + " ".join("%.4g" % v for v in vals))
    print("failure shares: %s" % sorted(set("%d/%d" % s for s in shares)))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=6)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--steady", type=int, default=0, help="steadiness mode: number of runs")
    args = p.parse_args()
    build_dir = os.path.abspath(".bench_build")
    env = go_env(build_dir)
    binary = build(build_dir, env)
    if args.steady > 0:
        steady(binary, env, args)
        return
    proc = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)], env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
