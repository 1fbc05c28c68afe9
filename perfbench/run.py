#!/usr/bin/env python3
"""Build and run the transactional benchmark (see README.md).

    python3 perfbench/run.py --workload smallbank-xenic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --micro

Run from the root of a checkout. The Go program is built from source into
.bench_build/ with its own build cache there; results and manifests go to
.bench_out/. The last line of standard output is the run's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    """Keeps every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    # One process, one cell at a time: never more Go procs than CPUs.
    env["GOMAXPROCS"] = str(len(os.sched_getaffinity(0)))
    return env


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def prepare():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: run from the root of a full checkout" % ROOT)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)


def build(env):
    try:
        p = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."],
                           cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if p.returncode != 0:
        fail("build failed")


def micro(env):
    """Layer microbenchmarks: this directory's own, then the existing
    sim/simnet/pcie hot-path cases in the main module."""
    runs = [
        (HERE, ["."]),
        (ROOT, ["./internal/sim", "./internal/simnet", "./internal/pcie"]),
    ]
    code = 0
    for cwd, pkgs in runs:
        cmd = ["go", "test", "-run", "^$", "-bench", ".", "-benchmem",
               "-benchtime", "200ms", "-count", "1"] + pkgs
        code |= subprocess.run(cmd, cwd=cwd, env=env).returncode
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--micro", action="store_true", help="run the layer microbenchmarks")
    args = ap.parse_args()
    env = go_env()
    prepare()
    if args.micro:
        sys.exit(micro(env))
    if not args.workload:
        ap.error("--workload is required")
    build(env)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    timeout = None if args.workload == "all" else RUN_TIMEOUT_S
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("run exceeded %ds" % timeout)
    sys.stdout.write(p.stdout)
    if p.returncode != 0:
        fail("run failed with exit code %d" % p.returncode)
    sys.exit(0)


if __name__ == "__main__":
    main()
