#!/usr/bin/env python3
"""The repository benchmark: two ScenarioSpec workloads, one command.

    python3 perfbench/run.py --workload nersc-lru --seed 1 --seconds 45 \
        --trace 0

Builds perfbench/bench.cpp (and the simulator library it links) in Release
under .bench_build/, generates the workload's scenario string from --seed,
and runs the measuring program on it.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Results, metadata and
spans also land in .bench_out/.  The exit code is non-zero when the build
fails or any run fails the correctness gate.

Every result is checked against a digest of its physical fields: the
digests for the default seed are pinned in perfbench/digests.json; for any
other seed a shards=1 reference run of the same scenario provides it, so
every sharded run is also checked for shard identity.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

# Scenario templates.  {seed} is the scenario's run seed: it drives the
# random placement and the synthetic arrival streams.  The default seed
# gives the exact configurations the digests were pinned for.
WORKLOADS = {
    # Paper §5.1: NERSC trace replay, Pack_Disks, 16 GB LRU, one calendar.
    # The log is the fixed synthetic §5.1 trace at every seed: replay with
    # FCFS and break-even draws no random numbers, and other synthesis
    # seeds swing p99 from 300 s to past the 2000 s histogram ceiling.
    "nersc-lru": (
        "catalog=nersc(200000,2000000,20090531) placement=pack load=0.8 "
        "cache=lru:16g policy=break-even workload=replay seed={seed}"),
    # 30 diurnal cycles (1.66M requests) through the router: cache,
    # redirection and write off-loading on the critical path.
    "diurnal-orch": (
        "catalog=table1(120000,1) placement=pack load=0.7 policy=ewma "
        "cache=lru:16g workload=nhpp(0:6;9000:0.16,540000,18000) "
        "replicas=2 orch=redirect+offload:4 seed={seed} shards=3"),
}


def scenario(workload, seed):
    return WORKLOADS[workload].format(seed=seed)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the measuring program; returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", "-DSPINDOWN_SANITIZE=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def pinned_digest(workload):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)["digests"][workload]


def reference_digest(spec, commit):
    """Digest of the scenario run at shards=1, or None if it fails."""
    r = subprocess.run([BINARY, "--scenario", spec, "--reference",
                        "--commit", commit],
                       stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])["digest"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1
    commit = git_commit()
    spec = scenario(args.workload, args.seed)
    if args.seed == DEFAULT_SEED:
        digest = pinned_digest(args.workload)
    else:
        digest = reference_digest(spec, commit)
        if digest is None:
            log("shards=1 reference run failed")
            return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [BINARY, "--scenario", spec, "--expect-digest", digest,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--out", out]
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
