#!/usr/bin/env python3
"""Quick self-test of the benchmark (seconds once the program is built).

    python3 perfbench/selftest.py

Runs the measuring program on scaled-down versions of the two workloads
(same features: trace replay with a cache on one calendar, the routed
sharded pipeline with orchestration) and checks that
  * BENCHMARK.json, run.py and digests.json name the same workloads;
  * every end-to-end metric in BENCHMARK.json is emitted by a timed run, and
    every per-layer metric by a traced run, each with its declared unit;
  * the correctness gate fires on a corrupted digest: the run reports
    correct=false with every attempt failed, and exits non-zero.
Exits 0 when all checks pass.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SMALL = {
    "nersc-lru": (
        "catalog=nersc(5000,20000,20090531) placement=pack load=0.8 "
        "cache=lru:1g policy=break-even workload=replay"),
    "diurnal-orch": (
        "catalog=table1(5000,1) placement=pack load=0.5 policy=ewma "
        "cache=lru:1g workload=nhpp(0:1;1800:0.05,36000,3600) replicas=2 "
        "orch=redirect+offload:2 shards=3"),
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def measure(spec, *args):
    r = subprocess.run([run.BINARY, "--scenario", spec, "--seconds", "0",
                        *args], capture_output=True, text=True, timeout=300)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


def check_metrics(name, mode, result, declared):
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    check(set(emitted) == set(declared),
          f"{name} {mode}: emits exactly the declared metrics")
    for metric, unit in declared.items():
        check(emitted.get(metric) == unit and
              isinstance(result["metrics"].get(metric, {}).get("value"),
                         (int, float)),
              f"{name} {mode}: {metric} has a value in {unit}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS) == sorted(SMALL) ==
          sorted(json.load(open(os.path.join(HERE, "digests.json")))
                 ["digests"]),
          "BENCHMARK.json, run.py and digests.json name the same workloads")
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if not run.build():
        check(False, "the measuring program builds")
        return 1

    for name, spec in SMALL.items():
        r = subprocess.run([run.BINARY, "--scenario", spec, "--reference"],
                           capture_output=True, text=True, timeout=300)
        check(r.returncode == 0, f"{name}: reference run passes the gate")
        digest = json.loads(r.stdout.strip().splitlines()[-1])["digest"]
        for mode, declared in (("0", end_to_end), ("1", per_layer)):
            code, result = measure(spec, "--trace", mode,
                                   "--expect-digest", digest)
            check(code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace={mode}: every run passes the gate")
            check_metrics(name, f"trace={mode}", result, declared)
        code, result = measure(spec, "--expect-digest", "0" * 16)
        check(code != 0 and not result["correct"] and
              result["failed"] == result["attempted"] >= 1,
              f"{name}: a corrupted digest fails every run and the exit code")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
