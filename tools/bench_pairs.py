#!/usr/bin/env python3
"""Paired parent/change runs of the repository benchmark, one JSON record.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload diurnal-orch --seed 1 --pairs 10 --seconds 15 \\
        --out BENCH_x.json [--merge] [--trace 1] [--what "..."]
    python3 tools/bench_pairs.py --self-test

Each of --parent and --change is a checkout with its own perfbench/.  For
every workload and seed the tool runs `python3 perfbench/run.py` N times
in each checkout, alternating which side goes first (even pairs run the
parent first, odd pairs the change), so slow drift of a shared host lands
on both sides alike.  Runs never overlap.

The record has the shape of the committed BENCH_*.json files: for each
workload/seed section and each metric, both sides' runs, median, q1 and
q3 (linear interpolation), how many pairs the change won, and whether the
claim rule holds: the change wins at least 9 of every 10 pairs, and its
median is better than the parent's by more than the parent's q3 - q1.
Whether a metric is better higher or lower comes from BENCHMARK.json.
With --merge, sections are added to an existing record made from the same
two commits.  Each section records the --seconds and --trace it ran with.

Every run must print "correct": true; any other outcome stops the tool.
The benchmark's own files are only run, never read or changed.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600
# Deterministic outputs: equal on every run of one side, and across sides
# when the change keeps results bit-identical.
DETERMINISTIC = ("energy_ratio", "resp_mean_s", "resp_p99_s")


def better_directions(benchmark_json):
    """Metric name -> "higher" | "lower", from a BENCHMARK.json file."""
    with open(benchmark_json) as f:
        spec = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def parse_output(stdout):
    """(meta, result) from run.py's stdout: its last two JSON lines."""
    meta, result = None, None
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "meta" in obj:
            meta = obj["meta"]
        elif "metrics" in obj:
            result = obj
    if result is None:
        raise RuntimeError("no result line in the benchmark's output")
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        raise RuntimeError("benchmark run was not correct: %s"
                           % json.dumps(result)[:300])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return meta or {}, values


def quantile(xs, q):
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tidy(x):
    return float("%.10g" % x)


def side_summary(runs):
    return {"median": tidy(statistics.median(runs)),
            "q1": tidy(quantile(runs, 0.25)),
            "q3": tidy(quantile(runs, 0.75)),
            "runs": [tidy(r) for r in runs]}


def compare(parent_runs, change_runs, better):
    """One metric's row: both sides, wins, relative median change, rule."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one parent and one change run per pair")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent_runs, change_runs)
               if sign * (c - p) > 0)
    pm = statistics.median(parent_runs)
    cm = statistics.median(change_runs)
    iqr = quantile(parent_runs, 0.75) - quantile(parent_runs, 0.25)
    pairs = len(parent_runs)
    return {"parent": side_summary(parent_runs),
            "change": side_summary(change_runs),
            "change_vs_parent_median":
                round((cm - pm) / pm, 4) if pm != 0 else None,
            "change_wins": wins,
            "pairs": pairs,
            "better": better,
            "rule_holds": 10 * wins >= 9 * pairs and sign * (cm - pm) > iqr}


def run_pairs(run, pairs):
    """Alternate the sides: run(side, index) -> metric dict per run."""
    results = {"parent": [], "change": []}
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            order.append(side)
            results[side].append(run(side, i))
    return results, order


def section(results, directions):
    """Per metric rows, plus the bit-identity verdict of the section."""
    parent, change = results["parent"], results["change"]
    rows = {}
    for name in parent[0]:
        if name in DETERMINISTIC:
            continue
        rows[name] = compare([r[name] for r in parent],
                             [r[name] for r in change],
                             directions.get(name, "lower"))
    same = {}
    for name in DETERMINISTIC:
        values = {r[name] for r in parent + change if name in r}
        if values:
            same[name] = values.pop() if len(values) == 1 else None
    return rows, same


def section_key(workload, seed, trace):
    base = workload.replace("-", "_")
    return "%s%s_seed%d" % (base, "_traced" if trace else "", seed)


def machine():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def run_checkout(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        raise RuntimeError("%s exited %d in %s"
                           % (" ".join(cmd), r.returncode, checkout))
    return parse_output(r.stdout)


def measure(args):
    directions = better_directions(os.path.join(ROOT, "BENCHMARK.json"))
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    record = {}
    if args.merge and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    metas = {}
    sections = {}
    for workload in args.workload:
        for seed in args.seed:
            def run(side, i, workload=workload, seed=seed):
                meta, values = run_checkout(checkouts[side], workload, seed,
                                            args.seconds, args.trace)
                metas[side] = meta
                print("bench_pairs: %s seed %d pair %d %s: %s" % (
                    workload, seed, i, side, json.dumps(values)),
                    file=sys.stderr, flush=True)
                return values
            results, _ = run_pairs(run, args.pairs)
            rows, same = section(results, directions)
            rows["bit_identical"] = same
            rows["settings"] = {"seconds": args.seconds, "trace": args.trace}
            sections[section_key(workload, seed, args.trace)] = rows
    out = build_record(record, sections, metas, args.what)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


def build_record(record, sections, metas, what):
    """`record` (an earlier record, or {}) with `sections` added or replaced
    under a fresh header.  Each section keeps the run settings it was
    measured with, so a merge of runs of different lengths labels each."""
    commits = {side: metas[side].get("commit", "unknown") for side in metas}
    for side in ("parent", "change"):
        key = side + "_commit"
        if record.get(key, commits[side]) != commits[side]:
            raise RuntimeError("--merge: %s is %s in the record, %s now"
                               % (key, record[key], commits[side]))
    header = {
        "bench": "perfbench pairs",
        "what": what or record.get("what", ""),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   "--seconds <settings.seconds> --trace <settings.trace>",
        "machine": machine() + "; both sides measured on one machine in "
                   "one session",
        "nproc": os.cpu_count(),
        "hardware_concurrency":
            metas["change"].get("hardware_concurrency"),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "pairing": "alternating: even pairs run the parent first, odd "
                   "pairs the change",
        "rule": "rule_holds: the change wins >= 9 of 10 pairs and its "
                "median beats the parent's by more than the parent's "
                "q3 - q1",
    }
    merged = {k: v for k, v in record.items() if k not in header}
    merged.update(sections)
    out = dict(header)
    out.update(sorted(merged.items()))
    return out


# ---------------------------------------------------------------------------
# Self-test on canned result lines.
# ---------------------------------------------------------------------------

def canned(req, setup, correct=True):
    meta = {"meta": {"commit": "c0ffee", "hardware_concurrency": 4}}
    result = {"correct": correct, "attempted": 3, "failed": 0,
              "metrics": {"req_per_s": {"value": req, "unit": "1/s"},
                          "setup_s": {"value": setup, "unit": "s"},
                          "energy_ratio": {"value": 0.5, "unit": "ratio"}}}
    return "perfbench: noise\n%s\n%s\n" % (json.dumps(meta),
                                            json.dumps(result))


def self_test():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # Quartiles by linear interpolation (the committed records' method).
    runs = [0.510618, 0.496526, 0.417749, 0.485542, 0.503304, 0.460316,
            0.386946, 0.438748, 0.525666, 0.54049]
    s = side_summary(runs)
    check(abs(s["median"] - 0.491034) < 1e-9, "median")
    check(abs(s["q1"] - 0.44414) < 1e-6, "q1")
    check(abs(s["q3"] - 0.508789) < 1e-6, "q3")
    check(side_summary([2.0]) ==
          {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}, "one run")

    # Output parsing: meta and result lines among stderr-like noise.
    meta, values = parse_output(canned(5e6, 0.3))
    check(meta.get("commit") == "c0ffee", "meta line")
    check(values == {"req_per_s": 5e6, "setup_s": 0.3, "energy_ratio": 0.5},
          "metric values")
    for bad in (canned(5e6, 0.3, correct=False), "no json here\n"):
        try:
            parse_output(bad)
            failures.append("bad output accepted")
        except RuntimeError:
            pass

    # Alternation: even pairs parent first, odd pairs change first.
    parent_req = [5.18e6, 5.64e6, 5.42e6, 5.3e6, 5.5e6,
                  5.2e6, 5.6e6, 5.4e6, 5.45e6, 5.35e6]
    change_req = [6.3e6, 6.5e6, 6.4e6, 6.45e6, 6.2e6,
                  6.6e6, 6.35e6, 5.1e6, 6.42e6, 6.44e6]
    lines = {"parent": [canned(r, 0.30) for r in parent_req],
             "change": [canned(r, 0.30 + 0.01 * (i % 2))
                        for i, r in enumerate(change_req)]}
    results, order = run_pairs(
        lambda side, i: parse_output(lines[side][i])[1], 10)
    check(order[:4] == ["parent", "change", "change", "parent"],
          "alternation order")
    rows, same = section(results, {"req_per_s": "higher",
                                   "setup_s": "lower"})
    req = rows["req_per_s"]
    check(req["change_wins"] == 9 and req["pairs"] == 10, "wins counted")
    check(req["rule_holds"] is True, "claim rule holds at 9/10")
    check(req["change_vs_parent_median"] > 0.15, "relative median")
    setup = rows["setup_s"]
    check(setup["change_wins"] == 0, "ties are not wins")
    check(setup["rule_holds"] is False, "rule fails without wins")
    check("energy_ratio" not in rows and same == {"energy_ratio": 0.5},
          "deterministic metrics are checked for identity")

    # 8/10 wins, or a gap inside the parent's spread, fails the rule.
    row = compare([1.0] * 10, [2.0] * 8 + [0.5] * 2, "higher")
    check(row["rule_holds"] is False, "8/10 wins")
    row = compare([1.0, 3.0] * 5, [1.5, 3.5] * 5, "higher")
    check(row["change_wins"] == 10 and row["rule_holds"] is False,
          "gap within the parent's q3 - q1")
    row = compare([1.0, 3.0] * 5, [0.5, 2.5] * 5, "lower")
    check(row["change_wins"] == 10 and row["rule_holds"] is False,
          "lower-is-better gap within q3 - q1")

    check(section_key("nersc-lru", 1, 1) == "nersc_lru_traced_seed1",
          "section key")

    # A merge keeps each section's own run settings.
    metas = {"parent": {"commit": "p"}, "change": {"commit": "c"}}
    first = build_record({}, {"a_seed1": {"settings": {"seconds": 10.0,
                                                       "trace": 0}}},
                         metas, "first")
    merged = build_record(first, {"a_traced_seed1": {
        "settings": {"seconds": 5.0, "trace": 1}}}, metas, "")
    settings = {k: merged.get(k, {}).get("settings")
                for k in ("a_seed1", "a_traced_seed1")}
    check(settings == {"a_seed1": {"seconds": 10.0, "trace": 0},
                       "a_traced_seed1": {"seconds": 5.0, "trace": 1}},
          "merge keeps each section's settings")
    check(merged["what"] == "first", "merge keeps the description")
    try:
        build_record(merged, {}, {"parent": {"commit": "p"},
                                  "change": {"commit": "other"}}, "")
        failures.append("merge across commits accepted")
    except RuntimeError:
        pass
    directions = better_directions(os.path.join(ROOT, "BENCHMARK.json"))
    check(directions.get("req_per_s") == "higher", "BENCHMARK.json read")

    for f in failures:
        print("bench_pairs self-test FAILED: " + f, file=sys.stderr)
    if not failures:
        print("bench_pairs self-test: ok")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--parent", help="parent checkout")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="record to write")
    ap.add_argument("--merge", action="store_true",
                    help="add sections to an existing --out record")
    ap.add_argument("--what", default="", help="one-line description")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload and args.out):
        ap.error("--parent, --change, --workload and --out are required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    args.seed = args.seed or [1]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
