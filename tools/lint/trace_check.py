#!/usr/bin/env python3
"""trace_check.py — structural validator for spindown trace files.

Validates the two export formats of src/obs/export.cpp:

  Chrome trace_event JSON (any extension but .jsonl):
    - the file is well-formed JSON: an object with a "traceEvents" list
    - every event is an object with a known "ph" and integer pid/tid
    - every non-metadata event carries a finite numeric "ts" (and "X"
      slices a non-negative "dur")
    - per (pid, tid) track, timestamps are non-decreasing in file order —
      the canonical merge emits each track's events in sim-time order, so
      a violation means the deterministic merge broke
    - async "b"/"e" pairs balance per (cat, id, tid)
    - pipeline profile slices (cat "pipeline") name a known stage

  JSONL (.jsonl):
    - line 1 is {"format":"spindown-trace","version":...} metadata
    - every following line is one flat event object with t/track/kind/code
    - per track, sim-time events (no "wall" flag) have non-decreasing t
    - profile events name a known pipeline stage

Usage:
    trace_check.py FILE [FILE...]     validate trace files (format by suffix)
    trace_check.py --self-test        run against built-in good/bad samples

Exit status: 0 = all files valid, 1 = findings, 2 = usage/IO error.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

CHROME_PHASES = {"M", "b", "e", "i", "X", "C"}
JSONL_KINDS = {"span", "power", "policy", "metric", "profile"}
# Wall-clock pipeline stages (src/obs/trace.h kProf* codes).
PROFILE_STAGES = {"router_fill", "ring_wait", "worker_replay", "feeder_fill"}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_chrome(text: str, label: str) -> List[str]:
    errors: List[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"{label}: not well-formed JSON: {e}"]
    if not isinstance(doc, dict) or not isinstance(
            doc.get("traceEvents"), list):
        return [f"{label}: top level must be an object with a "
                "'traceEvents' list"]
    last_ts: Dict[Tuple[int, int], float] = {}
    open_spans: Dict[Tuple[str, int, int], int] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"{label}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event is not an object")
            continue
        ph = ev.get("ph")
        if ph not in CHROME_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int) or not isinstance(
                ev.get("tid"), int):
            errors.append(f"{where}: pid/tid must be integers")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not _is_num(ts):
            errors.append(f"{where}: ph={ph} needs a numeric 'ts'")
            continue
        track = (ev["pid"], ev["tid"])
        if ts < last_ts.get(track, float("-inf")):
            errors.append(
                f"{where}: ts {ts} goes backwards on track pid={track[0]} "
                f"tid={track[1]} (previous {last_ts[track]})")
        last_ts[track] = ts
        if ph == "X":
            dur = ev.get("dur")
            if not _is_num(dur) or dur < 0:
                errors.append(f"{where}: 'X' slice needs a dur >= 0")
            if (ev.get("cat") == "pipeline"
                    and ev.get("name") not in PROFILE_STAGES):
                errors.append(f"{where}: unknown pipeline stage "
                              f"{ev.get('name')!r}")
        elif ph in ("b", "e"):
            key = (str(ev.get("cat")), ev.get("id"), ev["tid"])
            open_spans[key] = open_spans.get(key, 0) + (1 if ph == "b" else
                                                        -1)
            if open_spans[key] < 0:
                errors.append(f"{where}: 'e' with no matching 'b' for "
                              f"cat={key[0]} id={key[1]}")
    unbalanced = sum(1 for v in open_spans.values() if v != 0)
    if unbalanced:
        errors.append(
            f"{label}: {unbalanced} async span(s) never closed — every 'b' "
            "needs a matching 'e' (requests in flight at the horizon close "
            "at their completion, so this indicates a truncated file)")
    return errors


def check_jsonl(text: str, label: str) -> List[str]:
    errors: List[str] = []
    lines = text.splitlines()
    if not lines:
        return [f"{label}: empty file"]
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as e:
        return [f"{label}: line 1 (metadata) is not JSON: {e}"]
    if not isinstance(meta, dict) or meta.get("format") != "spindown-trace":
        return [f"{label}: line 1 must be the "
                '{"format":"spindown-trace",...} metadata object']
    last_t: Dict[int, float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{label}:{lineno}"
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{where}: not JSON: {e}")
            continue
        if not isinstance(ev, dict):
            errors.append(f"{where}: event is not an object")
            continue
        missing = [k for k in ("t", "track", "kind", "code") if k not in ev]
        if missing:
            errors.append(f"{where}: missing key(s) {missing}")
            continue
        if ev["kind"] not in JSONL_KINDS:
            errors.append(f"{where}: unknown kind {ev['kind']!r}")
            continue
        if not _is_num(ev["t"]) or not isinstance(ev["track"], int):
            errors.append(f"{where}: 't' must be numeric, 'track' integer")
            continue
        if ev["kind"] == "profile" and ev["code"] not in PROFILE_STAGES:
            errors.append(f"{where}: unknown pipeline stage {ev['code']!r}")
            continue
        if ev.get("wall"):
            continue  # profile samples are wall-clock offsets, unordered
        track = ev["track"]
        if ev["t"] < last_t.get(track, float("-inf")):
            errors.append(
                f"{where}: t {ev['t']} goes backwards on track {track} "
                f"(previous {last_t[track]})")
        last_t[track] = ev["t"]
    return errors


def check_file(path: str) -> List[str]:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as e:
        return [f"{path}: cannot read: {e}"]
    if path.endswith(".jsonl"):
        return check_jsonl(text, path)
    return check_chrome(text, path)


# --- self-test ---------------------------------------------------------------

GOOD_CHROME = """{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"sim"}},
{"ph":"b","cat":"request","name":"request","id":7,"pid":0,"tid":3,"ts":0.5,"args":{}},
{"ph":"X","cat":"power","name":"transfer","pid":0,"tid":3,"ts":1.0,"dur":2.5,"args":{}},
{"ph":"e","cat":"request","name":"request","id":7,"pid":0,"tid":3,"ts":4.0,"args":{}},
{"ph":"C","pid":0,"tid":4294967294,"ts":0.0,"name":"queued","args":{"queued":1}},
{"ph":"i","s":"t","cat":"policy","name":"timer_armed","pid":0,"tid":5,"ts":9.0,"args":{}},
{"ph":"X","cat":"pipeline","name":"feeder_fill","pid":1,"tid":4294967293,"ts":2.0,"dur":1.0,"args":{"chunk":0}}
],"displayTimeUnit":"ms"}
"""

BAD_CHROME_BACKWARDS = GOOD_CHROME.replace('"tid":3,"ts":4.0', '"tid":3,"ts":0.1')
BAD_CHROME_STAGE = GOOD_CHROME.replace('"feeder_fill"', '"feeder_nap"')
BAD_CHROME_UNBALANCED = GOOD_CHROME.replace(
    '{"ph":"e","cat":"request","name":"request","id":7,"pid":0,"tid":3,'
    '"ts":4.0,"args":{}},\n', "")

GOOD_JSONL = """{"format":"spindown-trace","version":1,"horizon_s":10}
{"t":0.5,"track":3,"kind":"span","code":"submit","id":7,"value":0,"aux":0}
{"t":1.5,"track":3,"kind":"power","code":"transfer","id":3,"value":0,"aux":0}
{"t":0.25,"track":-1,"kind":"span","code":"cache_hit","id":9,"value":0,"aux":0}
{"t":0.01,"track":2,"kind":"profile","code":"worker_replay","id":0,"value":0.1,"aux":0,"wall":true}
{"t":0.02,"track":-2,"kind":"profile","code":"feeder_fill","id":0,"value":0.1,"aux":0,"wall":true}
"""

BAD_JSONL_BACKWARDS = GOOD_JSONL.replace(
    '{"t":1.5,"track":3', '{"t":0.2,"track":3')
BAD_JSONL_NOMETA = GOOD_JSONL.split("\n", 1)[1]
BAD_JSONL_STAGE = GOOD_JSONL.replace('"feeder_fill"', '"feeder_nap"')


def self_test() -> int:
    cases = [
        ("good chrome", check_chrome(GOOD_CHROME, "<good>"), False),
        ("backwards chrome", check_chrome(BAD_CHROME_BACKWARDS,
                                          "<bad>"), True),
        ("unbalanced chrome", check_chrome(BAD_CHROME_UNBALANCED,
                                           "<bad>"), True),
        ("unknown stage chrome", check_chrome(BAD_CHROME_STAGE,
                                              "<bad>"), True),
        ("not json", check_chrome("{nope", "<bad>"), True),
        ("good jsonl", check_jsonl(GOOD_JSONL, "<good>"), False),
        ("backwards jsonl", check_jsonl(BAD_JSONL_BACKWARDS, "<bad>"), True),
        ("missing metadata", check_jsonl(BAD_JSONL_NOMETA, "<bad>"), True),
        ("unknown stage jsonl", check_jsonl(BAD_JSONL_STAGE, "<bad>"), True),
    ]
    failures = [
        f"{name}: expected {'errors' if want else 'clean'}, got {errs}"
        for name, errs, want in cases if bool(errs) != want
    ]
    if failures:
        print("trace_check self-test FAILED:")
        for f in failures:
            print("  -", f)
        return 1
    print(f"trace_check self-test passed ({len(cases)} sample checks).")
    return 0


def main(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    if argv[0] == "--self-test":
        return self_test()
    status = 0
    for path in argv:
        errors = check_file(path)
        if errors:
            status = 1
            for e in errors[:50]:
                print(e)
            if len(errors) > 50:
                print(f"{path}: ... and {len(errors) - 50} more")
        else:
            print(f"{path}: OK")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
