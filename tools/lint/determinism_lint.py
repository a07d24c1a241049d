#!/usr/bin/env python3
"""determinism_lint.py — repo-specific static rules for simulator determinism.

The simulator's contract is: same seed => bit-identical results, on any
machine, at any thread count.  Every rule here bans a construct that can
silently break that contract:

  wall-clock           Wall-clock / ambient-entropy sources (system_clock,
                       time(), std::rand, random_device, ...) in result-
                       affecting code.  All randomness must flow from the
                       seeded util::Rng; all time from the simulation clock.
  unordered-iteration  Range-for over std::unordered_{map,set,...}: the
                       iteration order is implementation-defined and salted,
                       so any result that depends on it is nondeterministic.
  static-mutable       Mutable static state (function-local or namespace-
                       scope).  It leaks results across runs in one process
                       and across sweep workers in parallel code.
  spec-coverage        Every *Spec type declared in src/sys/scenario.h and
                       src/sys/experiment.h must be exercised by
                       tests/sys/spec_roundtrip_fuzz_test.cpp, so a new
                       scenario axis cannot ship without a parse(spec())
                       round-trip guard.  And every key the scenario parser
                       accepts, and every kind name a spec parse() accepts
                       (the literals src/sys/*.cpp compares a token
                       against), must appear in a string of
                       tests/sys/grammar_mutation_test.cpp, so no spelling
                       ships without a check that it changes the result.
  obs                  Wall-clock waivers are confined to the observability
                       layer's profiling timer: a DETERMINISM-OK(wall-clock)
                       annotation anywhere but src/obs/profile.h fires this
                       rule.  Profiling code must route through
                       obs::ProfileClock so the repo keeps exactly one
                       sanctioned wall-clock site.

Suppressions: a finding is waived by an annotation on the same line or the
line directly above it, and the justification is mandatory:

    // DETERMINISM-OK(<rule>): <non-empty reason>

Usage:
    determinism_lint.py [--root DIR] [paths...]   lint (default: src/ tree)
    determinism_lint.py --self-test               run against the fixtures
    determinism_lint.py --list-rules              print rule names

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.

Implementation note: this is a lexer-level linter, not a full parser — the
container has neither libclang nor clang-query, and the rules only need
token-accurate scanning (comments and string literals are blanked first, so
a banned name inside a string or comment never fires).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

RULES = ("wall-clock", "unordered-iteration", "static-mutable",
         "spec-coverage", "obs")

# The one file allowed to carry a DETERMINISM-OK(wall-clock) waiver: the
# observability layer's profiling clock (obs::ProfileClock).
OBS_WALLCLOCK_SANCTIONED = os.path.join("obs", "profile.h")

ALLOW_RE = re.compile(r"//\s*DETERMINISM-OK\(([a-z-]+)\)\s*:\s*(\S.*)?$")

# Identifiers whose presence in code (not comments/strings) marks a
# wall-clock or ambient-entropy source.  `time` and `clock` are matched as
# calls to avoid flagging members like `service_time(...)` or `sim.clock()`
# (we only match them without a preceding `.`, `->`, or identifier char).
WALL_CLOCK_TOKENS = (
    "system_clock",
    "high_resolution_clock",
    "steady_clock",
    "random_device",
    "gettimeofday",
    "clock_gettime",
    "localtime",
    "gmtime",
    "srand",
)
WALL_CLOCK_RE = re.compile(
    "|".join(rf"\b{t}\b" for t in WALL_CLOCK_TOKENS)
    # std::rand() / ::rand(); plain `rand` is too common as a substring.
    + r"|(?:std::|::)rand\s*\("
    # Bare time(...)/clock(...) calls: not preceded by an identifier char,
    # `.`, `->`, or `::` (so sim.clock(), params.time(...) never match).
    + r"|(?<![\w.>:])time\s*\("
    + r"|(?<![\w.>:])clock\s*\(")

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
SPEC_DECL_RE = re.compile(r"\b(?:struct|class)\s+(\w*Spec)\b")
# A name the grammar accepts: a literal a token is compared against
# (`key == "sched"`, `head == "pack"`) or matched as a prefix
# (`name.rfind("nhpp", 0)`).
GRAMMAR_NAME_RE = re.compile(r'(?:==\s*|\brfind\(\s*)"([^"\\]+)"')
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blank out comments and string/char literals, preserving newlines and
    column positions so findings keep accurate locations.  With
    keep_strings, only comments are blanked."""

    def literal(s: str) -> str:
        if keep_strings:
            return s
        return "".join(ch if ch == "\n" else " " for ch in s)

    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw strings: find the delimiter and skip to its close.
                if out and out[-1] == "R":
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        close = ")" + m.group(1) + '"'
                        end = text.find(close, i + m.end())
                        end = n if end < 0 else end + len(close)
                        out.append(literal(text[i:end]))
                        i = end
                        continue
                mode = "string"
                out.append(literal(c))
                i += 1
            elif c == "'":
                mode = "char"
                out.append(literal(c))
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                out.append(literal(text[i:i + 2]))
                i += 2
            elif (mode == "string" and c == '"') or (mode == "char"
                                                     and c == "'"):
                mode = "code"
                out.append(literal(c))
                i += 1
            else:
                out.append(literal(c))
                i += 1
    return "".join(out)


def collect_allows(raw_lines: Sequence[str]) -> Dict[int, Tuple[str, str]]:
    """Map 1-based line number -> (rule, reason) for every line covered by a
    DETERMINISM-OK annotation (the annotation's own line and the next)."""
    allows: Dict[int, Tuple[str, str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), (m.group(2) or "").strip()
        allows[idx] = (rule, reason)
        allows.setdefault(idx + 1, (rule, reason))
    return allows


def is_allowed(allows: Dict[int, Tuple[str, str]], line: int, rule: str,
               findings: List[Finding], path: str) -> bool:
    entry = allows.get(line)
    if entry is None:
        return False
    allowed_rule, reason = entry
    if allowed_rule != rule:
        return False
    if not reason:
        findings.append(
            Finding(path, line, rule,
                    "DETERMINISM-OK annotation needs a non-empty reason"))
        return True  # suppressed, but the empty justification is itself a finding
    return True


# --- rule: wall-clock -------------------------------------------------------


def check_wall_clock(path: str, stripped: str,
                     allows: Dict[int, Tuple[str, str]]) -> List[Finding]:
    findings: List[Finding] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        for m in WALL_CLOCK_RE.finditer(line):
            if is_allowed(allows, lineno, "wall-clock", findings, path):
                continue
            token = m.group(0).strip().rstrip("(").strip()
            findings.append(
                Finding(
                    path, lineno, "wall-clock",
                    f"wall-clock/entropy source `{token}` — derive time from "
                    "the simulation clock and randomness from the seeded "
                    "util::Rng"))
    return findings


# --- rule: unordered-iteration ---------------------------------------------


def _skip_angle_brackets(text: str, i: int) -> int:
    """Given text[i] == '<', return the index one past the matching '>'."""
    depth = 0
    while i < len(text):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif text[i] in ";{}":
            break  # malformed; bail out
        i += 1
    return i


def collect_unordered_names(stripped: str) -> List[str]:
    """Names of variables/members declared with an unordered container type
    anywhere in this translation unit."""
    names: List[str] = []
    for m in UNORDERED_DECL_RE.finditer(stripped):
        i = m.end()
        while i < len(stripped) and stripped[i].isspace():
            i += 1
        if i < len(stripped) and stripped[i] == "<":
            i = _skip_angle_brackets(stripped, i)
        decl = re.match(r"\s*&?\s*(\w+)\s*[;{=,)\[]", stripped[i:i + 200])
        if decl and not decl.group(1).isdigit():
            names.append(decl.group(1))
    return names


def iter_range_fors(stripped: str):
    """Yield (line, expression) for every range-based for statement."""
    for m in re.finditer(r"\bfor\s*\(", stripped):
        start = m.end() - 1  # at '('
        depth, i = 0, start
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = stripped[start + 1:i]
        if ";" in body:
            continue  # classic for loop
        # Top-level ':' split (skip '::'); structured bindings have no colon.
        depth_sq = depth_par = 0
        split = -1
        j = 0
        while j < len(body):
            c = body[j]
            if c == "[":
                depth_sq += 1
            elif c == "]":
                depth_sq -= 1
            elif c == "(":
                depth_par += 1
            elif c == ")":
                depth_par -= 1
            elif c == ":" and depth_sq == 0 and depth_par == 0:
                if j + 1 < len(body) and body[j + 1] == ":":
                    j += 2
                    continue
                if j > 0 and body[j - 1] == ":":
                    j += 1
                    continue
                split = j
                break
            j += 1
        if split < 0:
            continue
        expr = body[split + 1:].strip()
        line = stripped.count("\n", 0, m.start()) + 1
        yield line, expr


def check_unordered_iteration(
        path: str, stripped: str,
        allows: Dict[int, Tuple[str, str]]) -> List[Finding]:
    findings: List[Finding] = []
    names = collect_unordered_names(stripped)
    name_re = (re.compile("|".join(rf"\b{re.escape(n)}\b" for n in names))
               if names else None)
    for line, expr in iter_range_fors(stripped):
        hit = "unordered_" in expr or (name_re and name_re.search(expr))
        if not hit:
            continue
        if is_allowed(allows, line, "unordered-iteration", findings, path):
            continue
        findings.append(
            Finding(
                path, line, "unordered-iteration",
                f"range-for over unordered container `{expr[:60]}` — "
                "iteration order is implementation-defined; iterate a "
                "deterministically-ordered structure instead"))
    return findings


# --- rule: static-mutable ---------------------------------------------------


def check_static_mutable(path: str, stripped: str,
                         allows: Dict[int, Tuple[str, str]]) -> List[Finding]:
    findings: List[Finding] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        m = re.match(r"\s*static\s+(.*)$", line)
        if not m:
            continue
        rest = m.group(1)
        # Immutable or compile-time state is fine.
        if re.match(r"(?:const|constexpr|constinit)\b", rest):
            continue
        if re.search(r"\bconst(?:expr|init)?\b", rest.split("=")[0]):
            continue
        # Function declaration/definition: a '(' before any '='.
        eq = rest.find("=")
        par = rest.find("(")
        if par >= 0 and (eq < 0 or par < eq):
            continue
        # Plain `static;`-less fragments (e.g. broken lines) are skipped.
        if not re.search(r"\w", rest):
            continue
        if is_allowed(allows, lineno, "static-mutable", findings, path):
            continue
        findings.append(
            Finding(
                path, lineno, "static-mutable",
                f"mutable static state `static {rest.strip()[:60]}` — state "
                "must live in the experiment/run object, never in statics"))
    return findings


# --- rule: obs --------------------------------------------------------------


def check_obs_wallclock(path: str, raw_lines: Sequence[str],
                        allows: Dict[int, Tuple[str, str]]) -> List[Finding]:
    """A wall-clock waiver outside src/obs/profile.h: the waived read itself
    is legal C++, but it forks a second wall-clock site — profiling timers
    must go through obs::ProfileClock instead."""
    if path.replace(os.sep, "/").endswith(
            OBS_WALLCLOCK_SANCTIONED.replace(os.sep, "/")):
        return []
    findings: List[Finding] = []
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m or m.group(1) != "wall-clock":
            continue
        if is_allowed(allows, lineno, "obs", findings, path):
            continue
        findings.append(
            Finding(
                path, lineno, "obs",
                "wall-clock waiver outside src/obs/profile.h — profiling "
                "timers must use obs::ProfileClock, the repo's sole "
                "sanctioned wall-clock site"))
    return findings


# --- rule: spec-coverage ----------------------------------------------------


def check_spec_coverage(spec_headers: Sequence[str],
                        roundtrip_test: str) -> List[Finding]:
    findings: List[Finding] = []
    try:
        # Strip comments so a Spec name merely *mentioned* in prose does not
        # count as coverage — it must appear in test code.
        test_text = strip_comments_and_strings(
            open(roundtrip_test, encoding="utf-8").read())
    except OSError as e:
        return [
            Finding(roundtrip_test, 1, "spec-coverage",
                    f"cannot read round-trip test: {e}")
        ]
    for header in spec_headers:
        try:
            text = open(header, encoding="utf-8").read()
        except OSError as e:
            findings.append(
                Finding(header, 1, "spec-coverage",
                        f"cannot read spec header: {e}"))
            continue
        stripped = strip_comments_and_strings(text)
        for m in SPEC_DECL_RE.finditer(stripped):
            name = m.group(1)
            if re.search(rf"\b{name}\b", test_text):
                continue
            line = stripped.count("\n", 0, m.start()) + 1
            findings.append(
                Finding(
                    header, line, "spec-coverage",
                    f"`{name}` is not exercised by "
                    f"{os.path.basename(roundtrip_test)} — every *Spec must "
                    "have a parse(spec()) round-trip guard"))
    return findings


def check_grammar_coverage(grammar_sources: Sequence[str],
                           mutation_test: str) -> List[Finding]:
    """Every key and kind name the grammar sources accept must appear in a
    string literal of the mutation test (comments do not count)."""
    try:
        test_text = strip_comments_and_strings(
            open(mutation_test, encoding="utf-8").read(), keep_strings=True)
    except OSError as e:
        return [
            Finding(mutation_test, 1, "spec-coverage",
                    f"cannot read mutation test: {e}")
        ]
    literals = "\n".join(STRING_LITERAL_RE.findall(test_text))
    findings: List[Finding] = []
    seen = set()
    for source in grammar_sources:
        try:
            text = strip_comments_and_strings(
                open(source, encoding="utf-8").read(), keep_strings=True)
        except OSError as e:
            findings.append(
                Finding(source, 1, "spec-coverage",
                        f"cannot read grammar source: {e}"))
            continue
        for m in GRAMMAR_NAME_RE.finditer(text):
            name = m.group(1).rstrip(":(")
            if name in seen:
                continue
            seen.add(name)
            if re.search(rf"(?<![A-Za-z-]){re.escape(name)}(?![A-Za-z-])",
                         literals):
                continue
            line = text.count("\n", 0, m.start()) + 1
            findings.append(
                Finding(
                    source, line, "spec-coverage",
                    f"grammar name `{name}` is not exercised by "
                    f"{os.path.basename(mutation_test)} — every key and "
                    "kind needs a one-token mutation, or deletion"))
    return findings


# --- driver -----------------------------------------------------------------


def lint_file(path: str, rules: Sequence[str]) -> List[Finding]:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as e:
        return [Finding(path, 1, "wall-clock", f"cannot read file: {e}")]
    raw_lines = text.splitlines()
    allows = collect_allows(raw_lines)
    stripped = strip_comments_and_strings(text)
    findings: List[Finding] = []
    if "wall-clock" in rules:
        findings += check_wall_clock(path, stripped, allows)
    if "unordered-iteration" in rules:
        findings += check_unordered_iteration(path, stripped, allows)
    if "static-mutable" in rules:
        findings += check_static_mutable(path, stripped, allows)
    if "obs" in rules:
        findings += check_obs_wallclock(path, raw_lines, allows)
    return findings


def cxx_sources(root: str) -> List[str]:
    out: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                out.append(os.path.join(dirpath, name))
    return out


def lint_tree(root: str, paths: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint the repo rooted at `root`.  The per-file rules run over src/ (or
    the explicit paths); spec-coverage runs over the canonical spec headers."""
    findings: List[Finding] = []
    if paths:
        files = []
        for p in paths:
            files += cxx_sources(p) if os.path.isdir(p) else [p]
    else:
        files = cxx_sources(os.path.join(root, "src"))
    for f in files:
        findings += lint_file(f, RULES)
    scenario_h = os.path.join(root, "src", "sys", "scenario.h")
    experiment_h = os.path.join(root, "src", "sys", "experiment.h")
    fuzz = os.path.join(root, "tests", "sys", "spec_roundtrip_fuzz_test.cpp")
    mutation = os.path.join(root, "tests", "sys", "grammar_mutation_test.cpp")
    if not paths and os.path.exists(scenario_h):
        findings += check_spec_coverage([scenario_h, experiment_h], fuzz)
        grammar = [
            os.path.join(root, "src", "sys", name)
            for name in ("scenario.cpp", "experiment.cpp", "system.cpp")
        ]
        findings += check_grammar_coverage(grammar, mutation)
    return findings


# --- self-test against the fixtures ----------------------------------------


def self_test(fixture_dir: str) -> int:
    """Each bad fixture must fire exactly its rule; the clean fixture must be
    silent; the spec fixtures must flag only the unregistered Spec and the
    unlisted grammar key."""
    failures: List[str] = []

    def expect(desc: str, cond: bool):
        if not cond:
            failures.append(desc)

    def rules_fired(findings: List[Finding]) -> List[str]:
        return sorted({f.rule for f in findings})

    cases = [
        ("bad_wallclock.cpp", "wall-clock", 3),
        ("bad_unordered_iter.cpp", "unordered-iteration", 2),
        ("bad_static_state.cpp", "static-mutable", 2),
        # The wall-clock use is waived (with a reason), so only the obs rule
        # fires: the waiver itself is the violation outside obs/profile.h.
        ("bad_obs_wallclock.cpp", "obs", 1),
    ]
    for name, rule, min_count in cases:
        path = os.path.join(fixture_dir, name)
        findings = lint_file(path, RULES)
        expect(f"{name}: expected only [{rule}], got {rules_fired(findings)}",
               rules_fired(findings) == [rule])
        expect(
            f"{name}: expected >= {min_count} findings, got {len(findings)}",
            len(findings) >= min_count)

    clean = lint_file(os.path.join(fixture_dir, "clean.cpp"), RULES)
    expect(f"clean.cpp: expected no findings, got {clean}", not clean)

    spec_findings = check_spec_coverage(
        [os.path.join(fixture_dir, "spec_coverage", "mini_scenario.h")],
        os.path.join(fixture_dir, "spec_coverage", "mini_roundtrip_test.cpp"))
    expect(
        "spec_coverage: expected exactly BarSpec flagged, got "
        f"{[f.message for f in spec_findings]}",
        len(spec_findings) == 1 and "BarSpec" in spec_findings[0].message)

    grammar_findings = check_grammar_coverage(
        [os.path.join(fixture_dir, "spec_coverage", "mini_grammar.cpp")],
        os.path.join(fixture_dir, "spec_coverage", "mini_mutation_test.cpp"))
    expect(
        "spec_coverage: expected exactly the key `beta` flagged, got "
        f"{[f.message for f in grammar_findings]}",
        len(grammar_findings) == 1
        and "`beta`" in grammar_findings[0].message)

    unjustified = lint_file(os.path.join(fixture_dir, "bad_empty_reason.cpp"),
                            RULES)
    expect(
        "bad_empty_reason.cpp: empty suppression reason must be a finding, "
        f"got {unjustified}",
        any("non-empty reason" in f.message for f in unjustified))

    if failures:
        print("determinism_lint self-test FAILED:")
        for f in failures:
            print("  -", f)
        return 1
    print("determinism_lint self-test passed "
          f"({len(cases) + 4} fixture checks).")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter against its fixture suite")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to lint (default: <root>/src)")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(here))

    if args.list_rules:
        print("\n".join(RULES))
        return 0
    if args.self_test:
        return self_test(os.path.join(here, "fixtures"))

    findings = lint_tree(root, args.paths or None)
    for f in findings:
        print(f.render())
    if findings:
        print(f"\n{len(findings)} determinism finding(s).  Suppress only "
              "with `// DETERMINISM-OK(rule): reason`.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
