#!/usr/bin/env python3
"""tmwia-lint: project lint for determinism and billboard-protocol rules.

The paper's guarantees (Thm 1.1: constant stretch in polylog rounds)
assume the billboard model exactly: deterministic seeded randomness,
estimates computed only from billboard-visible posts, one probe per
player per round, and probe-cost accounting that cannot drift. The
runtime half of that contract is checked by billboard::ProtocolAuditor;
this tool is the static half. It scans C++ sources (comments and string
literals stripped) for constructs that would let those invariants rot:

  unseeded-rng             rand()/srand()/std::random_device/std::mt19937
                           and friends. All randomness must flow from
                           tmwia::rng::Rng seeds (splittable, replayable).
  wall-clock               system_clock/steady_clock/time()/... in library
                           or test code. Wall time is nondeterminism; only
                           src/obs (opt-in wall sampling) and bench/ (measuring
                           wall time is their job) may touch clocks.
  raw-io                   std::cout/std::cerr/printf in library code —
                           output must go through io::/obs:: so runs stay
                           machine-comparable. Bench/test mains that print
                           carry explicit allow-file pragmas.
  nonconst-global          mutable namespace-scope state outside the
                           registered singletons (function-local statics
                           like MetricsRegistry::global() are fine).
  matrix-read-in-strategy  strategy code naming PreferenceMatrix (or
                           including preference_matrix.hpp): player code
                           must reach the hidden matrix only through
                           ProbeOracle, which charges probe cost. Use
                           tmwia/matrix/ids.hpp for the id types.
  serve-matrix-isolation   serve-layer code naming PreferenceMatrix or
                           reaching into the hidden truth (inst_.matrix):
                           request handlers answer only from the published
                           AnswerCache, which is fed exclusively through
                           probes. The Tenant harness side (which builds
                           the ProbeOracle) carries the audited pragma.
  durable-write            std::ofstream/std::rename/fsync/fopen outside
                           src/io in artifact-producing code. Checkpoints
                           and reports must go through io::atomic_write_file
                           (tmp + fsync + rename) so a crash or a concurrent
                           reader never sees a torn file. Streaming event
                           sinks (record, telemetry) carry explicit allow pragmas.
  size-empty               `x.size() == 0` instead of `x.empty()` (the
                           readability-container-size-empty mirror, kept
                           here because clang-tidy is optional).
  naked-mutex              a mutex member (std::mutex/shared_mutex/
                           support::Mutex) with no sibling
                           TMWIA_GUARDED_BY annotation in the file. Every
                           lock must say what it protects, so the Clang
                           thread-safety build (TMWIA_THREAD_SAFETY) has
                           something to check; deliberately-unguarded
                           state carries an explained allow pragma.
  manual-lock              raw .lock()/.unlock() calls outside the
                           annotated RAII lockers (support::MutexLock,
                           lock_guard/unique_lock/scoped_lock). Manual
                           pairing is invisible to the static analysis
                           and leaks on exceptions.
  explicit-atomic-ordering std::atomic load/store/exchange/fetch_*/
                           compare_exchange without an explicit
                           std::memory_order argument. Defaulted seq_cst
                           hides the intended protocol; every ordering in
                           library code is a documented decision.
  owner-write              files outside src/obs touching obs:: shard
                           internals (local_shard/attach_thread/slot_add).
                           The owner-write/merge-on-read discipline only
                           holds if writers go through the Counter/
                           Histogram handles.
  metric-name-registry     a metric or profile-zone name literal
                           (counter/histogram/set_gauge/ProfileZone/
                           intern call site in src/) that is
                           not in the generated registry header
                           (src/obs/.../metric_names.gen.hpp, regenerate
                           with --write-metric-registry), or a registry
                           entry no call site uses. Dynamically composed
                           names ("serve." + tenant + ...) always fire
                           and carry an auditable allow pragma, so the
                           set of unregistered name shapes stays
                           enumerable.
  stale-pragma             a tmwia-lint allow/allow-file pragma that no
                           longer suppresses any finding — the escape-
                           hatch inventory stays honest.
  header-pragma-once       every header starts its include guard.
  header-test-stale        tests/header_selfcontained_test.cpp no longer
                           matches the set of public headers (regenerate
                           with --write-header-test).
  header-selfcontained     (--compile-checks) each public header compiles
                           as its own translation unit.

Suppressions are explicit and auditable:

  // tmwia-lint: allow(rule[,rule]) [reason]       this line or the next
  // tmwia-lint: allow-file(rule[,rule]) [reason]  whole file

Every suppression is recorded in the JSON report's "allowed" lists —
nothing is silently exempt.

Usage:
  tools/lint/tmwia_lint.py [--root DIR] [--json PATH] [--compile-checks]
                           [--write-header-test] [--write-metric-registry]
                           [--list-rules] [--self-test] [-q]

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

CODE_DIRS = ("src", "bench", "tests", "tools", "examples")
CPP_EXTS = (".cpp", ".hpp", ".cc", ".hh", ".h")

PRAGMA_LINE = re.compile(r"//\s*tmwia-lint:\s*allow\(([^)]*)\)")
PRAGMA_FILE = re.compile(r"//\s*tmwia-lint:\s*allow-file\(([^)]*)\)")


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    text: str
    allowed: bool = False

    def as_json(self):
        return {"file": self.file, "line": self.line, "text": self.text}


@dataclass
class Rule:
    id: str
    description: str
    # A file is in scope if it matches `dirs` and none of `exempt`.
    dirs: tuple
    exempt: tuple = ()
    patterns: tuple = ()

    def in_scope(self, relpath: str) -> bool:
        if not any(relpath.startswith(d) for d in self.dirs):
            return False
        return not any(relpath.startswith(e) for e in self.exempt)


RULES = [
    Rule(
        id="unseeded-rng",
        description="ambient/unseeded randomness; use tmwia::rng::Rng (seeded, splittable)",
        dirs=CODE_DIRS,
        patterns=(
            r"\brand\s*\(",
            r"\bsrand\s*\(",
            r"\bstd\s*::\s*random_device\b",
            r"\brandom_device\b",
            r"\bmt19937(_64)?\b",
            r"\bdefault_random_engine\b",
            r"\bminstd_rand0?\b",
        ),
    ),
    Rule(
        id="wall-clock",
        description="wall-clock reads outside src/obs and bench/ break replayability",
        dirs=("src", "tests", "tools", "examples"),
        exempt=("src/obs",),
        patterns=(
            r"\bsystem_clock\b",
            r"\bhigh_resolution_clock\b",
            r"\bsteady_clock\b",
            r"\bgettimeofday\b",
            r"\bclock_gettime\b",
            r"\bstd\s*::\s*time\b",
            r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)",
            r"\blocaltime\b",
            r"\bgmtime\b",
        ),
    ),
    Rule(
        id="raw-io",
        description="direct stdout/stderr in library code; route through io::/obs::",
        dirs=("src", "bench", "tests"),
        exempt=("src/io", "src/obs"),
        patterns=(
            r"\bstd\s*::\s*cout\b",
            r"\bstd\s*::\s*cerr\b",
            r"(?<![\w:])printf\s*\(",   # not snprintf/fprintf-matched-below
            r"\bstd\s*::\s*printf\s*\(",
            r"\bfprintf\s*\(",
            r"(?<![\w:])puts\s*\(",
            r"\bfputs\s*\(",
        ),
    ),
    Rule(
        id="matrix-read-in-strategy",
        description="strategy code must not see PreferenceMatrix (hidden-vector "
        "abstraction); include tmwia/matrix/ids.hpp for id types",
        dirs=("src/core", "src/billboard"),
        exempt=(
            # The single sanctioned gateway between players and the truth.
            "src/billboard/probe_oracle.",
            "src/billboard/include/tmwia/billboard/probe_oracle.hpp",
        ),
        patterns=(
            r"\bPreferenceMatrix\b",
            r"preference_matrix\.hpp",
        ),
    ),
    Rule(
        id="serve-matrix-isolation",
        description="serve-layer request/service code must not touch "
        "PreferenceMatrix or the tenant's hidden truth; answers come from the "
        "published AnswerCache, fed only through probes (the Tenant harness "
        "side carries an auditable allow-file pragma)",
        dirs=("src/serve",),
        patterns=(
            r"\bPreferenceMatrix\b",
            r"preference_matrix\.hpp",
            r"\binst_\s*\.\s*matrix\b",
        ),
    ),
    Rule(
        id="durable-write",
        description="direct ofstream/rename/fsync/fopen writes outside src/io; "
        "durable artifacts (checkpoints, reports, metrics) must go through "
        "io::atomic_write_file so a crash never leaves a torn file",
        dirs=("src", "bench", "tools"),
        exempt=("src/io",),
        patterns=(
            r"\bofstream\b",
            r"\bstd\s*::\s*rename\s*\(",
            r"(?<![\w:])fsync\s*\(",
            r"(?<![\w:])fopen\s*\(",
        ),
    ),
    Rule(
        id="size-empty",
        description="use .empty() instead of comparing .size() with 0",
        dirs=CODE_DIRS,
        patterns=(r"\.\s*size\s*\(\s*\)\s*[=!]=\s*0\b", r"\b0\s*[=!]=\s*\w+(\(\))?\s*\.\s*size\s*\(\s*\)"),
    ),
    Rule(
        id="manual-lock",
        description="raw .lock()/.unlock() call; use the RAII lockers "
        "(support::MutexLock, std::scoped_lock) so the thread-safety analysis "
        "sees the critical section and an exception cannot leak a held lock",
        dirs=CODE_DIRS,
        exempt=("src/support",),  # the annotated wrappers themselves
        patterns=(
            r"(?:\.|->)\s*lock\s*\(\s*\)",
            r"(?:\.|->)\s*unlock\s*\(\s*\)",
        ),
    ),
    Rule(
        id="owner-write",
        description="obs:: shard internals (local_shard/attach_thread/slot_add) "
        "touched outside src/obs; write metrics through Counter/Histogram handles",
        dirs=CODE_DIRS,
        exempt=("src/obs",),
        patterns=(
            r"\blocal_shard\s*\(",
            r"\battach_thread\s*\(",
            r"\bslot_add\s*\(",
        ),
    ),
]

PER_BIT_LOOP = Rule(
    id="per-bit-loop",
    description="per-bit get() loop in a distance-critical file; use the "
    "word-parallel bits/kernels batched API (dist_many, argmin_dist, "
    "known_diff_positions, ...) or BitVector word operations instead",
    # Hot files only: the distance/vote/probe paths where a per-bit loop
    # is a real regression. Cold setup/diagnostic code may loop bits.
    dirs=(
        "src/core/select",
        "src/core/rselect",
        "src/core/coalesce",
        "src/core/small_radius",
        "src/core/large_radius",
        "src/core/bit_space",
        "src/core/include/tmwia/core/select",
        "src/core/include/tmwia/core/zero_radius.hpp",
        "src/core/include/tmwia/core/bit_space",
        "src/billboard/billboard",
        "src/billboard/probe_oracle",
        "src/billboard/include/tmwia/billboard/billboard",
        "src/billboard/include/tmwia/billboard/probe_oracle",
    ),
)

NONCONST_GLOBAL = Rule(
    id="nonconst-global",
    description="mutable namespace-scope state; wrap in a registered singleton "
    "(function-local static) or make it constexpr/const",
    dirs=("src",),
)

HEADER_PRAGMA_ONCE = Rule(
    id="header-pragma-once",
    description="headers must use #pragma once",
    dirs=CODE_DIRS,
)

HEADER_TEST_STALE = Rule(
    id="header-test-stale",
    description="tests/header_selfcontained_test.cpp is stale; regenerate with "
    "tools/lint/tmwia_lint.py --write-header-test",
    dirs=("tests",),
)

HEADER_SELFCONTAINED = Rule(
    id="header-selfcontained",
    description="public headers must compile stand-alone (--compile-checks)",
    dirs=("src",),
)

NAKED_MUTEX = Rule(
    id="naked-mutex",
    description="mutex member with no sibling TMWIA_GUARDED_BY annotation in "
    "the file; declare what it protects (or carry an explained allow pragma "
    "for externally-synchronized state)",
    dirs=("src",),
    exempt=("src/support",),  # the capability wrappers wrap a raw std::mutex
)

EXPLICIT_ATOMIC_ORDERING = Rule(
    id="explicit-atomic-ordering",
    description="atomic load/store/exchange/fetch_*/compare_exchange with a "
    "defaulted (seq_cst) ordering in library code; spell the std::memory_order "
    "so the protocol is a documented decision",
    dirs=("src",),
)

METRIC_NAME_REGISTRY = Rule(
    id="metric-name-registry",
    description="metric/profile-zone name literal not in the generated "
    "registry (src/obs/include/tmwia/obs/metric_names.gen.hpp; regenerate "
    "with --write-metric-registry), or a registry entry with no remaining "
    "call site; dynamically composed names carry an explained allow pragma",
    # src/obs owns the registry machinery itself and mints no product
    # names; tests/bench/tools mint throwaway names at will.
    dirs=("src",),
    exempt=("src/obs",),
)

STALE_PRAGMA = Rule(
    id="stale-pragma",
    description="tmwia-lint allow pragma that no longer suppresses any "
    "finding; delete it (or keep it deliberately under allow(stale-pragma))",
    dirs=CODE_DIRS,
)

ALL_RULES = RULES + [PER_BIT_LOOP, NONCONST_GLOBAL, NAKED_MUTEX,
                     EXPLICIT_ATOMIC_ORDERING, METRIC_NAME_REGISTRY,
                     STALE_PRAGMA, HEADER_PRAGMA_ONCE, HEADER_TEST_STALE,
                     HEADER_SELFCONTAINED]


def strip_comments_and_strings(src: str) -> str:
    """Blank out comments and the contents of string/char literals,
    preserving line structure so reported line numbers stay true."""
    out = []
    i, n = 0, len(src)
    mode = "code"  # code | line_comment | block_comment | string | char | raw_string
    raw_delim = ""
    while i < n:
        c = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s]*)\(', src[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    mode = "raw_string"
                    out.append('R"')
                    i += 2
                    continue
            if c == '"':
                mode = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(c)
                i += 1
                continue
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
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
            i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "raw_string":
            if src.startswith(raw_delim, i):
                mode = "code"
                out.append(raw_delim)
                i += len(raw_delim)
                continue
            out.append(c if c == "\n" else " ")
            i += 1
    return "".join(out)


@dataclass
class Pragma:
    """One (pragma occurrence, rule) pair. `used` flips when the pragma
    suppresses a finding; pragmas still unused at the end of the file's
    scan are themselves findings (stale-pragma)."""
    line: int
    rule: str
    kind: str  # "line" | "file"
    used: bool = False


def parse_pragmas(raw_lines):
    """Return (file_allows: {rule: Pragma}, line_allows: {lineno: {rule:
    Pragma}}, pragmas: [Pragma]). A line pragma covers its own line and
    the following line (both map to the same record, so either hit marks
    it used)."""
    file_allows = {}
    line_allows = {}
    pragmas = []
    for idx, line in enumerate(raw_lines, start=1):
        m = PRAGMA_FILE.search(line)
        if m:
            for rule in (r.strip() for r in m.group(1).split(",")):
                if not rule:
                    continue
                p = Pragma(idx, rule, "file")
                pragmas.append(p)
                # A duplicate file pragma for the same rule can never be
                # the suppressor, so it ends the scan unused — and stale.
                file_allows.setdefault(rule, p)
        m = PRAGMA_LINE.search(line)
        if m:
            for rule in (r.strip() for r in m.group(1).split(",")):
                if not rule:
                    continue
                p = Pragma(idx, rule, "line")
                pragmas.append(p)
                line_allows.setdefault(idx, {}).setdefault(rule, p)
                line_allows.setdefault(idx + 1, {}).setdefault(rule, p)
    return file_allows, line_allows, pragmas


# A bit read with an index argument. The argument requirement keeps
# smart-pointer `.get()` (no argument) out of the match.
_BIT_GET = re.compile(r"\.\s*get\s*\(\s*[^)\s]")
_FOR_HEADER = re.compile(r"\bfor\s*\(")


def scan_per_bit_loops(stripped_lines, raw_lines, relpath):
    """Flag for-loops whose lexical extent reads bits one index at a
    time. The extent runs from the for-header until the loop's braces
    balance out (capped: hot loops here are short); a brace-less loop
    body is its following line."""
    findings = []
    n = len(stripped_lines)
    for idx, header in enumerate(stripped_lines):
        m = _FOR_HEADER.search(header)
        if m is None:
            continue
        depth = 0
        opened = False
        for j in range(idx, min(idx + 12, n)):
            seg = stripped_lines[j][m.end():] if j == idx else stripped_lines[j]
            if _BIT_GET.search(seg):
                findings.append(Finding(PER_BIT_LOOP.id, relpath, idx + 1,
                                        raw_lines[idx].strip()[:160]))
                break
            depth += seg.count("{") - seg.count("}")
            opened = opened or "{" in seg
            if opened and depth <= 0:
                break
            if not opened and j > idx:
                break  # brace-less body: one line past the header
    return findings


# Declaration statements that are not mutable globals.
_GLOBAL_OK = re.compile(
    r"\b(const|constexpr|constinit|using|typedef|extern|friend|template|"
    r"operator|return|static_assert|namespace|class|struct|union|enum|"
    r"concept|requires|thread_local)\b"
)
_DECL_SHAPE = re.compile(r"^[A-Za-z_][\w:<>,\s\*&\[\]\.]*\s[a-zA-Z_]\w*(\s*=[^=].*|\s*\{.*\})?$")


def scan_nonconst_globals(stripped: str, relpath: str):
    """Token-light scan for mutable namespace-scope variables: walk
    statements, tracking whether every enclosing brace is a namespace."""
    findings = []
    stack = []  # entries: "ns" | "type" | "other"
    stmt_chars = []
    stmt_line = 1
    stmt_started = False
    line = 1
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "\n":
            line += 1
            stmt_chars.append(" ")
            i += 1
            continue
        if c == "{":
            head = "".join(stmt_chars).strip()
            if re.search(r"\bnamespace\b", head):
                kind = "ns"
            elif re.search(r"\b(class|struct|union|enum)\b", head) and "(" not in head:
                kind = "type"
            elif "=" in head.split("(")[0] and "(" not in head.split("=")[0]:
                # brace-init of a variable: `T x = {...}` / `T x{...}`
                kind = "init"
            elif "(" not in head and head and not head.endswith(")"):
                kind = "init"
            else:
                kind = "other"
            if kind == "init" and all(k == "ns" for k in stack):
                # `T x{...};` at namespace scope — treat like a decl.
                head_stmt = head
                if head_stmt and not _GLOBAL_OK.search(head_stmt) and "(" not in head_stmt:
                    shaped = _DECL_SHAPE.match(head_stmt + "{}")
                    if shaped:
                        findings.append((stmt_line, head_stmt + "{...}"))
            stack.append(kind if kind != "init" else "other")
            stmt_chars = []
            stmt_started = False
            i += 1
            continue
        if c == "}":
            if stack:
                stack.pop()
            stmt_chars = []
            stmt_started = False
            i += 1
            continue
        if c == ";":
            stmt = re.sub(r"\s+", " ", "".join(stmt_chars)).strip()
            if (
                stmt
                and all(k == "ns" for k in stack)
                and not _GLOBAL_OK.search(stmt)
                and "(" not in stmt  # function decls / ctor calls
                and not stmt.startswith("#")
                and _DECL_SHAPE.match(stmt)
            ):
                findings.append((stmt_line, stmt))
            stmt_chars = []
            stmt_started = False
            i += 1
            continue
        if not stmt_started and not c.isspace():
            stmt_line = line
            stmt_started = True
        stmt_chars.append(c)
        i += 1
    return [Finding(NONCONST_GLOBAL.id, relpath, ln, text[:160]) for ln, text in findings]


# A mutex-typed member declaration, after whitespace/`::` normalization.
# Bare `Mutex` covers the in-namespace `using support::Mutex;` idiom.
_MUTEX_DECL = re.compile(
    r"^(?:mutable\s+)?"
    r"(?:std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex)"
    r"|(?:tmwia::)?(?:support::)?Mutex)"
    r"\s+([A-Za-z_]\w*)$"
)


def scan_naked_mutexes(stripped: str, raw: str, raw_lines, relpath: str):
    """Mutex members whose protected state is undeclared: no
    TMWIA_GUARDED_BY / TMWIA_PT_GUARDED_BY in the file names the member.
    Same brace walk as scan_nonconst_globals, but looking at declaration
    statements whose innermost scope is a type."""
    findings = []
    stack = []  # entries: "ns" | "type" | "other"
    stmt_chars = []
    stmt_line = 1
    stmt_started = False
    line = 1
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "\n":
            line += 1
            stmt_chars.append(" ")
            i += 1
            continue
        if c == "{":
            head = "".join(stmt_chars).strip()
            if re.search(r"\bnamespace\b", head):
                stack.append("ns")
            elif re.search(r"\b(class|struct|union)\b", head) and "(" not in head:
                stack.append("type")
            else:
                stack.append("other")
            stmt_chars = []
            stmt_started = False
            i += 1
            continue
        if c == "}":
            if stack:
                stack.pop()
            stmt_chars = []
            stmt_started = False
            i += 1
            continue
        if c == ";":
            if stack and stack[-1] == "type":
                stmt = re.sub(r"\s*::\s*", "::",
                              re.sub(r"\s+", " ", "".join(stmt_chars)).strip())
                m = _MUTEX_DECL.match(stmt)
                if m and not re.search(
                        r"TMWIA_(?:PT_)?GUARDED_BY\(\s*" + re.escape(m.group(1)) + r"\s*\)",
                        raw):
                    findings.append(Finding(NAKED_MUTEX.id, relpath, stmt_line,
                                            raw_lines[stmt_line - 1].strip()[:160]))
            stmt_chars = []
            stmt_started = False
            i += 1
            continue
        if not stmt_started and not c.isspace():
            stmt_line = line
            stmt_started = True
        stmt_chars.append(c)
        i += 1
    return findings


_ATOMIC_OP = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_strong|compare_exchange_weak)\s*\("
)


def scan_atomic_orderings(stripped_lines, raw_lines, relpath):
    """Atomic operations must spell their std::memory_order. The argument
    span runs from the call's open paren until its parens balance, joined
    across up to four lines (enough for clang-format-wrapped calls); a
    span with no memory_order token is a finding. One finding per line."""
    findings = []
    n = len(stripped_lines)
    for idx, line in enumerate(stripped_lines):
        for m in _ATOMIC_OP.finditer(line):
            depth = 1
            arg_chars = []
            col = m.end()
            for j in range(idx, min(idx + 4, n)):
                seg = stripped_lines[j][col:] if j == idx else stripped_lines[j]
                col = 0
                for ch in seg:
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    arg_chars.append(ch)
                if depth == 0:
                    break
            if "memory_order" not in "".join(arg_chars):
                findings.append(Finding(EXPLICIT_ATOMIC_ORDERING.id, relpath, idx + 1,
                                        raw_lines[idx].strip()[:160]))
                break
    return findings


# A metric/zone construction site whose name argument starts with a
# string literal. Matched against the STRIPPED line (so a mention in a
# comment cannot fire); the literal's contents are then read from the
# raw line at the same offsets (the stripper is offset-preserving).
_METRIC_SITES = (
    # Registry handles: name is the first argument.
    re.compile(r'\b(?:counter|histogram|set_gauge)\s*\(\s*"'),
    # Scoped profile zone with a literal name.
    re.compile(r'\bProfileZone\s+\w+\s*[({]\s*"'),
    # Pre-interned zone id: name is the second argument.
    re.compile(r'\bintern\s*\(\s*[^,()]*,\s*"'),
)

METRIC_REGISTRY_PATH = os.path.join(
    "src", "obs", "include", "tmwia", "obs", "metric_names.gen.hpp")


def iter_metric_literals(stripped_lines, raw_lines):
    """Yield (lineno, name, complete) for every metric/zone name literal.
    `complete` is False when the literal is only the head of a composed
    name ("serve." + tenant + ...) — those can never be registered and
    always need a pragma."""
    for idx, sline in enumerate(stripped_lines):
        raw = raw_lines[idx] if idx < len(raw_lines) else ""
        seen_cols = set()
        for pat in _METRIC_SITES:
            for m in pat.finditer(sline):
                qpos = m.end() - 1  # the opening quote
                if qpos in seen_cols or qpos >= len(raw):
                    continue
                seen_cols.add(qpos)
                end = raw.find('"', qpos + 1)
                if end < 0:
                    continue
                name = raw[qpos + 1:end]
                rest = raw[end + 1:].strip()
                # A literal followed by ) or , (or a line break before
                # the next argument) is the whole name.
                complete = rest == "" or rest[0] in "),"
                yield idx + 1, name, complete


def load_metric_registry(root: str):
    """Parse the generated registry header into ({name: lineno} or None
    when the header is missing)."""
    path = os.path.join(root, METRIC_REGISTRY_PATH)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    entries = {}
    for lineno, line in enumerate(lines, start=1):
        m = re.match(r'\s*"([^"]+)",?\s*$', line)
        if m:
            entries.setdefault(m.group(1), lineno)
    return entries


def scan_metric_names(stripped_lines, raw_lines, relpath, registry, used_names):
    """Per-file half of metric-name-registry: every literal must be a
    registered complete name. Composed names (incomplete literals) fire
    unconditionally — the pragma on the call site is the registry entry
    for the name *shape*."""
    findings = []
    for lineno, name, complete in iter_metric_literals(stripped_lines, raw_lines):
        if complete:
            used_names.add(name)
        if registry is None:
            findings.append(Finding(
                METRIC_NAME_REGISTRY.id, relpath, lineno,
                f'"{name}": registry header missing; run --write-metric-registry'))
        elif not complete:
            findings.append(Finding(
                METRIC_NAME_REGISTRY.id, relpath, lineno,
                f'"{name}...": dynamically composed name (pragma required)'))
        elif name not in registry:
            findings.append(Finding(
                METRIC_NAME_REGISTRY.id, relpath, lineno,
                f'"{name}" not in metric_names.gen.hpp; run --write-metric-registry'))
    return findings


def check_metric_registry_unused(registry, used_names):
    """Registry entries no call site names anymore: the generated header
    is stale in the shrinking direction."""
    if registry is None:
        return []
    return [Finding(METRIC_NAME_REGISTRY.id, METRIC_REGISTRY_PATH, lineno,
                    f'"{name}" registered but never used; run --write-metric-registry')
            for name, lineno in sorted(registry.items(), key=lambda kv: kv[1])
            if name not in used_names]


def collect_metric_names(root: str):
    """All complete metric/zone name literals in rule scope, for the
    generator."""
    names = set()
    for relpath in iter_source_files(root):
        if not METRIC_NAME_REGISTRY.in_scope(relpath):
            continue
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        stripped_lines = strip_comments_and_strings(raw).splitlines()
        for _lineno, name, complete in iter_metric_literals(stripped_lines, raw_lines):
            if complete:
                names.add(name)
    return sorted(names)


def render_metric_registry(root: str) -> str:
    names = collect_metric_names(root)
    lines = [
        "// GENERATED by tools/lint/tmwia_lint.py --write-metric-registry — do not edit.",
        "//",
        "// The canonical inventory of statically-named metrics and profile",
        "// zones. The metric-name-registry lint rule keeps call sites and this",
        "// table in lockstep: a name used but not listed here (or listed but no",
        "// longer used) is a finding, so dashboards and alert rules keyed on",
        "// these strings cannot silently drift from the code. Dynamically",
        "// composed names (per-tenant counters, per-guess zones) are excluded",
        "// by construction and carry allow pragmas at their call sites.",
        "#pragma once",
        "",
        "#include <array>",
        "#include <string_view>",
        "",
        "namespace tmwia::obs {",
        "",
        f"inline constexpr std::array<std::string_view, {len(names)}> kMetricNames = {{",
    ]
    lines += [f'    "{n}",' for n in names]
    lines += [
        "};",
        "",
        "}  // namespace tmwia::obs",
        "",
    ]
    return "\n".join(lines)


def public_headers(root: str):
    """Every header under src/*/include, repo-relative, sorted."""
    out = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        if os.sep + "include" + os.sep not in dirpath + os.sep:
            continue
        for f in filenames:
            if f.endswith(".hpp"):
                out.append(os.path.relpath(os.path.join(dirpath, f), root))
    return sorted(out)


def include_name(header_relpath: str) -> str:
    """src/core/include/tmwia/core/select.hpp -> tmwia/core/select.hpp"""
    parts = header_relpath.split(os.sep)
    idx = parts.index("include")
    return "/".join(parts[idx + 1:])


HEADER_TEST_PATH = os.path.join("tests", "header_selfcontained_test.cpp")


def render_header_test(root: str) -> str:
    headers = [include_name(h) for h in public_headers(root)]
    lines = [
        "// GENERATED by tools/lint/tmwia_lint.py --write-header-test — do not edit.",
        "//",
        "// Include-hygiene backstop: every public header of the library is",
        "// included here, so a header that stops compiling (or starts relying",
        "// on an include-order accident elsewhere in the tree) breaks this TU.",
        "// The per-header self-containment proof is tmwia_lint.py",
        "// --compile-checks, which compiles each header as its own TU; this",
        "// generated test keeps the whole set compiling together in every",
        "// build configuration, including sanitizer trees.",
        "#include <gtest/gtest.h>",
        "",
    ]
    lines += [f'#include "{h}"' for h in headers]
    lines += [
        "",
        "TEST(HeaderSelfContained, AllPublicHeadersCompileTogether) {",
        f"  SUCCEED() << \"{len(headers)} public headers included\";",
        "}",
        "",
    ]
    return "\n".join(lines)


def check_header_test(root: str):
    want = render_header_test(root)
    path = os.path.join(root, HEADER_TEST_PATH)
    try:
        with open(path, encoding="utf-8") as f:
            have = f.read()
    except OSError:
        return [Finding(HEADER_TEST_STALE.id, HEADER_TEST_PATH, 1, "file missing")]
    if have != want:
        return [Finding(HEADER_TEST_STALE.id, HEADER_TEST_PATH, 1,
                        "contents differ from generator output")]
    return []


def compile_check_headers(root: str, quiet: bool):
    """Compile each public header as its own TU (self-containment)."""
    gxx = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if gxx is None:
        return [Finding(HEADER_SELFCONTAINED.id, "src", 1, "no C++ compiler found")], 0
    include_dirs = sorted(
        {os.path.join(root, "src", d, "include")
         for d in os.listdir(os.path.join(root, "src"))
         if os.path.isdir(os.path.join(root, "src", d, "include"))}
    )
    args_base = [gxx, "-std=c++20", "-fsyntax-only", "-x", "c++", "-"]
    for d in include_dirs:
        args_base.insert(2, "-I" + d)
    findings = []
    checked = 0
    for header in public_headers(root):
        checked += 1
        if not quiet:
            print(f"  [self-contained] {header}", file=sys.stderr)
        proc = subprocess.run(
            args_base,
            input=f'#include "{include_name(header)}"\n',
            capture_output=True,
            text=True,
            cwd=root,
            check=False,
        )
        if proc.returncode != 0:
            first_error = next(
                (ln for ln in proc.stderr.splitlines() if "error" in ln), "compile failed"
            )
            findings.append(Finding(HEADER_SELFCONTAINED.id, header, 1, first_error[:200]))
    return findings, checked


def iter_source_files(root: str):
    for d in CODE_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [x for x in dirnames if x not in ("build", "__pycache__")]
            for f in sorted(filenames):
                if f.endswith(CPP_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def lint(root: str, compile_checks: bool, quiet: bool):
    findings = []
    allowed = []
    compiled = {r.id: [re.compile(p) for p in r.patterns] for r in RULES}
    files_scanned = 0
    metric_registry = load_metric_registry(root)
    metric_usage = set()

    for relpath in iter_source_files(root):
        files_scanned += 1
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        file_allows, line_allows, pragmas = parse_pragmas(raw_lines)
        stripped = strip_comments_and_strings(raw)
        stripped_lines = stripped.splitlines()

        def emit(f: Finding):
            pragma = file_allows.get(f.rule) or line_allows.get(f.line, {}).get(f.rule)
            if pragma is not None:
                pragma.used = True
                f.allowed = True
                allowed.append(f)
            else:
                findings.append(f)

        # Match against stripped lines (no comment/string noise), except
        # #include directives, whose path the stripper blanks as a string
        # literal — those are matched raw so include-based rules can fire.
        scan_lines = [
            raw if raw.lstrip().startswith("#include") else stripped_line
            for raw, stripped_line in zip(raw_lines, stripped_lines)
        ]
        for rule in RULES:
            if not rule.in_scope(relpath):
                continue
            for lineno, line in enumerate(scan_lines, start=1):
                for pat in compiled[rule.id]:
                    if pat.search(line):
                        emit(Finding(rule.id, relpath, lineno,
                                     raw_lines[lineno - 1].strip()[:160]))
                        break

        if PER_BIT_LOOP.in_scope(relpath):
            for f in scan_per_bit_loops(stripped_lines, raw_lines, relpath):
                emit(f)

        if NONCONST_GLOBAL.in_scope(relpath):
            for f in scan_nonconst_globals(stripped, relpath):
                emit(f)

        if NAKED_MUTEX.in_scope(relpath):
            for f in scan_naked_mutexes(stripped, raw, raw_lines, relpath):
                emit(f)

        if EXPLICIT_ATOMIC_ORDERING.in_scope(relpath):
            for f in scan_atomic_orderings(stripped_lines, raw_lines, relpath):
                emit(f)

        if METRIC_NAME_REGISTRY.in_scope(relpath):
            for f in scan_metric_names(stripped_lines, raw_lines, relpath,
                                       metric_registry, metric_usage):
                emit(f)

        if relpath.endswith((".hpp", ".hh", ".h")) and "#pragma once" not in raw:
            emit(Finding(HEADER_PRAGMA_ONCE.id, relpath, 1, "missing #pragma once"))

        # Last, after every rule has had its chance to consume a pragma:
        # a suppression that suppressed nothing is itself a finding. It
        # goes through emit() too, so a deliberate keeper can carry
        # allow(stale-pragma); unused allow(stale-pragma) pragmas are not
        # re-reported (no self-referential fixpoint).
        for pragma in pragmas:
            if pragma.rule != STALE_PRAGMA.id and not pragma.used:
                emit(Finding(STALE_PRAGMA.id, relpath, pragma.line,
                             f"allow{'-file' if pragma.kind == 'file' else ''}"
                             f"({pragma.rule}) suppresses nothing"))

    # Cross-file half of metric-name-registry: entries nobody names.
    # No pragma channel here — the fix is always regeneration.
    for f in check_metric_registry_unused(metric_registry, metric_usage):
        findings.append(f)

    for f in check_header_test(root):
        findings.append(f)

    headers_checked = 0
    if compile_checks:
        cc_findings, headers_checked = compile_check_headers(root, quiet)
        findings.extend(cc_findings)

    return findings, allowed, files_scanned, headers_checked


# Fixture tree for --self-test: every new-generation rule has a firing,
# a clean, and a suppressed variant. The files are never compiled — they
# only need to look right to the scanners.
SELF_TEST_FIXTURES = {
    "src/fix/naked_fire.hpp": (
        "#pragma once\n"
        "#include <mutex>\n"
        "struct NakedFire {\n"
        "  std::mutex mu_;\n"
        "  int x = 0;\n"
        "};\n"
    ),
    "src/fix/naked_ok.hpp": (
        "#pragma once\n"
        '#include "tmwia/support/thread_annotations.hpp"\n'
        "struct NakedOk {\n"
        "  tmwia::support::Mutex mu_;\n"
        "  int x TMWIA_GUARDED_BY(mu_) = 0;\n"
        "};\n"
    ),
    "src/fix/naked_allowed.hpp": (
        "#pragma once\n"
        "#include <mutex>\n"
        "struct NakedAllowed {\n"
        "  // tmwia-lint: allow(naked-mutex) fixture: externally synchronized\n"
        "  std::mutex mu_;\n"
        "};\n"
    ),
    "src/fix/manual_lock.cpp": (
        "#include <mutex>\n"
        "void fixture_manual_lock(std::mutex& m) {\n"
        "  m.lock();\n"
        "  m.unlock();\n"
        "  // tmwia-lint: allow(manual-lock) fixture: sanctioned call\n"
        "  m.lock();\n"
        "}\n"
    ),
    "src/fix/atomic.cpp": (
        "#include <atomic>\n"
        "void fixture_atomics(std::atomic<int>& x) {\n"
        "  x.load();\n"
        "  x.store(1);\n"
        "  x.fetch_add(2);\n"
        "  (void)x.load(std::memory_order_acquire);\n"
        "  x.store(3,\n"
        "          std::memory_order_release);\n"
        "}\n"
    ),
    "src/fix/owner_write.cpp": (
        "void fixture_owner_write() {\n"
        "  obs_registry()\n"
        "      .attach_thread();\n"
        "}\n"
    ),
    "src/obs/owner_ok.cpp": (
        "void fixture_owner_ok() {\n"
        "  local_shard().slot_add(0, 1);\n"
        "}\n"
    ),
    "src/serve/fix_serve_fire.cpp": (
        "void fixture_serve_fire(void* m) {\n"
        "  touch<PreferenceMatrix>(m);\n"
        "  read(inst_.matrix);\n"
        "}\n"
    ),
    "src/serve/fix_serve_allowed.cpp": (
        "// tmwia-lint: allow-file(serve-matrix-isolation) fixture: harness side\n"
        "void fixture_serve_allowed(PreferenceMatrix* m) {}\n"
    ),
    "src/fix/stale.cpp": (
        "// tmwia-lint: allow-file(unseeded-rng) fixture: nothing random here\n"
        "void fixture_stale() {}\n"
    ),
    # metric-name-registry: a fixture registry header declares fix.known
    # (used), fix.unused (stale entry); a rogue literal, a clean literal
    # and a pragma'd composed name exercise the three verdicts.
    "src/obs/include/tmwia/obs/metric_names.gen.hpp": (
        "// GENERATED fixture registry\n"
        "#pragma once\n"
        "inline constexpr const char* kMetricNames[] = {\n"
        '    "fix.known",\n'
        '    "fix.unused",\n'
        "};\n"
    ),
    "src/fix/metric_fire.cpp": (
        "void fixture_metric_fire(void* reg) {\n"
        '  registry_of(reg).counter("fix.rogue");\n'
        "}\n"
    ),
    "src/fix/metric_ok.cpp": (
        "void fixture_metric_ok(void* reg) {\n"
        '  registry_of(reg).counter("fix.known");\n'
        "}\n"
    ),
    "src/fix/metric_allowed.cpp": (
        "void fixture_metric_allowed(void* reg, const char* t) {\n"
        "  // tmwia-lint: allow(metric-name-registry) fixture: per-tenant name\n"
        '  registry_of(reg).counter("fix." + std::string(t));\n'
        "}\n"
    ),
    "src/fix/stale_allowed.cpp": (
        "// tmwia-lint: allow(stale-pragma) fixture: historical marker\n"
        "// tmwia-lint: allow(manual-lock) fixture: nothing locks\n"
        "void fixture_stale_allowed() {}\n"
    ),
}

SELF_TEST_FINDINGS = {
    ("naked-mutex", "src/fix/naked_fire.hpp", 4),
    ("manual-lock", "src/fix/manual_lock.cpp", 3),
    ("manual-lock", "src/fix/manual_lock.cpp", 4),
    ("explicit-atomic-ordering", "src/fix/atomic.cpp", 3),
    ("explicit-atomic-ordering", "src/fix/atomic.cpp", 4),
    ("explicit-atomic-ordering", "src/fix/atomic.cpp", 5),
    ("owner-write", "src/fix/owner_write.cpp", 3),
    ("serve-matrix-isolation", "src/serve/fix_serve_fire.cpp", 2),
    ("serve-matrix-isolation", "src/serve/fix_serve_fire.cpp", 3),
    ("stale-pragma", "src/fix/stale.cpp", 1),
    ("metric-name-registry", "src/fix/metric_fire.cpp", 2),
    ("metric-name-registry", METRIC_REGISTRY_PATH, 5),
    # The fixture tree has no tests/header_selfcontained_test.cpp, so the
    # generated header test is reported missing — expected, not part of
    # the rules under test.
    ("header-test-stale", HEADER_TEST_PATH, 1),
}

SELF_TEST_ALLOWED = {
    ("naked-mutex", "src/fix/naked_allowed.hpp", 5),
    ("manual-lock", "src/fix/manual_lock.cpp", 6),
    ("stale-pragma", "src/fix/stale_allowed.cpp", 2),
    ("serve-matrix-isolation", "src/serve/fix_serve_allowed.cpp", 2),
    ("metric-name-registry", "src/fix/metric_allowed.cpp", 3),
}


def self_test() -> int:
    """Exercise the concurrency/pragma rules against the built-in
    fixtures; exact-set comparison so a rule that over- or under-fires
    both fail."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="tmwia-lint-selftest-") as td:
        for rel, content in SELF_TEST_FIXTURES.items():
            path = os.path.join(td, rel.replace("/", os.sep))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        findings, allowed, _files, _headers = lint(td, compile_checks=False, quiet=True)

    ok = True
    for label, got, want in (
        ("finding", {(f.rule, f.file, f.line) for f in findings}, SELF_TEST_FINDINGS),
        ("allowance", {(f.rule, f.file, f.line) for f in allowed}, SELF_TEST_ALLOWED),
    ):
        for item in sorted(want - got):
            ok = False
            print(f"self-test: missing {label}: {item}", file=sys.stderr)
        for item in sorted(got - want):
            ok = False
            print(f"self-test: unexpected {label}: {item}", file=sys.stderr)
    print(f"tmwia-lint --self-test: {len(SELF_TEST_FIXTURES)} fixtures, "
          f"{'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None, help="repo root (default: two dirs up)")
    ap.add_argument("--json", default=None, help="write machine-readable report here")
    ap.add_argument("--compile-checks", action="store_true",
                    help="also compile every public header stand-alone")
    ap.add_argument("--write-header-test", action="store_true",
                    help=f"regenerate {HEADER_TEST_PATH} and exit")
    ap.add_argument("--write-metric-registry", action="store_true",
                    help=f"regenerate {METRIC_REGISTRY_PATH} and exit")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint rules against built-in fixtures and exit")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"tmwia-lint: {root} does not look like the repo root", file=sys.stderr)
        return 2

    if args.list_rules:
        for r in ALL_RULES:
            print(f"{r.id:24} {r.description}")
        return 0

    if args.write_header_test:
        path = os.path.join(root, HEADER_TEST_PATH)
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_header_test(root))
        print(f"tmwia-lint: wrote {HEADER_TEST_PATH}")
        return 0

    if args.write_metric_registry:
        path = os.path.join(root, METRIC_REGISTRY_PATH)
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_metric_registry(root))
        print(f"tmwia-lint: wrote {METRIC_REGISTRY_PATH}")
        return 0

    findings, allowed, files_scanned, headers_checked = lint(
        root, args.compile_checks, args.quiet)

    by_rule = {r.id: {"description": r.description, "findings": [], "allowed": []}
               for r in ALL_RULES}
    for f in findings:
        by_rule[f.rule]["findings"].append(f.as_json())
    for f in allowed:
        by_rule[f.rule]["allowed"].append(f.as_json())

    report = {
        "tool": "tmwia-lint",
        "version": 1,
        "root": os.path.abspath(root),
        "files_scanned": files_scanned,
        "headers_compile_checked": headers_checked,
        "finding_count": len(findings),
        "allowed_count": len(allowed),
        "ok": not findings,
        "rules": by_rule,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    if not args.quiet:
        for f in sorted(findings, key=lambda x: (x.rule, x.file, x.line)):
            print(f"{f.file}:{f.line}: [{f.rule}] {f.text}")
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"tmwia-lint: {files_scanned} files, {status}, "
              f"{len(allowed)} explicit allowance(s)", file=sys.stderr)
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
