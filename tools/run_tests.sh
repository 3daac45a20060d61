#!/usr/bin/env bash
# Build and run the test suite under several configurations:
#
#   lint       tools/lint/tmwia_lint.py over src/, bench/, tests/ with
#              per-header self-containment compile checks; writes
#              build/LINT_REPORT.json and jq-checks it (no findings, and
#              the no-product-caller rule present). Adds clang-tidy via
#              -DTMWIA_LINT=ON when a clang-tidy binary exists.
#   link       default: the link scan behind no-product-caller — build
#              every product executable (tmwia_cli, bench/e*, examples/,
#              and the perfbench driver through perfbench/CMakeLists.txt)
#              at -O0 with one section per function, inline functions
#              kept and --gc-sections, write the tmwia:: functions the
#              libtmwia_*.a archives define and no product binary links
#              (constructors, destructors, operators and lambda bodies
#              left out) to build-link/UNLINKED.txt, and lint with that
#              set; jq-checks build-link/LINT_REPORT.json
#              (build-link/, build-link-perfbench/)
#   plain      full suite, default flags plus -Werror (build/)
#   asan       full suite, ASan+UBSan               (build-asan/)
#   tsan       obs/engine/scheduler/Zero Radius suites, the oracle,
#              billboard, ProtocolAuditor and Coalesce suites, the concurrent
#              Large Radius group tests and the Small Radius schedule
#              tests under ThreadSanitizer — exercises the sharded
#              MetricsRegistry, the fork-join pool (callers and workers
#              claiming chunks of one job, two callers at once), pool
#              workers sharing one Zero Radius plan, group tasks probing
#              through forked ledgers into one auditor and posting under
#              channels of their own, Small Radius's three passes and
#              Coalesce's ball fill on the pool (build-tsan/)
#   audit      opt-in: just the ProtocolAuditor suite (runtime
#              billboard-invariant checks; also part of plain)
#   bench-json opt-in: run every e* bench binary and jq-check that each
#              writes parseable BENCH_<name>.json
#   bench-history opt-in: run every e* bench with TMWIA_BENCH_DIR set to
#              build/bench-history, append the run to
#              build/bench-history/BENCH_HISTORY.jsonl via
#              tools/bench/bench_history.py, and --check it against the
#              best prior run (regression budgets in that script)
#   kernel-parity opt-in: the distance-kernel determinism contract —
#              run the kernels parity suite under ASan+UBSan, then
#              drive one CLI run per backend this CPU supports and
#              require byte-identical flight-recorder logs, estimate
#              files, and RunReports (modulo the reports' "kernel"
#              provenance field, which names the backend by design);
#              then unrecorded unknown_d and large runs on an instance
#              with >= 4 Large Radius groups, whose groups run as pool
#              tasks, and unrecorded small --d=2/--d=8 runs, whose
#              iterations run as three pool passes, at --threads 1, 2
#              and 4, requiring byte-identical estimates, reports,
#              metrics, profiles and checkpoints, each report's
#              profile equal to its run's --prof tree; a recorded copy
#              of each run at --threads 4 (serial groups, the per-part
#              schedule) must match their estimates, metrics and
#              profiles, and its billboard.posts counter must equal
#              its flight log's vector_post records
#   thread-safety opt-in: the static concurrency gate — tmwia_lint.py
#              --self-test, then the full lint with a jq check that the
#              concurrency rules (naked-mutex, manual-lock,
#              explicit-atomic-ordering, owner-write, stale-pragma) are
#              present in build/LINT_REPORT.json with zero unexplained
#              findings, then (when a clang++ exists) a full build with
#              -DTMWIA_THREAD_SAFETY=ON so Clang's -Werror=thread-safety
#              checks every capability annotation   (build-tsa/)
#   serve      opt-in: the serving-layer contract — spawn
#              `tmwia_cli serve` on the committed sample request stream
#              (tools/serve_requests.sample.jsonl), jq-check every
#              response line's shape, and verify the exit-code contract:
#              0 for a clean stream, 2 when a request fails to parse or
#              dispatch, 4 when a tenant ends the stream degraded
#   telemetry  default: the observability contract — replay the sample
#              serve stream with --telemetry/--slo/--prof and jq-check
#              the JSONL record kinds, the Prometheus exposition, the
#              RunReport profile/slo sections, and the stats summary;
#              require the report's profile to be the --prof tree and
#              the sample's --prof to be byte-identical at --threads 1
#              and 4; force an SLO breach with a sabotaged tenant (exit
#              6, structured alert record); and require the --prof
#              attribution tree of a run to be byte-identical across
#              --threads 1/4 and across kernel backends
#   kill-resume opt-in: durability drill — checkpoint an e8-scale
#              unknown_d run, SIGKILL it mid-phase via the kill-at-round
#              fault, resume from the snapshot, and require the
#              flight-recorder log spliced at the snapshot round to be
#              byte-identical to an uninterrupted run. Runs under the
#              plain and ASan builds, with --threads 1 and 4.
#
# Usage:
#   tools/run_tests.sh [--plain-only|--sanitize-only|--tsan-only]
#                      [--lint-only] [--link-scan] [--audit] [--bench-json]
#                      [--bench-history] [--kernel-parity]
#                      [--thread-safety] [--kill-resume] [--serve]
#                      [--telemetry] [-j N]
#
# Default runs lint + link + plain + asan + tsan + telemetry; the
# *-only modes drop the link and telemetry stages (pass --link-scan or
# --telemetry to add them back). All requested stages must pass.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_LINT=1
RUN_LINK=1
RUN_PLAIN=1
RUN_SAN=1
RUN_TSAN=1
RUN_AUDIT=0
RUN_BENCH_JSON=0
RUN_BENCH_HISTORY=0
RUN_KERNEL_PARITY=0
RUN_THREAD_SAFETY=0
RUN_KILL_RESUME=0
RUN_SERVE=0
RUN_TELEMETRY=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --plain-only) RUN_SAN=0; RUN_TSAN=0; RUN_LINT=0; RUN_LINK=0; RUN_TELEMETRY=0 ;;
    --sanitize-only) RUN_PLAIN=0; RUN_TSAN=0; RUN_LINT=0; RUN_LINK=0; RUN_TELEMETRY=0 ;;
    --tsan-only) RUN_PLAIN=0; RUN_SAN=0; RUN_LINT=0; RUN_LINK=0; RUN_TELEMETRY=0 ;;
    --lint-only) RUN_PLAIN=0; RUN_SAN=0; RUN_TSAN=0; RUN_LINT=1; RUN_LINK=0; RUN_TELEMETRY=0 ;;
    --link-scan) RUN_LINK=1 ;;
    --audit) RUN_AUDIT=1 ;;
    --bench-json) RUN_BENCH_JSON=1 ;;
    --bench-history) RUN_BENCH_HISTORY=1 ;;
    --kernel-parity) RUN_KERNEL_PARITY=1 ;;
    --thread-safety) RUN_THREAD_SAFETY=1 ;;
    --kill-resume) RUN_KILL_RESUME=1 ;;
    --serve) RUN_SERVE=1 ;;
    --telemetry) RUN_TELEMETRY=1 ;;
    -j) JOBS="$2"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$ROOT" "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

if [[ $RUN_LINT -eq 1 ]]; then
  echo "== lint =="
  mkdir -p "$ROOT/build"
  python3 "$ROOT/tools/lint/tmwia_lint.py" --root "$ROOT" --compile-checks -q \
    --json "$ROOT/build/LINT_REPORT.json"
  if command -v jq >/dev/null; then
    # The report must be well-formed, agree with the exit status, and
    # carry the no-product-caller rule (every public function has a
    # caller outside tests/).
    jq -e '.tool == "tmwia-lint" and .ok == true and .finding_count == 0
           and .rules["no-product-caller"] != null' \
      "$ROOT/build/LINT_REPORT.json" >/dev/null \
      || { echo "LINT_REPORT.json malformed, reports findings or lacks no-product-caller" >&2; exit 1; }
  fi
  if command -v clang-tidy >/dev/null; then
    echo "-- clang-tidy (via TMWIA_LINT=ON rebuild)"
    cmake -B "$ROOT/build-tidy" -S "$ROOT" -DTMWIA_LINT=ON
    cmake --build "$ROOT/build-tidy" -j "$JOBS"
  else
    echo "-- clang-tidy not found; skipped (tmwia_lint.py rules still enforced)"
  fi
fi

if [[ $RUN_LINK -eq 1 ]]; then
  echo "== link scan (functions no product binary links) =="
  command -v nm >/dev/null || { echo "nm required for the link scan" >&2; exit 2; }
  link_start=$SECONDS
  # -fkeep-inline-functions emits every header-inline function in each
  # library object, so an inline accessor nothing links shows up too;
  # --gc-sections then drops from each binary every function section
  # nothing it runs can reach.
  link_flags=(-DCMAKE_BUILD_TYPE=Debug
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections -fkeep-inline-functions"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  products=(tmwia_cli)
  bins=("$ROOT/build-link/tools/tmwia_cli" "$ROOT/build-link-perfbench/perfbench_driver")
  for f in "$ROOT"/bench/e*.cpp "$ROOT"/examples/*.cpp; do
    name="$(basename "$f" .cpp)"
    products+=("$name")
    bins+=("$ROOT/build-link/$(basename "$(dirname "$f")")/$name")
  done
  cmake -B "$ROOT/build-link" -S "$ROOT" "${link_flags[@]}" >/dev/null
  cmake --build "$ROOT/build-link" -j "$JOBS" --target "${products[@]}"
  cmake -B "$ROOT/build-link-perfbench" -S "$ROOT/perfbench" "${link_flags[@]}" >/dev/null
  cmake --build "$ROOT/build-link-perfbench" -j "$JOBS" --target perfbench_driver
  # Demangled tmwia:: functions the given files define. Template
  # functions demangle with their return type first and do not match;
  # the name scan covers them.
  tmwia_functions() {
    nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* [TtWw] //p' \
      | grep -E '^tmwia::((\(anonymous namespace\)|[A-Za-z_][A-Za-z0-9_]*(<[^()]*>)?)::)*[A-Za-z_][A-Za-z0-9_]*(\[abi:[a-z0-9]+\])?\(' \
      | sed 's/ \[clone [^]]*\]$//' | LC_ALL=C sort -u
  }
  tmwia_functions "${bins[@]}" >"$ROOT/build-link/linked.txt"
  tmwia_functions "$ROOT"/build-link/src/*/libtmwia_*.a \
    | LC_ALL=C comm -23 - "$ROOT/build-link/linked.txt" \
    | { grep -Ev '\{lambda|::operator|::~|::([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::\1\(' || true; } \
    >"$ROOT/build-link/UNLINKED.txt"
  echo "-- $(wc -l <"$ROOT/build-link/UNLINKED.txt") library functions no product binary links"
  python3 "$ROOT/tools/lint/tmwia_lint.py" --root "$ROOT" \
    --unlinked "$ROOT/build-link/UNLINKED.txt" --json "$ROOT/build-link/LINT_REPORT.json"
  if command -v jq >/dev/null; then
    jq -e '.ok == true and .finding_count == 0 and (.unlinked_functions | type == "number")
           and .rules["no-product-caller"] != null' \
      "$ROOT/build-link/LINT_REPORT.json" >/dev/null \
      || { echo "link scan: LINT_REPORT.json malformed or reports findings" >&2; exit 1; }
  fi
  echo "-- link scan took $((SECONDS - link_start)) s"
fi

if [[ $RUN_PLAIN -eq 1 ]]; then
  echo "== plain =="
  # Warnings fail the default (RelWithDebInfo, -O2) build, so a new one
  # cannot hide among old ones. -Werror stays off for Release builds:
  # at -O3, GCC 12 reports -Wrestrict false positives on
  # `"literal" + std::string&&` in code that is correct.
  run_suite "$ROOT/build" -DTMWIA_WERROR=ON
fi

if [[ $RUN_SAN -eq 1 ]]; then
  echo "== ASan + UBSan =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  run_suite "$ROOT/build-asan" -DTMWIA_SANITIZE=ON
fi

if [[ $RUN_TSAN -eq 1 ]]; then
  echo "== TSan (obs + engine + scheduler + Zero Radius + oracle/billboard/auditor + Large Radius groups + Small Radius passes + Coalesce) =="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DTMWIA_TSAN=ON
  cmake --build "$ROOT/build-tsan" -j "$JOBS" \
    --target test_obs test_profile test_engine test_round_scheduler test_thread_safety test_serve \
    test_zero_radius test_zero_radius_strategy test_billboard test_large_radius \
    test_find_preferences test_small_radius test_protocol_auditor test_coalesce
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
    -R '(Metrics|ShardSet|Obs|Engine|ThreadPool|Parallel|RoundScheduler|Scheduler|ThreadSafety|Serve|Profile|Slo|Telemetry|ZeroRadius|DistributedEquivalence|ProbeOracle|Billboard|ConcurrentGroups|SmallRadiusSchedule|ProtocolAuditor|Coalesce)'
fi

if [[ $RUN_AUDIT -eq 1 ]]; then
  echo "== audit (ProtocolAuditor invariants) =="
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j "$JOBS" --target test_protocol_auditor
  ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" -R 'ProtocolAuditor'
fi

if [[ $RUN_BENCH_JSON -eq 1 ]]; then
  echo "== bench JSON =="
  command -v jq >/dev/null || { echo "jq required for --bench-json" >&2; exit 2; }
  cmake --build "$ROOT/build" -j "$JOBS"
  BENCH_DIR="$(mktemp -d)"
  trap 'rm -rf "$BENCH_DIR"' EXIT
  for b in "$ROOT"/build/bench/e*; do
    [[ -x "$b" ]] || continue
    name="$(basename "$b")"
    echo "-- $name"
    # Benches are experiments: a FAIL verdict is reported, not fatal
    # here — this stage checks the reporting contract, not the science.
    (cd "$BENCH_DIR" && "$b" > "$name.log" 2>&1) || true
    jq -e '.bench and (.ok | type == "boolean") and (.wall_ms | type == "number")' \
      "$BENCH_DIR/BENCH_$name.json" >/dev/null \
      || { echo "invalid or missing BENCH_$name.json" >&2; exit 1; }
  done
fi

if [[ $RUN_BENCH_HISTORY -eq 1 ]]; then
  echo "== bench history =="
  cmake --build "$ROOT/build" -j "$JOBS"
  HIST_DIR="$ROOT/build/bench-history"
  mkdir -p "$HIST_DIR"
  # Fresh build tree: start the trajectory from the committed baseline
  # so the very first local run is already checked against a real prior
  # (the kernel-era numbers), not trivially green.
  if [[ ! -f "$HIST_DIR/BENCH_HISTORY.jsonl" \
        && -f "$ROOT/tools/bench/BENCH_HISTORY.baseline.jsonl" ]]; then
    cp "$ROOT/tools/bench/BENCH_HISTORY.baseline.jsonl" "$HIST_DIR/BENCH_HISTORY.jsonl"
    echo "-- seeded baseline from tools/bench/BENCH_HISTORY.baseline.jsonl"
  fi
  for b in "$ROOT"/build/bench/e*; do
    [[ -x "$b" ]] || continue
    name="$(basename "$b")"
    echo "-- $name"
    # A FAIL verdict is data for the trajectory, not fatal here; the
    # history check flags a green->red flip as a regression instead.
    (cd "$HIST_DIR" && TMWIA_BENCH_DIR="$HIST_DIR" "$b" > "$name.log" 2>&1) || true
  done
  python3 "$ROOT/tools/bench/bench_history.py" --bench-dir "$HIST_DIR" --check
fi

if [[ $RUN_KERNEL_PARITY -eq 1 ]]; then
  echo "== kernel parity =="
  command -v jq >/dev/null || { echo "jq required for --kernel-parity" >&2; exit 2; }
  # The determinism contract (bits/kernels.hpp): every backend computes
  # the same integers, so switching backends must not change a single
  # observable byte of a run. First the randomized parity suite under
  # ASan+UBSan, then an end-to-end CLI cross-check.
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DTMWIA_SANITIZE=ON >/dev/null
  cmake --build "$ROOT/build-asan" -j "$JOBS" --target test_kernels tmwia_cli
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS" \
    -R 'Kernels'

  CLI="$ROOT/build-asan/tools/tmwia_cli"
  PAR_DIR="$(mktemp -d)"
  "$CLI" gen --kind=planted --n=96 --m=128 --alpha=0.5 --radius=1 --seed=7 \
    --out="$PAR_DIR/world.tmw" >/dev/null
  ref=""
  for k in scalar avx2 avx512; do
    rc=0
    "$CLI" run --in="$PAR_DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
      --kernel="$k" --record="$PAR_DIR/$k.jsonl" --report="$PAR_DIR/$k.json" \
      --out="$PAR_DIR/$k.txt" >/dev/null 2>"$PAR_DIR/$k.err" || rc=$?
    if [[ $rc -eq 2 ]] && grep -q "not supported on this CPU" "$PAR_DIR/$k.err"; then
      echo "-- $k: not supported on this CPU; skipped"
      continue
    fi
    if [[ $rc -ne 0 ]]; then
      cat "$PAR_DIR/$k.err" >&2
      echo "kernel parity: --kernel=$k run failed (rc=$rc)" >&2
      rm -rf "$PAR_DIR"
      exit 1
    fi
    # The RunReport names its backend on purpose; normalize that one
    # field before demanding byte equality.
    sed 's/"kernel":"[a-z0-9]*"/"kernel":"_"/' "$PAR_DIR/$k.json" \
      >"$PAR_DIR/$k.normalized.json"
    if [[ -z "$ref" ]]; then
      ref="$k"
      echo "-- $k: reference"
      continue
    fi
    cmp "$PAR_DIR/$ref.jsonl" "$PAR_DIR/$k.jsonl"
    cmp "$PAR_DIR/$ref.txt" "$PAR_DIR/$k.txt"
    cmp "$PAR_DIR/$ref.normalized.json" "$PAR_DIR/$k.normalized.json"
    echo "-- $k: flight log, estimates, and report match $ref"
  done

  # A flight recorder keeps Large Radius groups serial, and every Small
  # Radius iteration on its per-part schedule, so the runs above never
  # take the concurrent paths. These do: no --record, and at n = 256
  # unknown_d reaches 4, 8 and 16 groups (d = 32, 64, 128), --d=64
  # gives 8, and small --d=2 and --d=8 run every iteration as three
  # pool passes (each part is one Zero Radius leaf).
  "$CLI" gen --kind=multi --n=256 --m=256 --alpha=0.25 --radius=8 --seed=3 \
    --out="$PAR_DIR/groups.tmw" >/dev/null
  for spec in unknown_d large:64 small:2 small:8; do
    algo="${spec%%:*}"
    name="${spec/:/.d}"
    for t in 1 2 4; do
      run="$PAR_DIR/$name.t$t"
      files=(txt normalized.json metrics.json prof.json stdout)
      if [[ $algo == unknown_d ]]; then
        extra=(--checkpoint="$run.ckpt" --checkpoint-every=2000)
        files+=(ckpt)
      else
        extra=(--d="${spec#*:}")
      fi
      "$CLI" run --in="$PAR_DIR/groups.tmw" --algo="$algo" --alpha=0.25 --seed=5 \
        --threads="$t" "${extra[@]}" --out="$run.txt" --report="$run.json" \
        --metrics="$run.metrics.json" --prof="$run.prof.json" >"$run.stdout"
      sed 's/"kernel":"[a-z0-9]*"/"kernel":"_"/' "$run.json" >"$run.normalized.json"
      # The report's profile is the --prof tree, rendered once the run
      # is over (unknown_d's own zones included).
      cmp <(jq -cS .profile "$run.json") <(jq -cS . "$run.prof.json")
      if [[ $t -ne 1 ]]; then
        for f in "${files[@]}"; do cmp "$PAR_DIR/$name.t1.$f" "$run.$f"; done
        echo "-- $name --threads=$t: every artifact matches --threads=1"
      fi
    done
    # The recorded run keeps the groups serial and every Small Radius
    # iteration on the per-part schedule, where each player runs its own
    # Selects: the schedules must give the same estimates, counters and
    # cost-attribution tree.
    run="$PAR_DIR/$name.rec"
    if [[ $algo == unknown_d ]]; then
      extra=(--checkpoint="$run.ckpt" --checkpoint-every=2000)
    fi
    "$CLI" run --in="$PAR_DIR/groups.tmw" --algo="$algo" --alpha=0.25 --seed=5 \
      --threads=4 "${extra[@]}" --record="$run.jsonl" --out="$run.txt" \
      --metrics="$run.metrics.json" --prof="$run.prof.json" >/dev/null
    for f in txt metrics.json prof.json; do cmp "$PAR_DIR/$name.t4.$f" "$run.$f"; done
    echo "-- $name --record: estimates, metrics and profile match the unrecorded run"
    # The posts counter and the flight log count the same posts: one
    # vector_post record per billboard post. Every board registers its
    # counters when it is built, so the key is there even at 0 (an
    # all-leaf small run posts nothing); a run without it fails here.
    if ! posts="$(jq -e '.counters["billboard.posts"]' "$run.metrics.json")"; then
      echo "kernel parity: $name --record: no billboard.posts counter in its --metrics" >&2
      rm -rf "$PAR_DIR"
      exit 1
    fi
    logged="$(grep -c '"ev":"vector_post"' "$run.jsonl" || true)"
    if [[ "$posts" != "$logged" ]]; then
      echo "kernel parity: $name --record: billboard.posts is $posts," \
        "the flight log has $logged vector_post records" >&2
      rm -rf "$PAR_DIR"
      exit 1
    fi
    echo "-- $name --record: billboard.posts = $posts = vector_post records"
  done
  rm -rf "$PAR_DIR"
fi

if [[ $RUN_THREAD_SAFETY -eq 1 ]]; then
  echo "== thread safety (lint rules + annotation build) =="
  command -v jq >/dev/null || { echo "jq required for --thread-safety" >&2; exit 2; }
  python3 "$ROOT/tools/lint/tmwia_lint.py" --self-test
  mkdir -p "$ROOT/build"
  python3 "$ROOT/tools/lint/tmwia_lint.py" --root "$ROOT" -q \
    --json "$ROOT/build/LINT_REPORT.json"
  for rule in naked-mutex manual-lock explicit-atomic-ordering owner-write stale-pragma; do
    jq -e --arg r "$rule" '.rules[$r] and (.rules[$r].findings | length == 0)' \
      "$ROOT/build/LINT_REPORT.json" >/dev/null \
      || { echo "thread-safety: rule '$rule' missing from LINT_REPORT.json or has unexplained findings" >&2; exit 1; }
    echo "-- $rule: present, 0 unexplained findings"
  done
  if command -v clang++ >/dev/null; then
    echo "-- clang++ -Wthread-safety -Werror=thread-safety build"
    cmake -B "$ROOT/build-tsa" -S "$ROOT" \
      -DCMAKE_CXX_COMPILER=clang++ -DTMWIA_THREAD_SAFETY=ON
    cmake --build "$ROOT/build-tsa" -j "$JOBS"
  else
    echo "-- clang++ not found; annotation compile check skipped (lint rules still enforced)"
  fi
fi

if [[ $RUN_SERVE -eq 1 ]]; then
  echo "== serve (service mode contract) =="
  command -v jq >/dev/null || { echo "jq required for --serve" >&2; exit 2; }
  cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
  cmake --build "$ROOT/build" -j "$JOBS" --target tmwia_cli
  CLI="$ROOT/build/tools/tmwia_cli"
  SERVE_DIR="$(mktemp -d)"

  echo "-- clean stream: sample requests, exit 0, well-formed responses"
  "$CLI" serve --requests="$ROOT/tools/serve_requests.sample.jsonl" \
    --out="$SERVE_DIR/resp.jsonl" --metrics="$SERVE_DIR/metrics.json"
  # Every response line: known op, boolean ok, numeric latency.
  jq -e -s 'length > 0 and all(.[];
      (.op | type == "string") and (.ok | type == "boolean")
      and (.latency_us | type == "number"))' \
    "$SERVE_DIR/resp.jsonl" >/dev/null \
    || { echo "serve: malformed response line(s)" >&2; exit 1; }
  # All sample requests succeed; recommend carries items, estimate a
  # bitstring, stats the published-epoch counters, every view a hash.
  jq -e -s 'all(.[]; .ok)
      and ([.[] | select(.op == "recommend")] | length == 2)
      and all(.[] | select(.op == "recommend"); .items | type == "array")
      and all(.[] | select(.op == "estimate"); .estimate | test("^[01]+$"))
      and all(.[] | select(.op == "stats"); .epochs_published >= 1)
      and all(.[] | select(.epoch != null); .hash | test("^0x[0-9a-f]{16}$"))' \
    "$SERVE_DIR/resp.jsonl" >/dev/null \
    || { echo "serve: response contract violated" >&2; exit 1; }
  jq -e '.counters["serve.requests"] >= 1' "$SERVE_DIR/metrics.json" >/dev/null \
    || { echo "serve: metrics artifact missing serve.requests" >&2; exit 1; }

  echo "-- bad request: exit 2, ok=false response"
  rc=0
  printf '%s\n' '{"op":"recommend","tenant":"ghost","player":0}' \
    | "$CLI" serve --requests=- --out="$SERVE_DIR/bad.jsonl" || rc=$?
  [[ $rc -eq 2 ]] || { echo "serve: expected exit 2 for failed request, got $rc" >&2; exit 1; }
  jq -e '.ok == false and (.error | length > 0)' "$SERVE_DIR/bad.jsonl" >/dev/null \
    || { echo "serve: failed request not reported as ok=false" >&2; exit 1; }
  # A negative epoch count must fail to parse, not wrap to 2^64-1
  # epochs (the timeout turns a regression into a failure, not a hang).
  rc=0
  printf '%s\n' \
    '{"op":"add_tenant","tenant":"t","n":16,"m":32,"kind":"planted","seed":3}' \
    '{"op":"refine","tenant":"t","epochs":-1}' \
    | timeout 60 "$CLI" serve --requests=- --out="$SERVE_DIR/neg.jsonl" || rc=$?
  [[ $rc -eq 2 ]] || { echo "serve: expected exit 2 for epochs=-1, got $rc" >&2; exit 1; }
  jq -e -s '.[-1].ok == false and (.[-1].error | test("epochs"))' "$SERVE_DIR/neg.jsonl" \
    >/dev/null || { echo "serve: epochs=-1 not reported as ok=false" >&2; exit 1; }

  echo "-- degraded tenant: exit 4, responses carry the marker"
  rc=0
  printf '%s\n' \
    '{"op":"add_tenant","tenant":"sab","n":16,"m":32,"kind":"planted","seed":3,"sabotage":true}' \
    '{"op":"refine","tenant":"sab","epochs":1}' \
    '{"op":"recommend","tenant":"sab","player":0,"k":4}' \
    | "$CLI" serve --requests=- --out="$SERVE_DIR/deg.jsonl" || rc=$?
  [[ $rc -eq 4 ]] || { echo "serve: expected exit 4 for degraded tenant, got $rc" >&2; exit 1; }
  jq -e -s 'all(.[]; .ok) and (.[-1].degraded == true) and (.[-1].staleness >= 1)' \
    "$SERVE_DIR/deg.jsonl" >/dev/null \
    || { echo "serve: degraded responses not marked" >&2; exit 1; }

  rm -rf "$SERVE_DIR"
fi

if [[ $RUN_TELEMETRY -eq 1 ]]; then
  echo "== telemetry (profiler + exporter + SLO watchdog) =="
  command -v jq >/dev/null || { echo "jq required for the telemetry stage" >&2; exit 2; }
  cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
  cmake --build "$ROOT/build" -j "$JOBS" --target tmwia_cli
  CLI="$ROOT/build/tools/tmwia_cli"
  TEL_DIR="$(mktemp -d)"

  echo "-- clean stream: JSONL shape, exposition, SLO verdict, exit 0"
  "$CLI" serve --requests="$ROOT/tools/serve_requests.sample.jsonl" \
    --out="$TEL_DIR/resp.jsonl" --telemetry="$TEL_DIR/stream.jsonl" \
    --telemetry-every=2 --slo='degraded=0,window=64' \
    --prof="$TEL_DIR/prof.json" --report="$TEL_DIR/report.json"
  # Every record is a known kind; snapshots carry seq + metrics;
  # exemplars name a tenant and latency; the stream ends with a clean
  # slo_report verdict.
  jq -e -s 'length > 0
      and all(.[]; .kind == "snapshot" or .kind == "exemplar"
          or .kind == "alert" or .kind == "slo_report")
      and ([.[] | select(.kind == "snapshot")] | length >= 1)
      and all(.[] | select(.kind == "snapshot");
          (.seq >= 1) and (.metrics | type == "object"))
      and all(.[] | select(.kind == "exemplar");
          (.tenant | type == "string") and (.latency_us | type == "number"))
      and (.[-1].kind == "slo_report") and (.[-1].report.ok == true)' \
    "$TEL_DIR/stream.jsonl" >/dev/null \
    || { echo "telemetry: malformed stream" >&2; exit 1; }
  grep -q '^tmwia_serve_requests ' "$TEL_DIR/stream.jsonl.prom" \
    || { echo "telemetry: exposition missing tmwia_serve_requests" >&2; exit 1; }
  jq -e '.algo == "serve" and (.profile.name == "root") and (.slo.ok == true)' \
    "$TEL_DIR/report.json" >/dev/null \
    || { echo "telemetry: RunReport missing profile/slo sections" >&2; exit 1; }
  jq -e '.name == "root" and (.children | length >= 1)' "$TEL_DIR/prof.json" >/dev/null \
    || { echo "telemetry: --prof artifact malformed" >&2; exit 1; }

  jq -cS .profile "$TEL_DIR/report.json" | cmp - <(jq -cS . "$TEL_DIR/prof.json") \
    || { echo "telemetry: RunReport profile differs from --prof" >&2; exit 1; }
  # The service deposits into the session's profiler from whichever
  # thread runs the work; the tree must not depend on the pool size.
  for t in 1 4; do
    "$CLI" serve --requests="$ROOT/tools/serve_requests.sample.jsonl" --threads="$t" \
      --out=/dev/null --prof="$TEL_DIR/serve_prof_t$t.json"
  done
  cmp "$TEL_DIR/serve_prof_t1.json" "$TEL_DIR/serve_prof_t4.json"
  echo "-- serve --threads 1/4: attribution trees match"

  echo "-- stats: per-kind summary over the stream"
  "$CLI" stats --telemetry="$TEL_DIR/stream.jsonl" | grep -q 'slo_report=1' \
    || { echo "telemetry: stats summary missing slo_report count" >&2; exit 1; }

  echo "-- forced SLO breach: sabotaged tenant, exit 6, structured alert"
  rc=0
  printf '%s\n' \
    '{"op":"add_tenant","tenant":"sab","n":16,"m":32,"kind":"planted","seed":3,"sabotage":true}' \
    '{"op":"refine","tenant":"sab","epochs":1}' \
    '{"op":"recommend","tenant":"sab","player":0,"k":4}' \
    | "$CLI" serve --requests=- --out="$TEL_DIR/sab.jsonl" \
        --telemetry="$TEL_DIR/sab_stream.jsonl" --telemetry-every=1 \
        --slo='degraded=0,window=8' || rc=$?
  [[ $rc -eq 6 ]] || { echo "telemetry: expected exit 6 for SLO breach, got $rc" >&2; exit 1; }
  jq -e -s '([.[] | select(.kind == "alert" and .objective == "degraded"
          and .observed > .threshold)] | length >= 1)
      and (.[-1].kind == "slo_report") and (.[-1].report.ok == false)' \
    "$TEL_DIR/sab_stream.jsonl" >/dev/null \
    || { echo "telemetry: breach stream missing alert/verdict" >&2; exit 1; }

  echo "-- attribution determinism: --prof bytes across threads and kernels"
  "$CLI" gen --kind=planted --n=64 --m=96 --alpha=0.5 --radius=1 --seed=7 \
    --out="$TEL_DIR/world.tmw" >/dev/null
  for t in 1 4; do
    "$CLI" run --in="$TEL_DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
      --threads="$t" --prof="$TEL_DIR/prof_t$t.json" --out=/dev/null >/dev/null
  done
  cmp "$TEL_DIR/prof_t1.json" "$TEL_DIR/prof_t4.json"
  echo "-- --threads 1/4: attribution trees match"
  ref=""
  for k in scalar avx2 avx512; do
    rc=0
    "$CLI" run --in="$TEL_DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
      --kernel="$k" --prof="$TEL_DIR/prof_$k.json" --out=/dev/null \
      >/dev/null 2>"$TEL_DIR/$k.err" || rc=$?
    if [[ $rc -eq 2 ]] && grep -q "not supported on this CPU" "$TEL_DIR/$k.err"; then
      echo "-- $k: not supported on this CPU; skipped"
      continue
    fi
    if [[ $rc -ne 0 ]]; then
      cat "$TEL_DIR/$k.err" >&2
      echo "telemetry: --kernel=$k profiled run failed (rc=$rc)" >&2
      exit 1
    fi
    if [[ -z "$ref" ]]; then
      ref="$k"
      echo "-- $k: reference"
      continue
    fi
    cmp "$TEL_DIR/prof_$ref.json" "$TEL_DIR/prof_$k.json"
    echo "-- $k: attribution tree matches $ref"
  done
  rm -rf "$TEL_DIR"
fi

if [[ $RUN_KILL_RESUME -eq 1 ]]; then
  echo "== kill/resume determinism =="
  # The e8 (main theorem) scenario via the CLI: unknown_d on a planted
  # instance. One reference run records the full flight-recorder log;
  # a second run with the same seeds is SIGKILLed mid-phase by the
  # kill-at-round fault, resumed from its last checkpoint, and the
  # spliced log must equal the reference byte for byte.
  kill_resume_drill() {
    local cli="$1" threads="$2" label="$3"
    echo "-- $label --threads=$threads"
    local dir
    dir="$(mktemp -d)"
    "$cli" gen --kind=planted --n=64 --m=128 --alpha=0.5 --radius=1 --seed=7 \
      --out="$dir/world.tmw" >/dev/null
    "$cli" run --in="$dir/world.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
      --threads="$threads" --checkpoint-every=50 --faults=seed=1 \
      --record="$dir/ref.jsonl" --report="$dir/ref.json" \
      --out="$dir/ref_out.txt" >/dev/null
    local rc=0
    # The killed run records too: the flight recorder's logical clock
    # (and the truth evaluator's timeline numbers) are part of the
    # checkpointed state a byte-identical resume needs.
    "$cli" run --in="$dir/world.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
      --threads="$threads" --checkpoint="$dir/ck.tmw" --checkpoint-every=50 \
      --faults=seed=1,kill=2000 --record="$dir/dead.jsonl" \
      --out=/dev/null >/dev/null 2>&1 || rc=$?
    if [[ $rc -ne 137 ]]; then
      echo "kill drill: expected SIGKILL exit 137, got $rc" >&2
      rm -rf "$dir"
      return 1
    fi
    "$cli" resume --checkpoint="$dir/ck.tmw" --in="$dir/world.tmw" \
      --threads="$threads" --record="$dir/res.jsonl" --report="$dir/res.json" \
      --out="$dir/res_out.txt" >"$dir/resume.txt"
    local seq cut
    seq="$(sed -n 's/.*resumed from checkpoint seq \([0-9][0-9]*\).*/\1/p' "$dir/resume.txt")"
    cut="$(grep -n '"label":"ckpt"' "$dir/ref.jsonl" \
      | awk -F: -v seq="$seq" '$0 ~ "\"a\":" seq "," {print $1; exit}')"
    if [[ -z "$cut" ]]; then
      echo "kill drill: no ckpt note for seq $seq in reference log" >&2
      rm -rf "$dir"
      return 1
    fi
    head -n "$cut" "$dir/ref.jsonl" >"$dir/spliced.jsonl"
    cat "$dir/res.jsonl" >>"$dir/spliced.jsonl"
    cmp "$dir/ref.jsonl" "$dir/spliced.jsonl"
    cmp "$dir/ref_out.txt" "$dir/res_out.txt"
    cmp "$dir/ref.json" "$dir/res.json"
    rm -rf "$dir"
  }

  cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
  cmake --build "$ROOT/build" -j "$JOBS" --target tmwia_cli
  for t in 1 4; do
    kill_resume_drill "$ROOT/build/tools/tmwia_cli" "$t" plain
  done

  cmake -B "$ROOT/build-asan" -S "$ROOT" -DTMWIA_SANITIZE=ON >/dev/null
  cmake --build "$ROOT/build-asan" -j "$JOBS" --target tmwia_cli
  for t in 1 4; do
    ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    kill_resume_drill "$ROOT/build-asan/tools/tmwia_cli" "$t" asan
  done
fi

echo "all requested suites passed"
