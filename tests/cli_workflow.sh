#!/usr/bin/env bash
# End-to-end smoke test of the tmwia_cli workflow: gen -> info -> run
# (two algorithms) -> eval. Usage: cli_workflow.sh <path-to-tmwia_cli>
#
# CLI output always goes to a file first and is grepped from there:
# piping straight into `grep -q` lets grep exit at the first match and
# kill the CLI with SIGPIPE mid-write, which `set -o pipefail` then
# reports as a (flaky) failure.
set -euo pipefail

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" gen --kind=planted --n=128 --m=128 --alpha=0.5 --radius=1 --seed=4 \
       --out="$DIR/world.tmw" >"$DIR/gen.txt"
grep -q "wrote planted instance" "$DIR/gen.txt"

"$CLI" info --in="$DIR/world.tmw" >"$DIR/info.txt"
grep -q "players: 128" "$DIR/info.txt"
grep -q "communities: 1" "$DIR/info.txt"

"$CLI" run --in="$DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=5 \
       --out="$DIR/est.txt" >"$DIR/run.txt"
grep -q "rounds" "$DIR/run.txt"
"$CLI" eval --in="$DIR/world.tmw" --outputs="$DIR/est.txt" >"$DIR/eval.txt"
grep -q "overall mean error" "$DIR/eval.txt"

# Solo must be exact: zero overall error.
"$CLI" run --in="$DIR/world.tmw" --algo=solo --seed=6 --out="$DIR/solo.txt" >/dev/null
"$CLI" eval --in="$DIR/world.tmw" --outputs="$DIR/solo.txt" >"$DIR/solo_eval.txt"
grep -q "overall mean error: 0 /" "$DIR/solo_eval.txt"

# A faulty run degrades gracefully and prints its fault report.
"$CLI" run --in="$DIR/world.tmw" --algo=small --d=2 --alpha=0.5 --seed=7 \
       --faults=seed=3,crash=0.1@40-200,probe=0.05,retry=3 \
       --out="$DIR/faulty.txt" >"$DIR/faulty_run.txt"
grep -q "fault report:" "$DIR/faulty_run.txt"
grep -q "probe_failures:" "$DIR/faulty_run.txt"

# Observability: --metrics emits a machine-readable snapshot, and a
# fixed seed gives byte-identical artifacts across --threads.
"$CLI" run --in="$DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=9 \
       --threads=1 --metrics="$DIR/m1.json" --out="$DIR/obs1.txt" >/dev/null
"$CLI" run --in="$DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=9 \
       --threads=4 --metrics="$DIR/m4.json" --out="$DIR/obs4.txt" >/dev/null
cmp "$DIR/m1.json" "$DIR/m4.json"
cmp "$DIR/obs1.txt" "$DIR/obs4.txt"
if command -v jq >/dev/null 2>&1; then
  jq -e '.counters and .gauges and .histograms' "$DIR/m1.json" >/dev/null
fi

# Flight recorder: --record logs the run as an event stream, and a
# fixed seed gives a byte-identical log across --threads.
"$CLI" run --in="$DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=9 \
       --threads=1 --record="$DIR/r1.jsonl" --report="$DIR/report1.json" \
       --out="$DIR/rec1.txt" >/dev/null
"$CLI" run --in="$DIR/world.tmw" --algo=unknown_d --alpha=0.5 --seed=9 \
       --threads=4 --record="$DIR/r4.jsonl" --report="$DIR/report4.json" \
       --out="$DIR/rec4.txt" >/dev/null
cmp "$DIR/r1.jsonl" "$DIR/r4.jsonl"
cmp "$DIR/report1.json" "$DIR/report4.json"
if command -v jq >/dev/null 2>&1; then
  # Well-formed JSONL, opened by run_begin, closed by run_end, every
  # record carrying the logical clock.
  jq -es 'length > 2 and .[0].ev == "run_begin" and .[-1].ev == "run_end"
          and all(has("t"))' "$DIR/r1.jsonl" >/dev/null
  jq -e '.algo == "unknown_d" and (.timeline | length > 0)' \
    "$DIR/report1.json" >/dev/null
fi

# inspect renders the timeline; replay reconstructs the billboard from
# the log and cross-checks it against the recorded totals.
"$CLI" inspect --log="$DIR/r1.jsonl" >"$DIR/inspect.txt"
grep -q "run timeline" "$DIR/inspect.txt"
grep -q "probe cost:" "$DIR/inspect.txt"
"$CLI" replay --log="$DIR/r1.jsonl" >"$DIR/replay.txt"
grep -q "replay clean" "$DIR/replay.txt"

# Same for a faulted scheduler-free run: record, then replay, with the
# fault overlay visible in inspect.
"$CLI" run --in="$DIR/world.tmw" --algo=small --d=2 --alpha=0.5 --seed=7 \
       --faults=seed=3,crash=0.1@40-200,probe=0.05,retry=3 \
       --record="$DIR/rf.jsonl" --out=/dev/null >/dev/null
"$CLI" inspect --log="$DIR/rf.jsonl" >"$DIR/inspect_f.txt"
grep -q "fault overlay" "$DIR/inspect_f.txt"
"$CLI" replay --log="$DIR/rf.jsonl" >"$DIR/replay_f.txt"
grep -q "replay clean" "$DIR/replay_f.txt"

# Generated --help comes from the flag table; unknown flags are rejected.
"$CLI" --help >"$DIR/help.txt"
grep -q -- "--metrics=FILE" "$DIR/help.txt"
grep -q -- "--faults=SPEC" "$DIR/help.txt"
if "$CLI" run --in="$DIR/world.tmw" --algo=solo --bogus=1 \
     --out=/dev/null 2>"$DIR/badflag.txt"; then
  echo "expected failure for unknown flag" >&2
  exit 1
fi
grep -q "unknown flag --bogus" "$DIR/badflag.txt"

# Bad inputs fail cleanly.
if "$CLI" run --in="$DIR/world.tmw" --algo=nonsense --out=/dev/null 2>/dev/null; then
  echo "expected failure for unknown algo" >&2
  exit 1
fi
if "$CLI" info --in="$DIR/missing.tmw" 2>/dev/null; then
  echo "expected failure for missing file" >&2
  exit 1
fi
if "$CLI" run --in="$DIR/world.tmw" --algo=solo --faults=warp=0.5 \
     --out=/dev/null 2>/dev/null; then
  echo "expected failure for malformed fault plan" >&2
  exit 1
fi

# --- Exit codes are a documented contract (run `tmwia_cli --help`). ---
# 0 ok, 1 runtime error, 2 usage, 3 audit failure, 4 degraded run,
# 5 corrupt checkpoint. Assert each one.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "expected exit $want, got $got: $*" >&2
    exit 1
  fi
}

expect_exit 2 "$CLI"
expect_exit 2 "$CLI" frobnicate
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --algo=solo --bogus=1 --out=/dev/null
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --algo=nonsense --out=/dev/null
expect_exit 1 "$CLI" info --in="$DIR/missing.tmw"

# 2 also for numbers that do not parse whole: integer flags are counts,
# ids or seeds (digits only, below 2^64), doubles are finite, and alpha
# lies in (0, 1]. A bad alpha is refused before the first probe, so the
# run's log stays empty.
"$CLI" gen --kind=planted --n=256 --m=256 --alpha=0.5 --radius=1 --seed=3 \
       --out="$DIR/w256.tmw" >/dev/null
expect_exit 2 "$CLI" gen --kind=planted --n=8x --out="$DIR/bad.tmw"
expect_exit 2 "$CLI" gen --kind=planted --n=99999999999999999999 --out="$DIR/bad.tmw"
expect_exit 2 "$CLI" gen --kind=planted --seed=-1 --out="$DIR/bad.tmw"
# An instance without players or objects is refused before anything is
# generated or written: no command could load it.
for kind in planted multi adversarial markov lowrank uniform; do
  for flag in n m; do
    expect_exit 2 "$CLI" gen --kind="$kind" --"$flag"=0 --out="$DIR/empty.tmw"
    test ! -e "$DIR/empty.tmw"
  done
done
"$CLI" gen --kind=uniform --m=0 --out="$DIR/empty.tmw" >/dev/null 2>"$DIR/empty.err" || true
grep -q -- "--m must be at least 1" "$DIR/empty.err"
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --alpha=0.5abc --out=/dev/null
expect_exit 2 "$CLI" run --in="$DIR/w256.tmw" --threads=-1 --out=/dev/null
# --threads is at most 256 (engine::kMaxThreads). A larger count is a
# usage error before any worker starts, not an allocation failure or
# thousands of threads.
expect_exit 2 "$CLI" run --in="$DIR/w256.tmw" --threads=1099511627776 --out=/dev/null
expect_exit 2 "$CLI" run --in="$DIR/w256.tmw" --threads=18446744073709551615 --out=/dev/null
expect_exit 2 "$CLI" run --in="$DIR/w256.tmw" --threads=257 --out=/dev/null
expect_exit 2 "$CLI" serve --requests=/dev/null --threads=257 --out=/dev/null
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --alpha=nan --out=/dev/null
# The same for the numbers inside --faults and --slo specs: a NaN rate
# is out of [0,1], and an SLO count must be a whole number (a NaN
# window once reached an integer cast and sized the watchdog's ring).
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --algo=solo --faults=seed=1,probe=nan \
       --out=/dev/null
"$CLI" run --in="$DIR/world.tmw" --algo=solo --faults=seed=1,probe=nan --out=/dev/null \
       >/dev/null 2>"$DIR/nan_rate.err" || true
grep -q "rate out of \[0,1\] in 'probe=nan'" "$DIR/nan_rate.err"
expect_exit 2 "$CLI" serve --requests=/dev/null --slo=p99_us=5000,window=nan --out=/dev/null
"$CLI" serve --requests=/dev/null --slo=p99_us=5000,window=nan --out=/dev/null \
       >/dev/null 2>"$DIR/nan_window.err" || true
grep -q "'window' needs a whole number" "$DIR/nan_window.err"
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --algo=zero --alpha=1.5 --out=/dev/null
expect_exit 2 "$CLI" run --in="$DIR/world.tmw" --alpha=0 --record="$DIR/alpha0.jsonl" \
       --out=/dev/null
test ! -s "$DIR/alpha0.jsonl"
printf '{"op":"add_tenant","tenant":"z","kind":"uniform","n":8,"m":8,"alpha":0}\n' \
  >"$DIR/alpha0_req.jsonl"
expect_exit 2 "$CLI" serve --requests="$DIR/alpha0_req.jsonl" --out="$DIR/alpha0_resp.jsonl"
grep -q '"ok":false' "$DIR/alpha0_resp.jsonl"
grep -q 'alpha must be in (0, 1\]' "$DIR/alpha0_resp.jsonl"
# add_tenant checks the shape it would generate before allocating: an
# "n" above 2^22 players (serve::kMaxTenantPlayers; 2^32 is no player
# id at all), or n*m above 2^32 cells (serve::kMaxTenantCells), is
# refused like a bad alpha.
printf '{"op":"add_tenant","tenant":"z","kind":"uniform","n":4294967296,"m":1}\n' \
  >"$DIR/n32_req.jsonl"
expect_exit 2 "$CLI" serve --requests="$DIR/n32_req.jsonl" --out="$DIR/n32_resp.jsonl"
grep -q '"ok":false' "$DIR/n32_resp.jsonl"
grep -q "field 'n' is above the maximum of 4194304 players" "$DIR/n32_resp.jsonl"
printf '{"op":"add_tenant","tenant":"z","kind":"planted","n":262144,"m":262144}\n' \
  >"$DIR/cells_req.jsonl"
expect_exit 2 "$CLI" serve --requests="$DIR/cells_req.jsonl" --out="$DIR/cells_resp.jsonl"
grep -q '"ok":false' "$DIR/cells_resp.jsonl"
grep -q "fields 'n' and 'm' ask for more than 4294967296 matrix cells" "$DIR/cells_resp.jsonl"

# 1 also for malformed instance and outputs files: a community id that
# is no player (out of range, or beyond 32 bits), a center of the wrong
# width, or a header count the rows do not back. Each must fail with
# the loader's "serialize:" error, not a crash or an allocation failure.
expect_serialize_error() {
  local got=0
  "$@" >/dev/null 2>"$DIR/serialize_err.txt" || got=$?
  if [ "$got" -ne 1 ] || ! grep -q "serialize:" "$DIR/serialize_err.txt"; then
    echo "expected exit 1 with a serialize: error, got $got: $*" >&2
    exit 1
  fi
}
bad_instance() {
  printf 'TMWIA/1 text\n2 3\n010\n110\ncommunities 1\ncommunity %s\ncenter %s\n' "$2" "$3" \
    >"$DIR/$1.tmw"
}
bad_instance member_range "0 70000000" 010
bad_instance member_wide "0 4294967297" 010
bad_instance center_width "0 1" 0101111
for bad in member_range member_wide center_width; do
  expect_serialize_error "$CLI" info --in="$DIR/$bad.tmw"
  expect_serialize_error "$CLI" eval --in="$DIR/$bad.tmw" --outputs="$DIR/est.txt"
done
printf 'TMWIA/1 text\n4000000000 1\n' >"$DIR/rows_header.tmw"
expect_serialize_error "$CLI" info --in="$DIR/rows_header.tmw"
printf 'outputs 4000000000\n' >"$DIR/outputs_header.txt"
expect_serialize_error "$CLI" eval --in="$DIR/world.tmw" --outputs="$DIR/outputs_header.txt"
# So are a row, center or output row with a character other than 0/1,
# and an output row of the wrong width.
printf 'TMWIA/1 text\n2 3\n010\n0x1\ncommunities 0\n' >"$DIR/row_char.tmw"
bad_instance center_char "0 1" 0z1
for bad in row_char center_char; do
  expect_serialize_error "$CLI" info --in="$DIR/$bad.tmw"
done
bad_instance small "0 1" 010
printf 'outputs 2\n010\n01x\n' >"$DIR/outputs_char.txt"
printf 'outputs 2\n010\n0101\n' >"$DIR/outputs_wide.txt"
for bad in outputs_char outputs_wide; do
  expect_serialize_error "$CLI" eval --in="$DIR/small.tmw" --outputs="$DIR/$bad.txt"
done
grep -q "output row 1 has 4 bits, instance has 3 objects" "$DIR/serialize_err.txt"

# 1 for a flight log that does not parse: every field parses whole (no
# aliasing past 2^32, no sign, no text read as 0), keys appear once,
# nothing follows the record, and numbers are finite. inspect and
# replay both name the offending line.
expect_recorder_error() {
  local got=0
  "$@" >/dev/null 2>"$DIR/recorder_err.txt" || got=$?
  if [ "$got" -ne 1 ] || ! grep -q "recorder log line 2:" "$DIR/recorder_err.txt"; then
    echo "expected exit 1 with a recorder log line 2: error, got $got: $*" >&2
    exit 1
  fi
}
RB='{"t":0,"ev":"run_begin","a":2,"b":2,"x":0.5,"label":"forged"}'
i=0
for forged in '"p":4294967296,"o":0' '"p":"x","o":0' '"p":-4294967296,"o":0' \
              '"p":1,"p":0,"o":0' '"p":0,"o":0,"a":1,"b":0}x' \
              '"p":0,"o":0,"a":1,"b":0,"x":1e999'; do
  i=$((i + 1))
  case "$forged" in
    *'}x') line="{\"t\":1,\"ev\":\"probe\",$forged" ;;
    *) line="{\"t\":1,\"ev\":\"probe\",$forged}" ;;
  esac
  printf '%s\n%s\n{"t":2,"ev":"run_end","a":1,"b":1,"label":"forged"}\n' "$RB" "$line" \
    >"$DIR/forged$i.jsonl"
  expect_recorder_error "$CLI" replay --log="$DIR/forged$i.jsonl"
  expect_recorder_error "$CLI" inspect --log="$DIR/forged$i.jsonl"
done

# 1 also for a log whose events leave the shape their run declares (a
# probe by player 7, a post of object 70000 in a 2x2 run) or lack the
# ids replay reads (a post with no player), while a header alone
# allocates nothing: replay sizes its shadow from the ids the events
# use, so a 4e9 x 4e9 declaration with no events is clean.
printf '%s\n{"t":1,"ev":"probe","p":7,"o":0,"a":1,"b":0}\n{"t":2,"ev":"run_end","a":1,"b":1,"label":"forged"}\n' \
  "$RB" >"$DIR/outside_player.jsonl"
expect_exit 1 "$CLI" replay --log="$DIR/outside_player.jsonl"
printf '%s\n{"t":1,"ev":"round_begin","round":0}\n{"t":2,"ev":"probe","p":1,"o":1,"a":1,"b":0}\n{"t":3,"ev":"post","round":0,"p":1,"o":1}\n{"t":4,"ev":"post","round":0,"p":1,"o":70000}\n{"t":5,"ev":"round_end","round":0,"a":2,"b":2}\n{"t":6,"ev":"run_end","a":1,"b":1,"label":"forged"}\n' \
  "$RB" >"$DIR/outside_object.jsonl"
expect_exit 1 "$CLI" replay --log="$DIR/outside_object.jsonl"
printf '%s\n{"t":1,"ev":"round_begin","round":0}\n{"t":2,"ev":"post","round":0,"o":1}\n{"t":3,"ev":"round_end","round":0,"a":2,"b":1}\n{"t":4,"ev":"run_end","a":0,"b":0,"label":"forged"}\n' \
  "$RB" >"$DIR/missing_player.jsonl"
expect_exit 1 "$CLI" replay --log="$DIR/missing_player.jsonl"
printf '{"t":0,"ev":"run_begin","a":4000000000,"b":4000000000,"x":0.5,"label":"huge"}\n{"t":1,"ev":"run_end","a":0,"b":0,"label":"huge"}\n' \
  >"$DIR/huge_header.jsonl"
"$CLI" replay --log="$DIR/huge_header.jsonl" >"$DIR/replay_huge.txt"
grep -q "replay clean" "$DIR/replay_huge.txt"

# 3: replay audit failure. Tamper the recorded run_end totals; the
# replayer's cross-check must notice.
sed '$s/"a":[0-9][0-9]*/"a":999999999/' "$DIR/r1.jsonl" >"$DIR/r1_tampered.jsonl"
expect_exit 3 "$CLI" replay --log="$DIR/r1_tampered.jsonl"

# --- Durability: checkpoint, SIGKILL, resume, byte-identical splice. ---
"$CLI" gen --kind=planted --n=64 --m=128 --alpha=0.5 --radius=1 --seed=7 \
       --out="$DIR/w2.tmw" >/dev/null

# Reference: the uninterrupted run, checkpointing on the same cadence
# (and under the same fault seed) so its event stream is comparable.
"$CLI" run --in="$DIR/w2.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
       --checkpoint-every=50 --faults=seed=1 --record="$DIR/ref.jsonl" \
       --report="$DIR/ref_report.json" --out="$DIR/ref_out.txt" >/dev/null
grep -q '"label":"ckpt"' "$DIR/ref.jsonl"

# Same run, but the fault plan SIGKILLs the process mid-phase (137 =
# 128 + SIGKILL). The cadence guarantees a resumable file exists.
expect_exit 137 "$CLI" run --in="$DIR/w2.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
       --checkpoint="$DIR/ck.tmw" --checkpoint-every=50 \
       --faults=seed=1,kill=2000 --record="$DIR/dead.jsonl" --out=/dev/null
test -s "$DIR/ck.tmw"

# Resume picks up from the snapshot and finishes the run.
"$CLI" resume --checkpoint="$DIR/ck.tmw" --in="$DIR/w2.tmw" \
       --record="$DIR/res.jsonl" --report="$DIR/res_report.json" \
       --out="$DIR/res_out.txt" >"$DIR/resume.txt"
grep -q "resumed from checkpoint seq" "$DIR/resume.txt"

# Tentpole property: outputs and report match the uninterrupted run,
# and the reference log equals [prefix up to the snapshot's ckpt note]
# + [resumed log] byte for byte.
cmp "$DIR/ref_out.txt" "$DIR/res_out.txt"
cmp "$DIR/ref_report.json" "$DIR/res_report.json"
SEQ="$(sed -n 's/.*resumed from checkpoint seq \([0-9][0-9]*\).*/\1/p' "$DIR/resume.txt")"
CUT="$(grep -n "\"label\":\"ckpt\"" "$DIR/ref.jsonl" | awk -F: -v seq="$SEQ" \
  '$0 ~ "\"a\":" seq "," {print $1; exit}')"
test -n "$CUT"
head -n "$CUT" "$DIR/ref.jsonl" >"$DIR/spliced.jsonl"
cat "$DIR/res.jsonl" >>"$DIR/spliced.jsonl"
cmp "$DIR/ref.jsonl" "$DIR/spliced.jsonl"

# 5: a corrupt checkpoint is rejected whole — truncated or bit-flipped,
# never a partial load.
head -c 100 "$DIR/ck.tmw" >"$DIR/ck_trunc.tmw"
expect_exit 5 "$CLI" resume --checkpoint="$DIR/ck_trunc.tmw" --in="$DIR/w2.tmw" --out=/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$DIR/ck.tmw" "$DIR/ck_flip.tmw" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[len(data) // 2] ^= 0xFF
open(sys.argv[2], 'wb').write(bytes(data))
EOF
  expect_exit 5 "$CLI" resume --checkpoint="$DIR/ck_flip.tmw" --in="$DIR/w2.tmw" --out=/dev/null
  # A container of another format version fails typed at its header
  # (format 1 carried a serialized report this reader would misread).
  python3 - "$DIR/ck.tmw" "$DIR/ck_v1.tmw" <<'EOF'
import sys, zlib
data = bytearray(open(sys.argv[1], 'rb').read())
data[8:12] = (1).to_bytes(4, 'little')
data[-4:] = zlib.crc32(bytes(data[:-4])).to_bytes(4, 'little')
open(sys.argv[2], 'wb').write(bytes(data))
EOF
  expect_exit 5 "$CLI" resume --checkpoint="$DIR/ck_v1.tmw" --in="$DIR/w2.tmw" --out=/dev/null
  "$CLI" resume --checkpoint="$DIR/ck_v1.tmw" --in="$DIR/w2.tmw" --out=/dev/null \
         >/dev/null 2>"$DIR/ck_v1.err" || true
  grep -q "unsupported version 1" "$DIR/ck_v1.err"
  # Rewrite one section of ck.tmw, and both CRCs, into $DIR/$1: $2 names
  # the section, $3 is a Python expression giving the new payload from
  # `payload`. harness(payload, key, value) sets one harness entry.
  rewrite_section() {
    python3 - "$DIR/ck.tmw" "$DIR/$1" "$2" "$3" <<'EOF'
import struct, sys, zlib
def strings(payload):  # a u64 pair count, then u64-length-prefixed strings
    pos, out = 8, []
    for _ in range(2 * struct.unpack_from('<Q', payload)[0]):
        n = struct.unpack_from('<Q', payload, pos)[0]
        out.append(payload[pos + 8:pos + 8 + n])
        pos += 8 + n
    return out
def harness(payload, key, value):
    kv = strings(payload)
    pairs = dict(zip(kv[0::2], kv[1::2]))
    pairs[key.encode()] = value.encode()
    return struct.pack('<Q', len(pairs)) + b''.join(
        struct.pack('<Q', len(s)) + s for k in sorted(pairs) for s in (k, pairs[k]))
body = open(sys.argv[1], 'rb').read()[:-4]
out = bytearray(body[:16])
pos = 16
for _ in range(struct.unpack_from('<I', body, 12)[0]):
    nlen = struct.unpack_from('<I', body, pos)[0]
    name = body[pos + 4:pos + 4 + nlen]
    plen = struct.unpack_from('<Q', body, pos + 4 + nlen)[0]
    pos += 4 + nlen + 12
    payload = body[pos:pos + plen]
    pos += plen
    if name == sys.argv[3].encode():
        payload = eval(sys.argv[4])
    out += struct.pack('<I', nlen) + name + struct.pack('<QI', len(payload), zlib.crc32(payload))
    out += payload
out += struct.pack('<I', zlib.crc32(bytes(out)))
open(sys.argv[2], 'wb').write(bytes(out))
EOF
  }
  # An oracle ledger with one entry fewer than the run's players is
  # corrupt too (invocations: a u64 count, then one u64 per player).
  rewrite_section ck_players.tmw oracle \
    "struct.pack('<Q', struct.unpack_from('<Q', payload)[0] - 1) + payload[16:]"
  expect_exit 5 "$CLI" resume --checkpoint="$DIR/ck_players.tmw" --in="$DIR/w2.tmw" --out=/dev/null
  "$CLI" resume --checkpoint="$DIR/ck_players.tmw" --in="$DIR/w2.tmw" --out=/dev/null \
         >/dev/null 2>"$DIR/ck_players.err" || true
  grep -q "oracle invocations" "$DIR/ck_players.err"
  # So is a harness value `run` could not have written: each fails
  # typed, naming its key, and resume writes no estimates.
  for bad in checkpoint_every=-1 checkpoint_every=x checkpoint_every= profile=bogus \
             faults=warp=0.5; do
    key="${bad%%=*}"
    rewrite_section ck_harness.tmw harness "harness(payload, '$key', '${bad#*=}')"
    rm -f "$DIR/harness_out.txt"
    expect_exit 5 "$CLI" resume --checkpoint="$DIR/ck_harness.tmw" --in="$DIR/w2.tmw" \
           --out="$DIR/harness_out.txt"
    "$CLI" resume --checkpoint="$DIR/ck_harness.tmw" --in="$DIR/w2.tmw" --out=/dev/null \
           >/dev/null 2>"$DIR/ck_harness.err" || true
    grep -q "checkpoint harness: $key=" "$DIR/ck_harness.err"
    test ! -e "$DIR/harness_out.txt"
  done
  # A rewritten harness that `run` could have written still resumes.
  rewrite_section ck_harness.tmw harness "harness(payload, 'profile', 'practical')"
  "$CLI" resume --checkpoint="$DIR/ck_harness.tmw" --in="$DIR/w2.tmw" \
         --out="$DIR/harness_out.txt" >/dev/null
  cmp "$DIR/ref_out.txt" "$DIR/harness_out.txt"
fi
# --checkpoint without a cadence is a usage error, not a silent no-op.
expect_exit 2 "$CLI" run --in="$DIR/w2.tmw" --algo=unknown_d --alpha=0.5 --seed=11 \
       --checkpoint="$DIR/nope.tmw" --out=/dev/null
# So are checkpoint flags on an algo that cuts no checkpoints: the run
# stops, naming the algo, before writing a checkpoint or estimates.
for algo in zero small large anytime mimic solo; do
  rm -f "$DIR/nope.tmw" "$DIR/nope_out.txt"
  expect_exit 2 "$CLI" run --in="$DIR/w2.tmw" --algo="$algo" --alpha=0.5 --seed=11 \
         --checkpoint="$DIR/nope.tmw" --checkpoint-every=50 --out="$DIR/nope_out.txt"
  "$CLI" run --in="$DIR/w2.tmw" --algo="$algo" --checkpoint-every=50 --out=/dev/null \
         >/dev/null 2>"$DIR/nope.err" || true
  grep -q -- "--algo=$algo" "$DIR/nope.err"
  test ! -e "$DIR/nope.tmw"
  test ! -e "$DIR/nope_out.txt"
done
# --report on a baseline, which returns no RunReport, is refused the
# same way: before a sink opens its file (no flight log, no report) or
# the algo runs (no estimates).
for algo in solo knn svd; do
  rm -f "$DIR/nope.json" "$DIR/nope.jsonl" "$DIR/nope_out.txt"
  expect_exit 2 "$CLI" run --in="$DIR/w2.tmw" --algo="$algo" --seed=11 \
         --report="$DIR/nope.json" --record="$DIR/nope.jsonl" --out="$DIR/nope_out.txt"
  "$CLI" run --in="$DIR/w2.tmw" --algo="$algo" --report="$DIR/nope.json" --out=/dev/null \
         >/dev/null 2>"$DIR/nope.err" || true
  grep -q -- "--algo=$algo" "$DIR/nope.err"
  test ! -e "$DIR/nope.json"
  test ! -e "$DIR/nope.jsonl"
  test ! -e "$DIR/nope_out.txt"
done
# So is an unknown algo: no sink opens its file and nothing runs.
rm -f "$DIR/nope.json" "$DIR/nope.jsonl" "$DIR/nope_metrics.json" "$DIR/nope_prof.json" \
      "$DIR/nope_out.txt"
expect_exit 2 "$CLI" run --in="$DIR/w2.tmw" --algo=bogus --seed=11 --report="$DIR/nope.json" \
       --record="$DIR/nope.jsonl" --metrics="$DIR/nope_metrics.json" \
       --prof="$DIR/nope_prof.json" --out="$DIR/nope_out.txt"
"$CLI" run --in="$DIR/w2.tmw" --algo=bogus --out=/dev/null >/dev/null 2>"$DIR/nope.err" || true
grep -q -- "unknown --algo=bogus" "$DIR/nope.err"
for f in nope.json nope.jsonl nope_metrics.json nope_prof.json nope_out.txt; do
  test ! -e "$DIR/$f"
done
# --profile names one of the two parameter sets; anything else is a
# usage error, not a silent practical run.
expect_exit 2 "$CLI" run --in="$DIR/w2.tmw" --algo=zero --profile=bogus --out=/dev/null

# --- Supervised (mimic) runs: healthy = 0, quarantine degrades to 4. ---
"$CLI" run --in="$DIR/w2.tmw" --algo=mimic --seed=5 --phase-rounds=900,900 \
       --out=/dev/null --report="$DIR/mimic.json" >"$DIR/mimic.txt"
grep -q "supervisor:" "$DIR/mimic.txt"
expect_exit 4 "$CLI" run --in="$DIR/w2.tmw" --algo=mimic --seed=5 --faults=seed=2 \
       --sabotage=3 --phase-rounds=200 --report="$DIR/mimic_deg.json" --out=/dev/null
if command -v jq >/dev/null 2>&1; then
  jq -e '.degraded.quarantined == [3]' "$DIR/mimic_deg.json" >/dev/null
fi

# --- metric keys: a board registers its counters when it is built, so
# runs that post and runs that never touch the board (an all-leaf small
# run) list the same billboard.* keys, at zero where nothing was counted.
"$CLI" gen --kind=multi --n=256 --m=256 --alpha=0.25 --radius=8 --seed=3 \
       --out="$DIR/multi.tmw" >/dev/null
"$CLI" run --in="$DIR/multi.tmw" --algo=small --d=2 --alpha=0.25 --seed=5 \
       --metrics="$DIR/keys_small.json" --out=/dev/null >/dev/null
"$CLI" run --in="$DIR/multi.tmw" --algo=unknown_d --alpha=0.25 --seed=5 \
       --metrics="$DIR/keys_unknown.json" --out=/dev/null >/dev/null
if command -v jq >/dev/null 2>&1; then
  board_keys='[.counters | keys[] | select(startswith("billboard."))]'
  jq -c "$board_keys" "$DIR/keys_small.json" >"$DIR/keys_small.txt"
  jq -c "$board_keys" "$DIR/keys_unknown.json" >"$DIR/keys_unknown.txt"
  cmp "$DIR/keys_small.txt" "$DIR/keys_unknown.txt"
  jq -e '.counters | .["billboard.posts"] == 0 and .["billboard.reads"] == 0
         and .["billboard.tally_cache_hits"] == 0' "$DIR/keys_small.json" >/dev/null
  jq -e '.counters["billboard.posts"] > 0' "$DIR/keys_unknown.json" >/dev/null
fi

# --- serve: the oracle gauges are the session's, summed over tenants. ---
# --metrics and --report must agree on probes and rounds, not show one
# tenant's totals beside the sum.
printf '%s\n' \
  '{"op":"add_tenant","tenant":"a","n":64,"m":96,"kind":"planted","seed":7}' \
  '{"op":"add_tenant","tenant":"b","n":32,"m":48,"kind":"planted","seed":9}' \
  '{"op":"refine","tenant":"a","epochs":1}' \
  '{"op":"refine","tenant":"b","epochs":1}' \
  >"$DIR/two_req.jsonl"
"$CLI" serve --requests="$DIR/two_req.jsonl" --out="$DIR/two_resp.jsonl" \
       --metrics="$DIR/two_metrics.json" --report="$DIR/two_report.json"
if command -v jq >/dev/null 2>&1; then
  jq -e -n --slurpfile m "$DIR/two_metrics.json" --slurpfile r "$DIR/two_report.json" \
    '$m[0].gauges["oracle.total_invocations"] == $r[0].total_probes
     and $m[0].gauges["oracle.max_invocations"] == $r[0].rounds
     and $r[0].total_probes > 0' >/dev/null
fi

echo "cli workflow OK"
