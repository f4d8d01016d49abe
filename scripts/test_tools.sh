#!/bin/sh
# End-to-end CLI test: capture -> report -> disasm -> parallel sweep
# golden diff -> exit-code contract -> corruption/verify/salvage round
# trip. Run by ctest as: test_tools.sh BUILD_DIR [SOURCE_DIR].
set -e
BUILD=$1
SRC=${2:-$(dirname "$0")/..}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Asserts that a command exits with a specific status.
expect_exit() {
    want=$1
    shift
    set +e
    "$@" > "$TMP/out.txt" 2> "$TMP/err.txt"
    got=$?
    set -e
    if [ "$got" != "$want" ]; then
        echo "FAIL: wanted exit $want, got $got: $*" >&2
        cat "$TMP/err.txt" >&2
        exit 1
    fi
}

"$BUILD/tools/atum-capture" --out "$TMP/t.atum" --workloads grep --scale 1 \
    > "$TMP/cap.txt"
grep -q "halted=1" "$TMP/cap.txt"
grep -q 'console: "g"' "$TMP/cap.txt"

"$BUILD/tools/atum-report" "$TMP/t.atum" --head 3 --cache 16:16:1 \
    --flush-on-switch --tlb 32 --working-sets --stack-distance \
    > "$TMP/rep.txt"
grep -q "memory refs:" "$TMP/rep.txt"
grep -q "cache 16K/16B/1w/wb" "$TMP/rep.txt"
grep -q "tlb 32 entries" "$TMP/rep.txt"
grep -q "distinct pages" "$TMP/rep.txt"

# Behaviour lock on the replay models: the full report (cache, TLB,
# working sets, stack distance, per-pid profiles), then the same with
# kernel references filtered out, must match the golden bit for bit.
report_models() {
    "$BUILD/tools/atum-report" "$TMP/t.atum" --cache 16:16:1 \
        --flush-on-switch --tlb 32 --working-sets --stack-distance "$@"
}
{ report_models; report_models --no-kernel; } > "$TMP/golden.txt"
diff -u "$SRC/tests/golden/report_grep.txt" "$TMP/golden.txt"

"$BUILD/tools/atum-disasm" --kernel > "$TMP/dis.txt"
grep -q "k_start:" "$TMP/dis.txt"
grep -q "svpctx" "$TMP/dis.txt"

"$BUILD/tools/atum-disasm" --workload sort > "$TMP/dis2.txt"
grep -q "sobgtr" "$TMP/dis2.txt"

# Parallel sweep must reproduce the checked-in golden table bit for bit
# (the sweep table is deterministic regardless of --jobs).
"$BUILD/tools/atum-report" "$TMP/t.atum" --sweep 16:16:1,64:16:2 --jobs 2 \
    > "$TMP/sweep_full.txt"
sed -n '/^sweep:/,$p' "$TMP/sweep_full.txt" > "$TMP/sweep.txt"
diff -u "$SRC/tests/golden/sweep_16_64.txt" "$TMP/sweep.txt"

# A sweep row with an impossible geometry errors out without killing the
# healthy rows (17K is not a power of two).
"$BUILD/tools/atum-report" "$TMP/t.atum" --sweep 16:16:1,17:16:1 \
    > "$TMP/sweep_bad.txt"
grep -q "16K/16B/1w/wb.*ok" "$TMP/sweep_bad.txt"
grep -q "invalid-argument" "$TMP/sweep_bad.txt"

# One grammar for every model flag: the machine's own 32x2 TB sweeps
# beside a cache, and the model flags apply to every cache job wherever
# they stand on the line.
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/t.atum" \
    --sweep 'tlb:entries=64:ways=2,16:16:1'
grep -q "^tlb 64e .* ok$" "$TMP/out.txt"
grep -q "^16K/16B/1w/wb .* ok$" "$TMP/out.txt"
"$BUILD/tools/atum-report" "$TMP/t.atum" --pid-tags --cache 16:16:1 \
    | grep "^cache " > "$TMP/pid_first.txt"
"$BUILD/tools/atum-report" "$TMP/t.atum" --cache 16:16:1 --pid-tags \
    | grep "^cache " > "$TMP/pid_last.txt"
grep -q "^cache 16K/16B/1w/wb/pid:" "$TMP/pid_first.txt"
cmp "$TMP/pid_first.txt" "$TMP/pid_last.txt"
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/t.atum" --pid-tags \
    --sweep 16:16:1
grep -q "^16K/16B/1w/wb/pid .* ok$" "$TMP/out.txt"

# Exit-code contract: 2 usage, 3 missing input, 4 unrecognized input.
expect_exit 2 "$BUILD/tools/atum-report"
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --no-such-flag
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --sweep 16:16:1,,
# A malformed spec or number, or a bad --cache/--tlb geometry, is a usage
# error found before the trace is read.
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --cache 17:16:1
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --cache 16:16:-1
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --tlb 3
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --jobs abc
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --head -5
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/absent.atum" --cache 17:16:1
# The scan and crosscheck modes run no analysis: a flag they would drop
# is a usage error, as are the crosscheck options without --crosscheck.
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --cache 16:16:1 \
    --stack-distance --verify
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --salvage \
    "$TMP/never.atum" --working-sets
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --tlb 32 --crosscheck
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --verify --crosscheck
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --prefix
expect_exit 2 "$BUILD/tools/atum-report" "$TMP/t.atum" --manifest \
    "$TMP/t.atum.run.json"
expect_exit 2 "$BUILD/tools/atum-disasm" --kernel --mem-mb
expect_exit 2 "$BUILD/tools/atum-disasm" --workload sort --scale 0x2
expect_exit 2 "$BUILD/tools/atum-top" --once "$TMP/absent.jsonl" \
    --interval-ms x
expect_exit 2 "$BUILD/tools/atum-serve" --dir "$TMP/srv" --workers 0x2
expect_exit 2 "$BUILD/tools/atum-submit" --socket "$TMP/s.sock" --id -1 \
    status
expect_exit 2 "$BUILD/tools/atum-capture" --no-such-flag
expect_exit 2 "$BUILD/tools/atum-capture"
expect_exit 2 "$BUILD/tools/atum-capture" --out "$TMP/u.atum" --buffer-kb abc
expect_exit 2 "$BUILD/tools/atum-capture" --out "$TMP/u.atum" --scale -1
expect_exit 3 "$BUILD/tools/atum-report" "$TMP/absent.atum"
expect_exit 3 "$BUILD/tools/atum-capture" --out "$TMP/no/such/dir/t.atum"
printf 'garbage!' > "$TMP/junk.bin"
expect_exit 4 "$BUILD/tools/atum-report" "$TMP/junk.bin"

# An intact capture verifies clean, bit-identically to the golden report
# (byte counts vary with the trace length, so the golden uses a fixed
# 1000-record synthetic container written by trace_container_test).
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/t.atum" --verify
grep -q "status:  intact" "$TMP/out.txt"

# Flip one record byte in the middle of chunk 1. The chunk stream starts
# at offset 32 and each 512-record chunk is 16 + 512*8 = 4112 bytes, so
# offset 32 + 4112 + 16 + 4 is the first record's type byte of chunk 1 --
# guaranteed to break that chunk's CRC.
cp "$TMP/t.atum" "$TMP/bad.atum"
printf '\377' | dd of="$TMP/bad.atum" bs=1 seek=4164 conv=notrunc 2>/dev/null

expect_exit 4 "$BUILD/tools/atum-report" "$TMP/bad.atum"
grep -q "data-loss" "$TMP/err.txt"

expect_exit 4 "$BUILD/tools/atum-report" "$TMP/bad.atum" --verify
grep -q "chunks:  .* 1 bad" "$TMP/out.txt"

# Salvage recovers everything but the poisoned chunk, and the salvaged
# file verifies intact.
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/bad.atum" \
    --salvage "$TMP/fixed.atum"
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/fixed.atum" --verify
grep -q "status:  intact" "$TMP/out.txt"

# The verify report itself is golden-diffed on a deterministic synthetic
# container: 1000 records, 128 per chunk, byte 700 of the file flipped.
"$BUILD/tests/make_golden_trace" "$TMP/synth.atum"
printf '\377' | dd of="$TMP/synth.atum" bs=1 seek=700 conv=notrunc 2>/dev/null
expect_exit 4 "$BUILD/tools/atum-report" "$TMP/synth.atum" --verify
diff -u "$SRC/tests/golden/verify_flip700.txt" "$TMP/out.txt"

# ---------------------------------------------------------------------------
# Kill-and-resume: a capture SIGKILLed mid-run (--kill-after-fills dies
# with _Exit(137): no destructors, no seal -- an honest crash) must be
# continuable from its last checkpoint into a trace byte-identical to an
# uninterrupted capture.

"$BUILD/tools/atum-capture" --out "$TMP/ref.atum" --workloads grep \
    --scale 1 --buffer-kb 16 > "$TMP/ref.txt"
grep -q "halted=1" "$TMP/ref.txt"

expect_exit 137 "$BUILD/tools/atum-capture" --out "$TMP/crash.atum" \
    --workloads grep --scale 1 --buffer-kb 16 \
    --checkpoint "$TMP/crash.ckpt" --checkpoint-every 2 \
    --kill-after-fills 7
latest=$(ls "$TMP"/crash.ckpt.*.atck | sort | tail -n 1)
[ -n "$latest" ] || { echo "FAIL: no checkpoint written before kill" >&2; exit 1; }

"$BUILD/tools/atum-capture" --resume "$latest" > "$TMP/resumed.txt"
grep -q "halted=1" "$TMP/resumed.txt"
cmp "$TMP/ref.atum" "$TMP/crash.atum" || {
    echo "FAIL: resumed trace differs from uninterrupted capture" >&2
    exit 1
}
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/crash.atum" --verify
grep -q "status:  intact" "$TMP/out.txt"

# Spent budget: a capture stopped by --max-instructions takes its final
# checkpoint with 0 instructions left. Resuming it runs no instruction
# and replays only the final drain and seal, so a resumed copy of the
# trace is byte-identical to the original. The continued series stays in
# the checkpoint's own (dotted) directory.
mkdir "$TMP/run.d"
expect_exit 1 "$BUILD/tools/atum-capture" --out "$TMP/run.d/b.atum" \
    --workloads grep --scale 1 --buffer-kb 16 --max-instructions 50000 \
    --checkpoint "$TMP/run.d/b"
latest=$(ls "$TMP"/run.d/b.*.atck | sort | tail -n 1)
cp "$TMP/run.d/b.atum" "$TMP/run.d/c.atum"
expect_exit 1 "$BUILD/tools/atum-capture" --resume "$latest" \
    --out "$TMP/run.d/c.atum"
grep -q "instructions=0 " "$TMP/out.txt"
cmp "$TMP/run.d/b.atum" "$TMP/run.d/c.atum" || {
    echo "FAIL: resuming a spent budget changed the trace" >&2
    exit 1
}
grep -q "checkpoint=$TMP/run.d/b\.[0-9]*\.atck" "$TMP/out.txt"
# A checkpoint renamed out of its series starts one next to the trace,
# never a series named after the directory.
cp "$latest" "$TMP/run.d/latest.atck"
cp "$TMP/run.d/b.atum" "$TMP/run.d/d.atum"
expect_exit 1 "$BUILD/tools/atum-capture" \
    --resume "$TMP/run.d/latest.atck" --out "$TMP/run.d/d.atum"
grep -q "checkpoint=$TMP/run.d/d.atum.ckpt\.[0-9]*\.atck" "$TMP/out.txt"
if ls "$TMP"/run.*.atck > /dev/null 2>&1; then
    echo "FAIL: resumed series left its directory" >&2
    exit 1
fi

# Graceful SIGTERM: the capture stops at a drain boundary, seals the
# trace, writes a final checkpoint, and exits 5 (interrupted, resumable).
"$BUILD/tools/atum-capture" --out "$TMP/sig.atum" --workloads matrix \
    --scale 6 --buffer-kb 16 --checkpoint "$TMP/sig.ckpt" \
    > "$TMP/sig.txt" 2>&1 &
cappid=$!
sleep 1
kill -TERM "$cappid" 2>/dev/null || true
set +e
wait "$cappid"
sig_exit=$?
set -e
if [ "$sig_exit" = 5 ]; then
    grep -q "stopped=signal" "$TMP/sig.txt"
    grep -q "checkpoint=" "$TMP/sig.txt"
    expect_exit 0 "$BUILD/tools/atum-report" "$TMP/sig.atum" --verify
    grep -q "status:  intact" "$TMP/out.txt"
elif [ "$sig_exit" != 0 ]; then
    # Exit 0 means the workload finished before the signal landed (slow
    # host scheduling); anything else is a real failure.
    echo "FAIL: SIGTERM capture exited $sig_exit" >&2
    cat "$TMP/sig.txt" >&2
    exit 1
fi

# Watchdog: a guest wedged in an exception loop is detected, the run
# stops with the dedicated exit code 6, and the partial trace is sealed.
expect_exit 6 "$BUILD/tools/atum-capture" --out "$TMP/wedge.atum" \
    --wedge-demo --watchdog 100000
grep -q "stopped=watchdog" "$TMP/out.txt"
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/wedge.atum" --verify
grep -q "status:  intact" "$TMP/out.txt"

# The wedge also dumps the always-on flight recorder next to the trace
# (docs/TRACING.md); its schema and last-breadcrumb contract are
# jq-checked below.
[ -s "$TMP/wedge.atum.flight.json" ] || {
    echo "FAIL: wedged capture left no flight dump" >&2
    exit 1
}

# Broken pipes are success, not death: `| head` closes the pipe early
# and the tools must still exit 0 (SIGPIPE death would surface as 141).
# $? after a pipeline is head's status, so the tool's own status is
# smuggled out through a file.
{ "$BUILD/tools/atum-disasm" --kernel; echo $? > "$TMP/pipe_status"; } \
    | head -n 3 > "$TMP/pipe.txt"
pipe_exit=$(cat "$TMP/pipe_status")
[ "$pipe_exit" = 0 ] || { echo "FAIL: disasm | head exited $pipe_exit" >&2; exit 1; }
grep -q "k_start:" "$TMP/pipe.txt"
{ "$BUILD/tools/atum-report" "$TMP/t.atum" --head 1000; \
  echo $? > "$TMP/pipe_status"; } | head -n 2 > /dev/null
pipe_exit=$(cat "$TMP/pipe_status")
[ "$pipe_exit" = 0 ] || { echo "FAIL: report | head exited $pipe_exit" >&2; exit 1; }

# ---------------------------------------------------------------------------
# Observability: --version everywhere, metrics JSONL + RUN.json schemas,
# the aggregate stats footer, and the atum-top one-shot renderer.

for tool in atum-capture atum-report atum-disasm atum-top atum-chaos; do
    expect_exit 0 "$BUILD/tools/$tool" --version
    grep -q "^$tool " "$TMP/out.txt" || {
        echo "FAIL: $tool --version output malformed" >&2
        cat "$TMP/out.txt" >&2
        exit 1
    }
done

# --metrics-out requires the supervised loop, so it conflicts with
# --user-only.
expect_exit 2 "$BUILD/tools/atum-capture" --out "$TMP/m.atum" \
    --workloads grep --user-only --metrics-out "$TMP/m.jsonl"

# A supervised capture streams snapshots and writes a RUN.json manifest.
expect_exit 0 "$BUILD/tools/atum-capture" --out "$TMP/m.atum" \
    --workloads grep --scale 1 --buffer-kb 16 \
    --metrics-out "$TMP/m.jsonl" --metrics-interval-ms 0
[ -s "$TMP/m.jsonl" ] || { echo "FAIL: metrics JSONL empty" >&2; exit 1; }
[ -s "$TMP/m.atum.run.json" ] || { echo "FAIL: RUN.json missing" >&2; exit 1; }

# atum-report --stats appends the aggregate counter table, with each
# stage's wall time (report.<stage>_us), the scan's under --verify too,
# and writes the same registry to <trace>.report.json.
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/m.atum" --stats \
    --stack-distance --sweep 16:16:1
grep -q "report.records" "$TMP/out.txt"
grep -q "report.stack_distance_us" "$TMP/out.txt"
[ -s "$TMP/m.atum.report.json" ] || {
    echo "FAIL: report.json missing" >&2; exit 1; }
grep -q '"report.sweep_us"' "$TMP/m.atum.report.json" || {
    echo "FAIL: report.json lacks report.sweep_us" >&2; exit 1; }
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/m.atum" --verify --stats
grep -q "report.scan_us" "$TMP/out.txt"

# atum-top renders the newest snapshot once and exits.
expect_exit 0 "$BUILD/tools/atum-top" --once "$TMP/m.jsonl"
grep -q "instructions" "$TMP/out.txt"
expect_exit 4 "$BUILD/tools/atum-top" --once /dev/null
expect_exit 3 "$BUILD/tools/atum-top" --once "$TMP/absent.jsonl"

# Span tracing (docs/TRACING.md): --trace-out / --spans export Chrome
# trace-event JSON in both build modes (an -DATUM_TRACING=OFF build
# writes a valid document marked tracing:"off" with no events).
expect_exit 0 "$BUILD/tools/atum-capture" --out "$TMP/s.atum" \
    --workloads grep --scale 1 --buffer-kb 16 \
    --trace-out "$TMP/cap.spans.json"
grep -q "spans " "$TMP/out.txt"
[ -s "$TMP/cap.spans.json" ] || { echo "FAIL: no capture spans" >&2; exit 1; }
expect_exit 0 "$BUILD/tools/atum-report" "$TMP/s.atum" --cache 16:16:1 \
    --spans "$TMP/rep.spans.json"
[ -s "$TMP/rep.spans.json" ] || { echo "FAIL: no report spans" >&2; exit 1; }

if command -v jq > /dev/null 2>&1; then
    # Every JSONL line parses and carries the v1 schema + required keys
    # (mono_us pins each snapshot to the span/flight monotonic axis).
    jq -es 'all(.schema == "atum-metrics-v1"
                and .phase and (.seq >= 0) and (.mono_us > 0)
                and (.counters | type == "object")
                and (.gauges | type == "object")
                and (.histograms | type == "object"))' \
        "$TMP/m.jsonl" > /dev/null
    # First line is phase=start, last line phase=final with real totals.
    [ "$(head -n 1 "$TMP/m.jsonl" | jq -r .phase)" = "start" ]
    [ "$(tail -n 1 "$TMP/m.jsonl" | jq -r .phase)" = "final" ]
    final_instr=$(tail -n 1 "$TMP/m.jsonl" \
        | jq -r '.counters["cpu.instructions"]')
    [ "$final_instr" -gt 0 ]
    # RUN.json: schema, tool identity, exit code, and the finals block.
    jq -e '.schema == "atum-run-v1" and .tool == "atum-capture"
           and .exit_code == 0 and (.config | type == "object")
           and (.counters["tracer.records"] > 0)' \
        "$TMP/m.atum.run.json" > /dev/null
    # Span exports: valid trace-event documents; real "X" spans and the
    # RUN.json "phases" profiler split only when the tracing layer is
    # compiled in (an -DATUM_TRACING=OFF build legitimately has neither).
    for spans in "$TMP/cap.spans.json" "$TMP/rep.spans.json"; do
        jq -e '.displayTimeUnit == "ms"
               and (.otherData.tracing == "on"
                    or .otherData.tracing == "off")
               and (.traceEvents | type == "array")' \
            "$spans" > /dev/null
        if [ "$(jq -r .otherData.tracing "$spans")" = "on" ]; then
            jq -e '[.traceEvents[] | select(.ph == "X")] | length > 0' \
                "$spans" > /dev/null
        fi
    done
    if [ "$(jq -r .otherData.tracing "$TMP/cap.spans.json")" = "on" ]; then
        jq -e '.phases | type == "object"' \
            "$TMP/m.atum.run.json" > /dev/null
    fi
    # Flight dump from the wedged capture above: schema v1, and the
    # newest breadcrumb names the failure point.
    jq -e '.schema == "atum-flight-v1" and .reason == "watchdog"
           and (.events | length > 0)
           and .events[-1].name == "supervisor.watchdog"' \
        "$TMP/wedge.atum.flight.json" > /dev/null
else
    echo "note: jq not found, skipping JSON schema checks"
fi

# ---------------------------------------------------------------------------
# Chaos campaigns: the seeded crash-drill driver (see docs/CHAOS.md).

expect_exit 2 "$BUILD/tools/atum-chaos"
expect_exit 2 "$BUILD/tools/atum-chaos" --no-such-flag
expect_exit 2 "$BUILD/tools/atum-chaos" --campaign powercut --seeds 0
expect_exit 3 "$BUILD/tools/atum-chaos" --replay "$TMP/absent.schedule"

# --probe prints the op counts schedules are aimed into.
expect_exit 0 "$BUILD/tools/atum-chaos" --probe --max-instructions 60000
grep -q "^writes " "$TMP/out.txt"
grep -q "^renames " "$TMP/out.txt"

# A small seeded campaign upholds every invariant.
expect_exit 0 "$BUILD/tools/atum-chaos" --campaign powercut,enospc \
    --seeds 2 --max-instructions 60000
grep -q "0 failing" "$TMP/out.txt"

# Corpus schedules replay clean through the CLI too (they are also run
# by chaos_test; this exercises the --replay file path end to end).
expect_exit 0 "$BUILD/tools/atum-chaos" \
    --replay "$SRC/tests/chaos_corpus/torn-rename.schedule"
grep -q ": ok" "$TMP/out.txt"

echo "tools OK"
