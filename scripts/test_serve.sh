#!/bin/sh
# Quick-lane serve gate: a real atum-serve daemon on a Unix socket, driven
# end to end with atum-submit — submit/wait/status/cancel/metrics, the
# load-shed exit code under saturation, graceful SIGTERM drain, and the
# headline robustness claim: SIGKILL mid-job, restart, and the job still
# reaches a terminal state exactly once (docs/SERVE.md J1/J2).
# Run by ctest as: test_serve.sh BUILD_DIR.
set -e
BUILD=$1
TMP=$(mktemp -d)
SERVE_PID=
trap '[ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

SERVE="$BUILD/tools/atum-serve"
SUBMIT="$BUILD/tools/atum-submit"
TOP="$BUILD/tools/atum-top"
CHAOS="$BUILD/tools/atum-chaos"

expect_exit() {
    want=$1
    shift
    set +e
    "$@" > "$TMP/out.txt" 2> "$TMP/err.txt"
    got=$?
    set -e
    if [ "$got" != "$want" ]; then
        echo "FAIL: wanted exit $want, got $got: $*" >&2
        cat "$TMP/out.txt" "$TMP/err.txt" >&2
        exit 1
    fi
}

wait_for_socket() {
    i=0
    while [ ! -S "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 50 ] && { echo "FAIL: $1 never appeared" >&2; exit 1; }
        sleep 0.1
    done
}

# Both serve tools speak --version and reject bad usage loudly.
expect_exit 0 "$SERVE" --version
expect_exit 0 "$SUBMIT" --version
expect_exit 2 "$SERVE"
expect_exit 2 "$SUBMIT" --socket "$TMP/s.sock"
expect_exit 2 "$SUBMIT" --socket "$TMP/s.sock" cancel

# -- happy path: submit, wait, status, cancel, metrics ----------------------
DIR="$TMP/serve"
SOCK="$TMP/s.sock"
mkdir -p "$DIR"
"$SERVE" --dir "$DIR" --socket "$SOCK" --workers 2 > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_socket "$SOCK"

expect_exit 0 "$SUBMIT" --socket "$SOCK" ping
expect_exit 0 "$SUBMIT" --socket "$SOCK" --workload grep \
    --max-instructions 20000 --wait submit
grep -q '"state":"done"' "$TMP/out.txt"
# That submit named no --token, so atum-submit made one up; the journal
# carries it whole: "submit-" and 32 hex digits.
grep -Eq '"token":"submit-[0-9a-f]{32}"' "$DIR/serve.journal"

# The finished job is visible to status, the status file, and atum-top.
expect_exit 0 "$SUBMIT" --socket "$SOCK" status
grep -q '"workload":"grep"' "$TMP/out.txt"
grep -q '"atum-serve-status-v1"' "$DIR/serve.status.json"
expect_exit 0 "$TOP" --serve "$DIR" --once
grep -q "grep" "$TMP/out.txt"

# -- replay sweeps over the finished capture --------------------------------
# A clean sweep: every config's row streams back as JSONL and the job
# lands "done".
expect_exit 0 "$SUBMIT" --socket "$SOCK" sweep --of 1 \
    --config cache:size_kb=8:assoc=2 --config tlb:entries=16:ways=4 --wait
grep -q '"status":"ok"' "$TMP/out.txt"
grep -q '"state":"done"' "$TMP/out.txt"
# atum-top renders the sweep's CONFIGS column from the status file.
expect_exit 0 "$TOP" --serve "$DIR" --once
grep -q "CONFIGS" "$TMP/out.txt"
grep -q "2/2" "$TMP/out.txt"
# A config with impossible geometry costs exactly its own row: the sweep
# degrades to "partial" (exit 1), the good row still streams.
expect_exit 1 "$SUBMIT" --socket "$SOCK" sweep --of 1 \
    --config cache:size_kb=8 --config cache:block=24 --wait
grep -q '"status":"ok"' "$TMP/out.txt"
grep -q '"outcome":"partial"' "$TMP/out.txt"
# Sweeping a job that does not exist is refused (not-found -> exit 3).
expect_exit 3 "$SUBMIT" --socket "$SOCK" sweep --of 999 \
    --config cache:size_kb=8
# A malformed --config spec dies at usage parsing, before the wire.
expect_exit 2 "$SUBMIT" --socket "$SOCK" sweep --of 1 --config bogus:x=1

# --wait-timeout-ms: a huge job cannot finish in 300 ms; the wait expires
# with the unavailable exit code (7) while the job keeps running. It is
# the scale-1024 grep below: a scale-1 grep can halt "done" in time.
expect_exit 7 "$SUBMIT" --socket "$SOCK" --workload grep --scale 1024 \
    --max-instructions 50000000 --wait --wait-timeout-ms 300 submit
TIMED_ID=$(sed 's/.*"id":\([0-9]*\).*/\1/;q' "$TMP/out.txt")
expect_exit 0 "$SUBMIT" --socket "$SOCK" --id "$TIMED_ID" cancel

# A queued job with a huge budget cancels cleanly (exit 5, interrupted).
# At scale 1024 grep needs ~200 M instructions to halt, so the 50 M budget
# keeps it running for seconds: the cancel always lands first (a scale-1
# grep halts in ~60 ms and could finish "done" before it).
"$SUBMIT" --socket "$SOCK" --workload grep --scale 1024 \
    --max-instructions 50000000 submit > "$TMP/big.json"
BIG_ID=$(sed 's/.*"id":\([0-9]*\).*/\1/' "$TMP/big.json")
expect_exit 0 "$SUBMIT" --socket "$SOCK" --id "$BIG_ID" cancel
# A running job honors the cancel at its next slice boundary; poll.
i=0
until "$SUBMIT" --socket "$SOCK" --id "$BIG_ID" status \
        | grep -q '"state":"cancelled"'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "FAIL: job $BIG_ID never cancelled" >&2; \
        exit 1; }
    sleep 0.1
done

# Daemon metrics speak Prometheus text with the serve.* instruments.
expect_exit 0 "$SUBMIT" --socket "$SOCK" metrics
grep -q "atum_serve_jobs_submitted" "$TMP/out.txt"

# Unknown workload is the client's fault (corrupt/invalid -> exit 4).
expect_exit 4 "$SUBMIT" --socket "$SOCK" --workload no-such-workload submit

# Graceful drain: SIGTERM, daemon exits 0, socket is gone.
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
DRAIN_EXIT=$?
set -e
SERVE_PID=
[ "$DRAIN_EXIT" = 0 ] || { echo "FAIL: drain exited $DRAIN_EXIT" >&2; exit 1; }

# -- saturation sheds with the resource-exhausted exit code (8) -------------
DIR2="$TMP/shed"
SOCK2="$TMP/shed.sock"
mkdir -p "$DIR2"
"$SERVE" --dir "$DIR2" --socket "$SOCK2" --workers 1 --max-queue 1 \
    > "$TMP/shed.log" 2>&1 &
SERVE_PID=$!
wait_for_socket "$SOCK2"
# Two slow jobs occupy the worker and the whole queue; the third sheds.
"$SUBMIT" --socket "$SOCK2" --max-instructions 50000000 submit > /dev/null
i=0
until "$SUBMIT" --socket "$SOCK2" status | grep -q '"state":"running"'; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { echo "FAIL: first job never started" >&2; exit 1; }
    sleep 0.1
done
"$SUBMIT" --socket "$SOCK2" --max-instructions 50000000 submit > /dev/null
expect_exit 8 "$SUBMIT" --socket "$SOCK2" submit
grep -q '"code":"resource-exhausted"' "$TMP/out.txt"
kill -9 "$SERVE_PID"
set +e
wait "$SERVE_PID" 2>/dev/null
set -e
SERVE_PID=

# -- the headline: SIGKILL mid-job, restart, nothing is lost ----------------
DIR3="$TMP/crash"
SOCK3="$TMP/crash.sock"
mkdir -p "$DIR3"
"$SERVE" --dir "$DIR3" --socket "$SOCK3" --workers 1 > "$TMP/crash.log" 2>&1 &
SERVE_PID=$!
wait_for_socket "$SOCK3"
"$SUBMIT" --socket "$SOCK3" --workload grep --max-instructions 400000 \
    submit > "$TMP/crash.json"
JOB_ID=$(sed 's/.*"id":\([0-9]*\).*/\1/' "$TMP/crash.json")
sleep 1  # let the job start and cut some checkpoints
kill -9 "$SERVE_PID"
set +e
wait "$SERVE_PID" 2>/dev/null
set -e
SERVE_PID=
rm -f "$SOCK3"

"$SERVE" --dir "$DIR3" --socket "$SOCK3" --workers 1 > "$TMP/crash2.log" 2>&1 &
SERVE_PID=$!
wait_for_socket "$SOCK3"
i=0
while :; do
    "$SUBMIT" --socket "$SOCK3" --id "$JOB_ID" status > "$TMP/out.txt"
    grep -q '"state":"done"' "$TMP/out.txt" && break
    i=$((i + 1))
    [ "$i" -gt 300 ] && { echo "FAIL: job $JOB_ID never finished after" \
        "restart" >&2; cat "$TMP/out.txt" >&2; exit 1; }
    sleep 0.2
done
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
set -e
SERVE_PID=

# -- atum-top treats a missing status file as transient, not corrupt --------
mkdir -p "$TMP/empty"
expect_exit 7 "$TOP" --serve "$TMP/empty" --once

# -- a taste of the kill-restart drill campaign (full run is nightly) -------
expect_exit 0 "$CHAOS" --serve --campaign powercut --seeds 2
grep -q "0 failing" "$TMP/out.txt"
expect_exit 0 "$CHAOS" --serve --sweeps --seeds 4
grep -q "0 failing" "$TMP/out.txt"
# A hand-written serve schedule replays through --replay FILE --serve.
printf 'seed 3\ncampaign powercut\nop power-cut-write 40\n' \
    > "$TMP/serve.schedule"
expect_exit 0 "$CHAOS" --replay "$TMP/serve.schedule" --serve
grep -q "power-cut.*: ok" "$TMP/out.txt"

# -- hostile-network hardening (docs/SERVE.md "Network failure model") ------
DIR4="$TMP/net"
SOCK4="$TMP/net.sock"
mkdir -p "$DIR4"
"$SERVE" --dir "$DIR4" --socket "$SOCK4" --workers 1 --conn-idle-ms 400 \
    > "$TMP/net.log" 2>&1 &
SERVE_PID=$!
wait_for_socket "$SOCK4"

# A slowloris holding a half-frame past the idle deadline is evicted
# (unavailable -> exit 7), and the daemon stays healthy for the next
# client instead of wedging on the stuck connection.
expect_exit 7 "$SUBMIT" --socket "$SOCK4" probe-slow --hold-ms 3000
expect_exit 0 "$SUBMIT" --socket "$SOCK4" ping

# Garbage bytes earn a structured protocol error before the close
# (corrupt -> exit 4) — a poison frame is the sender's problem only.
expect_exit 4 "$SUBMIT" --socket "$SOCK4" probe-garbage
expect_exit 0 "$SUBMIT" --socket "$SOCK4" ping

# Exactly-once: a duplicate submit with the same idempotency token is
# answered with the original job id and the dup marker...
"$SUBMIT" --socket "$SOCK4" --token net-tok-1 --max-instructions 20000 \
    submit > "$TMP/tok1.json"
TOK_ID=$(sed 's/.*"id":\([0-9]*\).*/\1/;q' "$TMP/tok1.json")
expect_exit 0 "$SUBMIT" --socket "$SOCK4" --token net-tok-1 submit
grep -q '"dup":true' "$TMP/out.txt"
grep -q "\"id\":$TOK_ID[,}]" "$TMP/out.txt"

# ...and the dedup map is rebuilt from the journal across SIGKILL +
# restart: the same token still names the same job in the reborn daemon.
kill -9 "$SERVE_PID"
set +e
wait "$SERVE_PID" 2>/dev/null
set -e
SERVE_PID=
rm -f "$SOCK4"
"$SERVE" --dir "$DIR4" --socket "$SOCK4" --workers 1 > "$TMP/net2.log" 2>&1 &
SERVE_PID=$!
wait_for_socket "$SOCK4"
expect_exit 0 "$SUBMIT" --socket "$SOCK4" --token net-tok-1 submit
grep -q '"dup":true' "$TMP/out.txt"
grep -q "\"id\":$TOK_ID[,}]" "$TMP/out.txt"
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
set -e
SERVE_PID=

# -- a taste of the net drill + protocol fuzz sweep (full runs nightly) -----
expect_exit 0 "$CHAOS" --net --seeds 2
grep -q "0 failing" "$TMP/out.txt"
# A hand-written net schedule replays through --replay FILE --net.
printf 'seed 2\ncampaign net-dup,net-kill\nop dup-request 1\nop kill-serve 3\n' \
    > "$TMP/net.schedule"
expect_exit 0 "$CHAOS" --replay "$TMP/net.schedule" --net
grep -q "1 kills.*: ok" "$TMP/out.txt"
expect_exit 0 "$CHAOS" --fuzz-protocol --seeds 500
grep -q ": ok" "$TMP/out.txt"

echo "serve CLI scenarios passed"
