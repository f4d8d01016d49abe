#!/bin/sh
# Locks the paper's results: runs bench_experiments into a scratch
# directory (it exits 1 when a shape check fails) and gates each of its
# reports, by name, against scripts/bench_baselines/, so a changed
# number and a report that was never written both fail.
# Usage: test_experiments.sh BUILD_DIR
set -e
BUILD=${1:-build}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
ATUM_BENCH_DIR=$TMP "$BUILD/bench/bench_experiments" > "$TMP/out.txt"
set --
for name in t1_trace_characteristics t2_slowdown t3_buffer_extraction \
    f1_miss_vs_cachesize f2_miss_vs_blocksize f3_miss_vs_assoc \
    f4_multiprogramming f5_working_sets t4_tlb t6_opcode_mix f6_paging \
    a1_compression a2_stack_distance a3_hierarchy a4_sampling \
    a5_write_policy a6_machine_tb a7_set_sampling a8_prefetch; do
    set -- "$@" "$TMP/BENCH_$name.json"
done
python3 "$(dirname "$0")/check_bench_regression.py" "$@"
