#!/bin/sh
# Regenerates every table and figure: runs each harness that
# bench/CMakeLists.txt declares with atum_bench(...), in that order, so a
# new bench is run here as soon as it is built. Run from the repository
# root after building into ./build. Output mirrors EXPERIMENTS.md.
#
# Each harness also writes a machine-readable BENCH_<name>.json into
# $ATUM_BENCH_DIR (default: ./results); the collected files are listed at
# the end for downstream regression tooling. See docs/METRICS.md.
set -e
BUILD=${1:-build}
ATUM_BENCH_DIR=${ATUM_BENCH_DIR:-results}
export ATUM_BENCH_DIR
mkdir -p "$ATUM_BENCH_DIR"
BENCHES=$(sed -n 's/^atum_bench(\([a-z0-9_]*\))$/\1/p' \
    "$(dirname "$0")/../bench/CMakeLists.txt")
if [ -z "$BENCHES" ]; then
    echo "run_all_experiments: no atum_bench(...) in bench/CMakeLists.txt" >&2
    exit 1
fi
for b in $BENCHES; do
    echo "===================================================== $b"
    "$BUILD/bench/$b"
    echo
done
echo "===================================================== BENCH JSON"
ls -l "$ATUM_BENCH_DIR"/BENCH_*.json
