#!/usr/bin/env bash
# Measures hot-path throughput (events/sec) and peak event-queue population
# for the representative sim_throughput configuration plus the paper-scale
# 256-core (16x16) mesh — the latter under both control planes (Elided vs
# EventDriven) so the manager-plane event-elision win is recorded
# head-to-head — a 1024-core (32x32) mesh, and two rack-tier rows. Writes
# the result to BENCH_hotpath.json. Run from the repository root:
#
#   ./bench_hotpath.sh
#
# The JSON includes a "prior" block with the previous build's numbers for
# the same configurations (every row before the idle-period tick
# short-circuits, measured on the same host), so regressions are visible
# without digging through git history.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -p bench --bin hotpath
./target/release/hotpath | tee BENCH_hotpath.json
