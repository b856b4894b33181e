#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# The GitHub workflow runs fmt+clippy in a dedicated lint job; its
# test+golden job sets CI_SKIP_LINT=1 so the lint pass isn't duplicated.
# Local runs (no env) always lint.
if [ -n "${CI_SKIP_LINT:-}" ]; then
  echo "==> lint skipped (CI_SKIP_LINT set; the lint job covers fmt+clippy)"
else
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check

  echo "==> cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --release"
# Every crate's unit, integration and property suites. The root
# `cargo test -q` above covers only the root package; the targeted gates
# below re-run a few of these suites to label their failures.
cargo test --workspace --release

echo "==> planner and core-pool oracles (debug profile)"
# The release suites above compile every debug_assert out, including the
# manager tick's planner oracles: the patched and short-circuited fast-mode
# plans against the full-scan planner with the eagerly evaluated threshold,
# and the single-pass classification against the sorted classifier. Run the
# two suites that exercise them with debug assertions on.
cargo test -q -p altocumulus --test prop_control_plane
cargo test -q -p altocumulus --lib runtime::
# The baseline core pool's oracles: every hand-off scan against occupancy
# recomputed from the pool's slots, and every scan the pool skips (a
# completion handing the queue head to the freed core) against the scan.
cargo test -q -p schedulers

echo "==> perfbench tests (benchmark workspace)"
# The repo benchmark is its own workspace under perfbench/, which
# `--workspace` above does not reach. Build and test it here so a change to
# the simulator's public API cannot break the benchmark unnoticed.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run"
# Compile (but do not execute) the criterion benches and the hotpath
# harness so bench-only code can never rot out of sync with the library.
cargo bench --workspace --no-run

echo "==> allocation-regression gate"
# Fast steady-state allocation budgets (single-test files so the global
# counting allocator sees no cross-thread noise). These fail loudly if a
# per-event allocation sneaks back into the simulator or scheduler hot path.
# For the full throughput/peak-queue record, run ./bench_hotpath.sh.
cargo test -p simcore --release --test alloc_budget -- --quiet
cargo test -p altocumulus --release --test alloc_budget -- --quiet

echo "==> golden figure gate (quick configs)"
# The --quick figure sweeps are small enough for CI and their stdout is
# pinned by sha256 fixtures: any determinism break (event ordering, RNG
# stream leakage, fault-layer perturbation of healthy runs) fails here
# before a reviewer ever diffs numbers. To bless an intentional change:
#   cargo run -q -p bench --release --bin <fig> -- --quick \
#     | sha256sum | awk '{print $1}' > ci/golden/<fig>_quick.sha256
for pair in fig10_comparison:fig10_quick fig13a_scalability:fig13a_quick \
            rack_sweep:rack_sweep_quick; do
  bin=${pair%%:*} name=${pair##*:}
  cargo run -q -p bench --release --bin "$bin" -- --quick > "target/$name.txt"
  got=$(sha256sum < "target/$name.txt" | awk '{print $1}')
  want=$(cat "ci/golden/$name.sha256")
  if [ "$got" != "$want" ]; then
    echo "GOLDEN MISMATCH: $bin --quick stdout digest $got != pinned $want" >&2
    echo "(see target/$name.txt; regenerate via scripts/regen_golden.sh if intentional)" >&2
    # Turn "the digest changed" into "which event changed": replay the
    # golden run trace for this figure (if one exists) so the first
    # divergent (time, seq) event and its surrounding window land in the
    # log and in target/replay-diff/ for the CI artifact upload.
    if [ -f "ci/golden/$name.trace.jsonl" ]; then
      mkdir -p target/replay-diff
      echo "==> replaying ci/golden/$name.trace.jsonl to locate the divergence" >&2
      cargo run -q -p bench --release --bin replay -- "ci/golden/$name.trace.jsonl" \
        > "target/replay-diff/$name.diff.txt" || true
      cat "target/replay-diff/$name.diff.txt" >&2
    fi
    exit 1
  fi
done

echo "==> golden run-trace gate (record/replay contract)"
# The TRACE/1.0 run artifacts pin the simulation at the event level, not
# just the formatted stdout: provenance (seed, config and workload
# fingerprints, per-stream RNG draw counts) plus a rolling digest of every
# (time, seq, kind, group, payload) event record. First prove the blessed
# goldens are intact (hash pin + schema version), then that a fresh
# recording is byte-identical, then that the golden replays divergence-free
# against a full-granularity re-execution.
./scripts/check_golden_traces.sh
for pair in fig10_comparison:fig10_quick fault_sweep:fault_sweep_quick \
            rack_sweep:rack_sweep_quick; do
  bin=${pair%%:*} name=${pair##*:}
  cargo run -q -p bench --release --bin "$bin" -- --quick \
    --record-out="target/$name.trace.jsonl" > /dev/null 2> /dev/null
  if ! cmp "ci/golden/$name.trace.jsonl" "target/$name.trace.jsonl"; then
    echo "GOLDEN TRACE MISMATCH: fresh $bin --quick recording differs from blessed" >&2
    mkdir -p target/replay-diff
    cargo run -q -p bench --release --bin replay -- "ci/golden/$name.trace.jsonl" \
      > "target/replay-diff/$name.diff.txt" || true
    cat "target/replay-diff/$name.diff.txt" >&2
    exit 1
  fi
done
cargo run -q -p bench --release --bin replay -- ci/golden/fig10_quick.trace.jsonl
cargo run -q -p bench --release --bin replay -- ci/golden/fault_sweep_quick.trace.jsonl
cargo run -q -p bench --release --bin replay -- ci/golden/rack_sweep_quick.trace.jsonl
# The contract's own test suites (root `cargo test -q` covers only the
# root package): the simcore writer/parser/differ unit tests, then the
# property suite — engine-invariant round-trips, corruption caught at the
# exact index, the AC_TRACE_PERTURB seeded-mutation demo.
cargo test -q -p simcore --release --lib trace::
cargo test -q -p altocumulus --release --test prop_replay

echo "==> fault-injection smoke (determinism)"
# A faulted sweep must be byte-identical across invocations *and* across
# sweep-executor thread counts — faults are part of the deterministic
# simulation, not noise.
cargo run -q -p bench --release --bin fault_sweep -- --quick > target/fault_sweep_quick.txt
cargo run -q -p bench --release --bin fault_sweep -- --quick > target/fault_sweep_b.txt
SWEEP_THREADS=4 cargo run -q -p bench --release --bin fault_sweep -- --quick > target/fault_sweep_c.txt
cmp target/fault_sweep_quick.txt target/fault_sweep_b.txt
cmp target/fault_sweep_quick.txt target/fault_sweep_c.txt
rm -f target/fault_sweep_b.txt target/fault_sweep_c.txt

echo "==> rack determinism smoke (repeats + SWEEP_THREADS)"
# The rack tier's contract: byte-identical across repeated runs and across
# sweep-executor thread counts. target/rack_sweep_quick.txt is the output
# the golden gate pinned above; the quick sweep's death cell runs every
# server under a non-empty per-server fault plan, so faulted-rack routing
# and whole-server takeover are inside the byte-identity check too.
cargo run -q -p bench --release --bin rack_sweep -- --quick > target/rack_sweep_b.txt
SWEEP_THREADS=4 cargo run -q -p bench --release --bin rack_sweep -- --quick \
  > target/rack_sweep_c.txt
cmp target/rack_sweep_quick.txt target/rack_sweep_b.txt
cmp target/rack_sweep_quick.txt target/rack_sweep_c.txt
rm -f target/rack_sweep_b.txt target/rack_sweep_c.txt

echo "==> full-size figure binaries (exit status)"
# Every figure binary once without --quick, failing on a non-zero exit:
# cells that only the full sweeps reach (fault_sweep at intensity 1.0, the
# 64-server rack_sweep row) must not panic. Stdout is kept for inspection
# but not compared; the golden gates above pin the --quick output. The list
# is every crates/bench/src/bin program except the three tools.
mkdir -p target/full-size
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  case "$bin" in hotpath | replay | trace_lint) continue ;; esac
  start=$(date +%s)
  cargo run -q -p bench --release --bin "$bin" > "target/full-size/$bin.txt"
  echo "    $bin ok ($(($(date +%s) - start)) s)"
done

echo "==> telemetry-export smoke"
# Export a real trace from the hotpath harness and lint it: the Chrome-trace
# JSON must parse with well-nested per-request spans, and every probe JSONL
# line must match the schema. The third argument is the fresh TRACE/1.0 run
# artifact from the golden gate above, schema-validated by the same linter.
# Guards the exporters end-to-end, not just the in-process recorders.
SMOKE=target/telemetry-smoke
mkdir -p "$SMOKE"
cargo run -q -p bench --release --bin hotpath -- --trace-out "$SMOKE/trace.json" \
  > /dev/null 2> /dev/null
cp target/fig10_quick.trace.jsonl "$SMOKE/run.trace.jsonl"
cargo run -q -p bench --release --bin trace_lint -- \
  "$SMOKE/trace.json" "$SMOKE/trace.probes.jsonl" "$SMOKE/run.trace.jsonl"

echo "CI OK"
