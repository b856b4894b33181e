#!/usr/bin/env bash
# Regenerates every golden fixture under ci/golden/ from the current build:
#
#   - <fig>_quick.sha256            pinned sha256 of the --quick stdout
#   - <name>_quick.trace.jsonl      TRACE/1.0 run artifact (summary granularity)
#   - <name>_quick.trace.sha256     pinned sha256 of that artifact
#   - README.md                     provenance of the blessing build
#
# Run this only to bless an intentional behavior change, then commit the
# diff under ci/golden/ together with the change that caused it. The
# artifacts are timestamp-free and byte-deterministic, so an unchanged
# simulator regenerates identical files.
#
# Usage: ./scripts/regen_golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> release build"
cargo build --release -p bench

echo "==> stdout digests"
for pair in fig10_comparison:fig10_quick fig13a_scalability:fig13a_quick \
            rack_sweep:rack_sweep_quick; do
  bin=${pair%%:*} name=${pair##*:}
  cargo run -q -p bench --release --bin "$bin" -- --quick \
    | sha256sum | awk '{print $1}' > "ci/golden/$name.sha256"
  echo "    ci/golden/$name.sha256 = $(cat "ci/golden/$name.sha256")"
done

echo "==> golden run traces (summary granularity)"
for pair in fig10_comparison:fig10_quick fault_sweep:fault_sweep_quick \
            rack_sweep:rack_sweep_quick; do
  bin=${pair%%:*} name=${pair##*:}
  cargo run -q -p bench --release --bin "$bin" -- --quick \
    --record-out="ci/golden/$name.trace.jsonl" > /dev/null 2> /dev/null
  sha256sum < "ci/golden/$name.trace.jsonl" | awk '{print $1}' \
    > "ci/golden/$name.trace.sha256"
  echo "    ci/golden/$name.trace.jsonl ($(wc -c < "ci/golden/$name.trace.jsonl") bytes)"
  echo "    ci/golden/$name.trace.sha256 = $(cat "ci/golden/$name.trace.sha256")"
done

echo "==> verify fresh goldens replay clean"
for name in fig10_quick fault_sweep_quick rack_sweep_quick; do
  cargo run -q -p bench --release --bin replay -- "ci/golden/$name.trace.jsonl" \
    > /dev/null
done

echo "==> provenance"
{
  echo "# Golden fixtures"
  echo
  echo "Blessed by \`scripts/regen_golden.sh\`; regenerate only to record an"
  echo "*intentional* behavior change, and commit the diff together with the"
  echo "change that caused it."
  echo
  echo "- \`<fig>_quick.sha256\` — sha256 of the figure binary's \`--quick\`"
  echo "  stdout, enforced by the golden figure gate in \`ci.sh\`."
  echo "- \`<name>_quick.trace.jsonl\` — \`TRACE/1.0\` run artifact recorded"
  echo "  with \`--record-out\` at summary granularity: run provenance (seed,"
  echo "  config/workload fingerprints, engine, RNG draw counts) plus a"
  echo "  rolling event digest checkpointed every 512 events. When the"
  echo "  stdout gate fails, \`ci.sh\` replays this artifact to turn \"the"
  echo "  digest changed\" into the first divergent \`(time, seq)\` event."
  echo "- \`<name>_quick.trace.sha256\` — sha256 of that artifact, checked by"
  echo "  \`scripts/check_golden_traces.sh\` before any replay uses it."
  echo
  echo "Pinned stdout digests: \`fig10_quick\`, \`fig13a_quick\`,"
  echo "\`rack_sweep_quick\`. Pinned run traces: \`fig10_quick\`,"
  echo "\`fault_sweep_quick\`, \`rack_sweep_quick\` — the rack trace records"
  echo "one run section per AC server sub-run, each carrying its"
  echo "\`rack:<servers>x<cores>:<system>/fp<fingerprint>/srv<i>\` topology"
  echo "string, so a replay against a drifted rack shape fails at"
  echo "provenance before any event comparison."
  echo
  echo "## Provenance of the current blessing"
  echo
  echo "- toolchain: $(rustc --version)"
  # "-dirty": blessed from a working tree with uncommitted changes on top
  # of that commit (the usual case, since the bless lands in the same
  # commit as the change that caused it).
  echo "- commit: $(git describe --always --dirty 2>/dev/null || echo 'uncommitted')"
  echo "- host: $(uname -sm)"
} > ci/golden/README.md

echo "golden fixtures regenerated"
