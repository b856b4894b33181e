#!/usr/bin/env bash
# Warn-only bench drift check: re-measure the hotpath harness and compare
# wall times against the committed BENCH_hotpath.json baseline. A
# configuration more than 25% slower annotates the GitHub job summary (and
# prints a ::warning:: line) but never fails the job — CI runners are too
# noisy for a hard perf gate; the committed baseline is refreshed
# deliberately via ./bench_hotpath.sh.
#
# Usage: ./scripts/bench_drift.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench --bin hotpath
FRESH=target/bench_drift_fresh.json
./target/release/hotpath > "$FRESH"

python3 - "$FRESH" BENCH_hotpath.json <<'PY'
import json
import os
import sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
KEYS = [
    "altocumulus_int_4x16",
    "altocumulus_int_16x16_elided",
    "altocumulus_int_32x32_elided",
    "altocumulus_int_16x16_event_driven",
    "rack_4x16_ac",
    "rack_32x32_fixed",
    "nebula_jbsq",
]
THRESHOLD = 1.25


rows, drifted = [], []
for k in KEYS:
    if k not in base or k not in fresh:
        # Missing-key guard: a key silently dropping out of either side is
        # itself drift (a renamed row or a stale baseline) — warn, never
        # fail, like every other drift here.
        where = "baseline" if k not in base else "fresh run"
        rows.append(f"| {k} | - | - | missing from {where} |")
        drifted.append(f"{k}: missing from {where} (refresh BENCH_hotpath.json)")
        continue
    b, f = base[k]["wall_ms"], fresh[k]["wall_ms"]
    ratio = f / b
    mark = " **drift**" if ratio > THRESHOLD else ""
    rows.append(f"| {k} | {b:.2f} | {f:.2f} | {(ratio - 1) * 100:+.1f}%{mark} |")
    if ratio > THRESHOLD:
        drifted.append(f"{k}: {b:.2f} ms -> {f:.2f} ms ({(ratio - 1) * 100:+.1f}%)")
    # Per-event rate regression: wall time can drift for benign reasons
    # (event counts change when engines are redesigned), but events/sec
    # dropping >25% on the same key means the per-event hot path got
    # slower. Rows without a rate (e.g. nebula_jbsq) are skipped.
    be, fe = base[k].get("events_per_sec"), fresh[k].get("events_per_sec")
    if be and fe and be / fe > THRESHOLD:
        drifted.append(
            f"{k}: events/sec {be:.0f} -> {fe:.0f} ({(fe / be - 1) * 100:+.1f}%)"
        )

table = "\n".join(
    [
        "### Hotpath bench drift (warn-only, threshold +25%)",
        "",
        "| config | baseline ms | fresh ms | delta |",
        "|---|---|---|---|",
    ]
    + rows
)
print(table)

if drifted:
    for d in drifted:
        print(f"::warning title=Hotpath bench drift::{d}")
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary and drifted:
    with open(summary, "a") as f:
        f.write(table + "\n")
PY
exit 0
