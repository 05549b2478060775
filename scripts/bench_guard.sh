#!/usr/bin/env bash
# Bench regression guard: rerun the micro-index Criterion bench and fail
# if any median regresses more than THRESHOLD_PCT (default 15%) against
# the recorded "arena" baselines in BENCH_index.json or the spill-group
# medians in BENCH_spill.json.
#
# Single medians still jitter ±30% on a busy single-core box (the
# nanosecond-scale benches especially), so the guard takes the *minimum*
# median over BENCH_RUNS runs (default 3) per bench id: noise only ever
# inflates a run, so the minimum is the faithful estimate, and a real
# regression shows up in every run.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT="${THRESHOLD_PCT:-15}"
BENCH_RUNS="${BENCH_RUNS:-3}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "==> cargo bench -p amri-bench --bench micro_index (best of ${BENCH_RUNS} runs, threshold +${THRESHOLD_PCT}%)"
for run in $(seq "$BENCH_RUNS"); do
    echo "--- run ${run}/${BENCH_RUNS}"
    cargo bench -p amri-bench --bench micro_index 2>&1 | grep 'median_ns=' | tee -a "$OUT"
    # Every batched spill iteration leaves a block-file directory behind:
    # gigabytes per run, and three runs have filled an 18 GB disk.
    find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'amri-bench-spill-*' -exec rm -rf {} +
done

fail=0
while IFS=$'\t' read -r key base; do
    now="$(awk -v k="$key" '$1 == k {
        sub(/.*median_ns=/, "")
        if (best == "" || $0 + 0 < best + 0) best = $0 + 0
    } END { if (best != "") print best }' "$OUT")"
    if [ -z "$now" ]; then
        echo "MISSING   $key (baseline ${base} ns; bench id absent from output)"
        fail=1
        continue
    fi
    verdict="$(awk -v now="$now" -v base="$base" -v thr="$THRESHOLD_PCT" 'BEGIN {
        pct = (now - base) / base * 100.0
        printf "%+7.1f%%  now=%.1f ns  baseline=%.1f ns", pct, now, base
        exit (pct > thr) ? 1 : 0
    }')" && ok=1 || ok=0
    if [ "$ok" = 1 ]; then
        echo "OK        $key  $verdict"
    else
        echo "REGRESSED $key  $verdict  (limit +${THRESHOLD_PCT}%)"
        fail=1
    fi
done < <(jq -r '.micro_index_median_ns | to_entries[]
                | select(.value.arena != null)
                | [.key, (.value.arena | tostring)] | @tsv' BENCH_index.json
         jq -r '.micro_index_median_ns | to_entries[]
                | [.key, (.value | tostring)] | @tsv' BENCH_spill.json)

if [ "$fail" != 0 ]; then
    echo "bench guard FAILED: median regression beyond ${THRESHOLD_PCT}% (or missing bench)"
    exit 1
fi
echo "bench guard green."
