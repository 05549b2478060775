#!/usr/bin/env bash
# Regenerate BENCH_spill.json: measure the spill-tier read fast path —
# cold verified block read (cache miss), warm decoded-block cache hit,
# coalesced 64-hit batch vs 64 independent reads, a 64-hit batch over
# twice the blocks its cache holds, and expiry-order readahead — plus
# the cold materialize through a zero-byte cache, and record medians,
# every run's median, derived speedups and the environment.
#
# Like bench_parallel.sh, each median is the *minimum* over BENCH_RUNS
# runs (noise only inflates a run). The two acceptance bars are recorded
# in the JSON: a warm hit must beat the cold materialize by >= 5x and the
# coalesced 64-hit batch must beat 64 independent reads by >= 3x. The
# `retired` key of the file being replaced (medians of read paths since
# rewritten, kept as history) is carried over verbatim.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_RUNS="${BENCH_RUNS:-3}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
RETIRED="$(jq -c '.retired // null' BENCH_spill.json 2>/dev/null || echo null)"

# `spill` is a substring match, so one invocation covers the data-path
# group (spill_4k: round trip + cold materialize) and the fast-path group
# (spill_cached_4k: cold read, warm hit, batch, independent, sweep,
# readahead).
echo "==> cargo bench -p amri-bench --bench micro_index -- spill (best of ${BENCH_RUNS})"
for run in $(seq "$BENCH_RUNS"); do
    echo "--- run ${run}/${BENCH_RUNS}"
    cargo bench -p amri-bench --bench micro_index -- spill 2>&1 \
        | grep 'median_ns=' | tee -a "$OUT"
    # Every batched spill iteration leaves a block-file directory behind:
    # gigabytes per run, and three runs have filled an 18 GB disk.
    find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'amri-bench-spill-*' -exec rm -rf {} +
done

median_for() {
    awk -v k="$1" '$1 == k {
        sub(/.*median_ns=/, "")
        if (best == "" || $0 + 0 < best + 0) best = $0 + 0
    } END { if (best == "") exit 1; print best }' "$OUT"
}

# Every run's median of every id, in run order, as a JSON object.
ALL_RUNS="$(awk '{ id = $1; sub(/.*median_ns=/, ""); runs[id] = runs[id] sep[id] ($0 + 0); sep[id] = ", " }
    END { printf "{"; n = 0; for (id in runs) printf "%s\"%s\": [%s]", (n++ ? ", " : ""), id, runs[id]; print "}" }' "$OUT")"

MAT="$(median_for spill_4k/materialize_spilled_hit)"
COLD="$(median_for spill_cached_4k/cold_read)"
WARM="$(median_for spill_cached_4k/warm_hit)"
BATCH="$(median_for spill_cached_4k/coalesced_batch_64)"
INDEP="$(median_for spill_cached_4k/independent_64)"
SWEEP="$(median_for spill_cached_4k/sweep_over_budget)"
READAHEAD="$(median_for spill_cached_4k/readahead_drain_2)"
CORES="$(nproc)"

jq -n \
    --argjson mat "$MAT" --argjson cold "$COLD" --argjson warm "$WARM" \
    --argjson batch "$BATCH" --argjson indep "$INDEP" \
    --argjson readahead "$READAHEAD" --argjson sweep "$SWEEP" \
    --argjson cores "$CORES" --argjson runs "$BENCH_RUNS" \
    --argjson retired "$RETIRED" --argjson all_runs "$ALL_RUNS" \
    --arg kernel "$(uname -sr)" --arg arch "$(uname -m)" '
{
  description: "Spill-tier read fast path: all benches over the identical 4k-tuple StateStore, under a hash module with no index, with half its window spilled to the checksummed block store in 256-tuple blocks. Every materialization is a StateStore::materialize_batch through SpillTier::fetch_batch, the one read path. spill_4k/materialize_spilled_hit is a one-key batch through a zero-byte cache (one verified device read + decode + entry scan, nothing kept). spill_cached_4k/cold_read is the same one-key batch through an empty 1 MiB decoded-block cache (miss + admission); warm_hit repeats it with the block cached (no file I/O, no checksum, no decode: the batch bookkeeping and the slot lookup); coalesced_batch_64 materializes 64 stub hits of one probe batch grouped by block (one verified read serves all 64); independent_64 is the baseline it replaces (64 one-key batches through a zero-byte cache, one device read each); sweep_over_budget is the steady state of a 64-hit batch striped over eight blocks through a cache budgeted for four of their frames (each pass: four blocks resident, four read once each, every decode serving its eight hits before its admission evicts; under the water-mark policy and the preload step this id read 490 us, every hit a device read); readahead_drain_2 plans a 2-block expiry-order prefetch and drains it into the cache ahead of the next probe, inside the read entry of the store (the timed region includes the arena scan of that probe; recordings made while the stand-alone drain_prefetch existed timed the plan and drain alone). The single-read ids (materialize_spilled_hit, cold_read, coalesced_batch_64) time one device read plus the teardown of the 4k-tuple store the routine consumes, and move +-30 % with host state between runs; independent_64 pays that teardown once per 64 reads and is the id that resolves the per-read cost. micro_index_runs_ns lists the median of every run, in run order; micro_index_median_ns is their minimum",
  regenerate: "scripts/bench_spill.sh  # best-of-N medians; BENCH_RUNS to change N",
  environment: {
    cores: $cores,
    bench_runs: $runs,
    kernel: $kernel,
    arch: $arch,
    profile: "bench (lto=thin, codegen-units=1)",
    tuples: 4000,
    payload_bytes: 64,
    spill_block_tuples: 256,
    cache_bytes: 1048576,
    batch_hits: 64
  },
  micro_index_median_ns: {
    "spill_4k/materialize_spilled_hit": $mat,
    "spill_cached_4k/cold_read": $cold,
    "spill_cached_4k/warm_hit": $warm,
    "spill_cached_4k/coalesced_batch_64": $batch,
    "spill_cached_4k/independent_64": $indep,
    "spill_cached_4k/sweep_over_budget": $sweep,
    "spill_cached_4k/readahead_drain_2": $readahead
  },
  micro_index_runs_ns: $all_runs,
  speedup: {
    warm_hit_vs_cold_materialize: (($mat / $warm * 100 | round) / 100),
    warm_hit_vs_cold_read: (($cold / $warm * 100 | round) / 100),
    coalesced_batch_vs_64_independent: (($indep / $batch * 100 | round) / 100)
  },
  acceptance: {
    warm_hit_vs_cold_materialize_min: 5.0,
    coalesced_batch_vs_64_independent_min: 3.0,
    pass: (($mat / $warm) >= 5.0 and ($indep / $batch) >= 3.0)
  }
} + (if $retired == null then {} else {retired: $retired} end)' > BENCH_spill.json

echo "==> wrote BENCH_spill.json"
jq '{medians: .micro_index_median_ns, speedup: .speedup, pass: .acceptance.pass}' BENCH_spill.json
if [[ "$(jq -r '.acceptance.pass' BENCH_spill.json)" != "true" ]]; then
    echo "acceptance bars not met (warm >= 5x cold materialize, batch >= 3x independent)" >&2
    exit 1
fi
