#!/usr/bin/env bash
# Regenerate BENCH_parallel.json: measure the two parallel-path benches —
# sharded per-request probe and sharded migration — at 1, 2 and 4 worker
# threads, and record each id's best, min and max over the runs, derived
# speedups and the environment the numbers were taken on.
#
# Like bench_guard.sh, an id's best is the *minimum* median over
# BENCH_RUNS runs (noise only inflates a run); its max sits beside it, so a
# ratio whose two ids' [min, max] ranges overlap reads as a tie, not as
# scaling. Each run times the three thread counts of a bench one id per
# process, in an order rotated from run to run (1 2 4, then 2 4 1, then
# 4 1 2, ...), so a host that drifts during a recording spreads over every
# id instead of landing on the last one. This script is a recorder, not a
# gate: wall-clock scaling depends on how many cores the host actually
# has, so the honest artifact is the spread plus the core count. Every
# dispatch here goes through the pool's work-size gate exactly as in the
# engine: what is too small to repay a hand-off runs on the caller at any
# thread count. >= 2x at 4 threads is only reachable with >= 4 cores and
# dispatches large enough to clear the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

FORCE=0
for arg in "$@"; do
    case "$arg" in
        --force) FORCE=1 ;;
        *) echo "usage: scripts/bench_parallel.sh [--force]" >&2; exit 2 ;;
    esac
done

# A <4-core host cannot show 4-thread scaling, so regenerating there would
# silently replace a multi-core recording with one that cannot. Refuse
# unless the caller explicitly says that's what they want.
if [[ "$(nproc)" -lt 4 && -f BENCH_parallel.json && "$FORCE" -ne 1 ]]; then
    echo "refusing to overwrite BENCH_parallel.json: this host has $(nproc) core(s)," >&2
    echo "so a >=4-core recording would be replaced by one that cannot show" >&2
    echo "4-thread scaling. Re-run on a >=4-core host, or pass --force to record this" >&2
    echo "environment anyway (the JSON records the core count either way)." >&2
    exit 1
fi

BENCH_RUNS="${BENCH_RUNS:-3}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

PROBE=index_parallel_10k/wildcard_batch_probe_threads
MIGRATE=migrate_parallel_10k/bitaddr_sharded_rebucket_threads
THREADS=(1 2 4)
echo "==> cargo bench -p amri-bench --bench micro_index (${BENCH_RUNS} runs, thread order rotated)"
for run in $(seq "$BENCH_RUNS"); do
    shift_by=$(( (run - 1) % ${#THREADS[@]} ))
    order=("${THREADS[@]:shift_by}" "${THREADS[@]:0:shift_by}")
    echo "--- run ${run}/${BENCH_RUNS}: threads ${order[*]}"
    for bench in "$PROBE" "$MIGRATE"; do
        for t in "${order[@]}"; do
            cargo bench -p amri-bench --bench micro_index -- "${bench}/${t}" 2>&1 \
                | grep 'median_ns=' | tee -a "$OUT"
        done
    done
done

# `<id> <min> <max>` over every run of the id.
spread_for() {
    awk -v k="$1" '$1 == k {
        sub(/.*median_ns=/, "")
        v = $0 + 0
        if (n == 0 || v < lo) lo = v
        if (n == 0 || v > hi) hi = v
        n++
    } END { if (n == 0) exit 1; print lo, hi }' "$OUT"
}

read -r P1 P1X <<< "$(spread_for "$PROBE/1")"
read -r P2 P2X <<< "$(spread_for "$PROBE/2")"
read -r P4 P4X <<< "$(spread_for "$PROBE/4")"
read -r M1 M1X <<< "$(spread_for "$MIGRATE/1")"
read -r M2 M2X <<< "$(spread_for "$MIGRATE/2")"
read -r M4 M4X <<< "$(spread_for "$MIGRATE/4")"
CORES="$(nproc)"
# A <4-core recording only happens under --force (the guard above exits
# otherwise). Stamp it explicitly so downstream readers of the JSON know
# the 4-thread column oversubscribes the host.
DEGRADED=false
if [[ "$CORES" -lt 4 ]]; then DEGRADED=true; fi

jq -n \
    --argjson p1 "$P1" --argjson p2 "$P2" --argjson p4 "$P4" \
    --argjson p1x "$P1X" --argjson p2x "$P2X" --argjson p4x "$P4X" \
    --argjson m1 "$M1" --argjson m2 "$M2" --argjson m4 "$M4" \
    --argjson m1x "$M1X" --argjson m2x "$M2X" --argjson m4x "$M4X" \
    --argjson cores "$CORES" --argjson runs "$BENCH_RUNS" \
    --argjson degraded "$DEGRADED" \
    --arg kernel "$(uname -sr)" --arg arch "$(uname -m)" '
# best(1 thread) / best(n threads), and whether the two ids ranges overlap.
def ratio($a; $ax; $b; $bx):
  { ratio: (($a / $b * 100 | round) / 100),
    verdict: (if $a <= $bx and $b <= $ax then "tie"
              elif $a > $bx then "faster" else "slower" end) };
{
  description: "Scaling evidence for sharded work, full pipeline: two benches over the identical 10k-entry 4-shard BitAddressIndex through the engine WorkerPool at 1, 2 and 4 threads. index_parallel_10k/wildcard_batch_probe_threads probes 64 single-attribute-wildcard requests (2^16 candidate buckets each), one sized dispatch per request through search_into of the index; migrate_parallel_10k/bitaddr_sharded_rebucket_threads reconfigures [8,8,8] -> [4,10,10], a rebucket pass then the shard-crossing redistribute, one destination shard per task. Index, shard count and inputs are identical across thread counts and every result is byte-identical by construction, so the ids differ only in executor parallelism. Every dispatch passes the work-size gate of the pool (WorkerPool::threads_for, asked by for_each_slot, against HANDOFF_NS in runtime/pool.rs; a dispatch past it runs on scoped threads) as it does in the engine: at 10k entries every dispatch here is sized below it (a wide probe 10 us, each migration pass 100 us, against 250 us), so both benches run on the caller at every thread count and measure that the gate costs nothing, not that threads help. Each id is timed in its own process, thread order rotated across runs; min and max are over the runs, best is the min.",
  regenerate: "scripts/bench_parallel.sh  # BENCH_RUNS runs, thread order rotated; --force on a <4-core host",
  environment: {
    cores: $cores,
    degraded_environment: $degraded,
    bench_runs: $runs,
    kernel: $kernel,
    arch: $arch,
    profile: "bench (lto=thin, codegen-units=1)",
    entries_per_index: 10000,
    shards: 4,
    batch_requests: 64
  },
  micro_index_median_ns: {
    "index_parallel_10k/wildcard_batch_probe_threads/1": { best: $p1, min: $p1, max: $p1x },
    "index_parallel_10k/wildcard_batch_probe_threads/2": { best: $p2, min: $p2, max: $p2x },
    "index_parallel_10k/wildcard_batch_probe_threads/4": { best: $p4, min: $p4, max: $p4x },
    "migrate_parallel_10k/bitaddr_sharded_rebucket_threads/1": { best: $m1, min: $m1, max: $m1x },
    "migrate_parallel_10k/bitaddr_sharded_rebucket_threads/2": { best: $m2, min: $m2, max: $m2x },
    "migrate_parallel_10k/bitaddr_sharded_rebucket_threads/4": { best: $m4, min: $m4, max: $m4x }
  },
  speedup_vs_1_thread: {
    probe:   { threads_2: ratio($p1; $p1x; $p2; $p2x), threads_4: ratio($p1; $p1x; $p4; $p4x) },
    migrate: { threads_2: ratio($m1; $m1x; $m2; $m2x), threads_4: ratio($m1; $m1x; $m4; $m4x) }
  },
  note: (
    if $cores >= 4 then
      "Measured on a \($cores)-core host; the >= 2.0x-at-4-threads target applies to both benches (parallel fraction ~1.0). A ratio whose verdict is tie sits inside the spread of its two ids."
    else
      "Measured on a \($cores)-core host: the 1-vs-2-thread columns are what this host can show (with 1 core, not even those); the 4-thread column oversubscribes it. A ratio whose verdict is tie sits inside the spread of its two ids: the dispatch ran on the caller (gated) or the host drifted more than threads moved it. The first recording of this file (1 core, before the gate, every dispatch handed off) read probe 0.57x and migrate 0.41-0.47x at 2-4 threads: a dispatch overhead of 1.3-2.4x. The >= 2.0x-at-4-threads target is unproven: it needs >= 4 cores and dispatches large enough to clear the gate."
    end
  )
}' > BENCH_parallel.json

echo "==> wrote BENCH_parallel.json"
jq '{cores: .environment.cores, degraded: .environment.degraded_environment, medians: .micro_index_median_ns, speedup: .speedup_vs_1_thread}' BENCH_parallel.json
