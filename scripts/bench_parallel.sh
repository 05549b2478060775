#!/usr/bin/env bash
# Regenerate BENCH_parallel.json: measure the three parallel-path benches
# — sharded per-request probe, staged parallel ingest (insert + expire),
# and sharded migration — at 1, 2 and 4 worker threads, and record medians,
# derived speedups and the environment the numbers were taken on.
#
# Like bench_guard.sh, each median is the *minimum* over BENCH_RUNS runs
# (noise only inflates a run). Unlike bench_guard.sh this script is a
# recorder, not a gate: wall-clock scaling depends on how many cores the
# host actually has, so the honest artifact is medians + core count, and
# readers judge the speedup against the recorded environment. Every
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

# The filter `parallel_10k` is a substring match, so one invocation covers
# index_parallel_10k (probe), ingest_parallel_10k (staged insert+expire)
# and migrate_parallel_10k (sharded rebucket).
echo "==> cargo bench -p amri-bench --bench micro_index -- parallel_10k (best of ${BENCH_RUNS})"
for run in $(seq "$BENCH_RUNS"); do
    echo "--- run ${run}/${BENCH_RUNS}"
    cargo bench -p amri-bench --bench micro_index -- parallel_10k 2>&1 \
        | grep 'median_ns=' | tee -a "$OUT"
done

median_for() {
    awk -v k="$1" '$1 == k {
        sub(/.*median_ns=/, "")
        if (best == "" || $0 + 0 < best + 0) best = $0 + 0
    } END { if (best == "") exit 1; print best }' "$OUT"
}

P1="$(median_for index_parallel_10k/wildcard_batch_probe_threads/1)"
P2="$(median_for index_parallel_10k/wildcard_batch_probe_threads/2)"
P4="$(median_for index_parallel_10k/wildcard_batch_probe_threads/4)"
I1="$(median_for ingest_parallel_10k/insert_expire_threads/1)"
I2="$(median_for ingest_parallel_10k/insert_expire_threads/2)"
I4="$(median_for ingest_parallel_10k/insert_expire_threads/4)"
M1="$(median_for migrate_parallel_10k/bitaddr_sharded_rebucket_threads/1)"
M2="$(median_for migrate_parallel_10k/bitaddr_sharded_rebucket_threads/2)"
M4="$(median_for migrate_parallel_10k/bitaddr_sharded_rebucket_threads/4)"
CORES="$(nproc)"
# A <4-core recording only happens under --force (the guard above exits
# otherwise). Stamp it explicitly so downstream readers of the JSON know
# the 4-thread column oversubscribes the host.
DEGRADED=false
if [[ "$CORES" -lt 4 ]]; then DEGRADED=true; fi

jq -n \
    --argjson p1 "$P1" --argjson p2 "$P2" --argjson p4 "$P4" \
    --argjson i1 "$I1" --argjson i2 "$I2" --argjson i4 "$I4" \
    --argjson m1 "$M1" --argjson m2 "$M2" --argjson m4 "$M4" \
    --argjson cores "$CORES" --argjson runs "$BENCH_RUNS" \
    --argjson degraded "$DEGRADED" \
    --arg kernel "$(uname -sr)" --arg arch "$(uname -m)" '
{
  description: "Scaling evidence for the multicore tentpole, full pipeline: three benches over the identical 10k-entry 4-shard BitAddressIndex through the engine WorkerPool at 1, 2 and 4 threads. index_parallel_10k/wildcard_batch_probe_threads probes 64 single-attribute-wildcard requests (2^16 candidate buckets each), one sized dispatch per request through search_into of the index (recordings made before the multi-request batch path was removed timed one dispatch per 64-request batch: history, not a baseline for this loop); ingest_parallel_10k/insert_expire_threads runs the staged write path (10k inserts in 256-tuple bursts, each burst applied per shard through the pool, then one staged whole-window expiry); migrate_parallel_10k/bitaddr_sharded_rebucket_threads reconfigures [8,8,8] -> [4,10,10] via the shard-crossing gather+redistribute protocol. Index, shard count and inputs are identical across thread counts and every result is byte-identical by construction, so the ids differ only in executor parallelism. Every dispatch passes the work-size gate of the pool (WorkerPool::threads_for, asked by for_each_slot, against HANDOFF_NS in runtime/pool.rs; a dispatch past it runs on scoped threads) as it does in the engine: at 10k entries every dispatch here is sized below it (a wide probe 10 us, a 256-op ingest burst 2.6 us, the 10k-op expiry and each migration pass 100 us, against 250 us), so all three benches run on the caller at every thread count and measure that the gate costs nothing, not that threads help.",
  regenerate: "scripts/bench_parallel.sh  # best-of-N medians; BENCH_RUNS to change N",
  environment: {
    cores: $cores,
    degraded_environment: $degraded,
    bench_runs: $runs,
    kernel: $kernel,
    arch: $arch,
    profile: "bench (lto=thin, codegen-units=1)",
    entries_per_index: 10000,
    shards: 4,
    batch_requests: 64,
    ingest_burst: 256
  },
  micro_index_median_ns: {
    "index_parallel_10k/wildcard_batch_probe_threads/1": $p1,
    "index_parallel_10k/wildcard_batch_probe_threads/2": $p2,
    "index_parallel_10k/wildcard_batch_probe_threads/4": $p4,
    "ingest_parallel_10k/insert_expire_threads/1": $i1,
    "ingest_parallel_10k/insert_expire_threads/2": $i2,
    "ingest_parallel_10k/insert_expire_threads/4": $i4,
    "migrate_parallel_10k/bitaddr_sharded_rebucket_threads/1": $m1,
    "migrate_parallel_10k/bitaddr_sharded_rebucket_threads/2": $m2,
    "migrate_parallel_10k/bitaddr_sharded_rebucket_threads/4": $m4
  },
  speedup_vs_1_thread: {
    probe:   { threads_2: (($p1 / $p2 * 100 | round) / 100), threads_4: (($p1 / $p4 * 100 | round) / 100) },
    ingest:  { threads_2: (($i1 / $i2 * 100 | round) / 100), threads_4: (($i1 / $i4 * 100 | round) / 100) },
    migrate: { threads_2: (($m1 / $m2 * 100 | round) / 100), threads_4: (($m1 / $m4 * 100 | round) / 100) }
  },
  note: (
    if $cores >= 4 then
      "Measured on a \($cores)-core host; the >= 2.0x-at-4-threads target applies to the probe and migrate benches (parallel fraction ~1.0). Staged ingest keeps its arena/window half sequential by design, so its ceiling is set by the index-linking share of the write path."
    else
      "Measured on a \($cores)-core host: the 1-vs-2-thread columns are what this host can show (with 1 core, not even those); the 4-thread column oversubscribes it. A ratio near 1.0 means the dispatch ran on the caller (gated); separate runs of one id spread about +-10% on this host (the ingest id at threads 1 read 3.9-4.8 ms over five runs), so ratios within 0.1 of 1.0 are a tie. The first recording of this file (1 core, before the gate, every dispatch handed off) read probe 0.57x, ingest 0.79-0.88x and migrate 0.41-0.47x at 2-4 threads: a dispatch overhead of 1.3-2.4x. The >= 2.0x-at-4-threads target is unproven: it needs >= 4 cores and dispatches large enough to clear the gate."
    end
  )
}' > BENCH_parallel.json

echo "==> wrote BENCH_parallel.json"
jq '{cores: .environment.cores, degraded: .environment.degraded_environment, medians: .micro_index_median_ns, speedup: .speedup_vs_1_thread}' BENCH_parallel.json
