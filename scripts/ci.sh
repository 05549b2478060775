#!/usr/bin/env bash
# CI gate: format, lint, build, test. Everything runs offline against the
# vendored shims in shims/ — no network, no registry fetches.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# Every deprecated wrapper was removed with its sibling path; none may
# grow back.
echo "==> no deprecated items under crates/ tests/ examples/"
if grep -rn deprecated crates tests examples; then echo "a deprecated item reappeared"; exit 1; fi

# Nor may the fused ingest–probe–readahead dispatch, which no probe of any
# benchmark workload ever handed to a worker (DESIGN §4).
echo "==> no fused-dispatch machinery under crates/ tests/ examples/"
if grep -rnE 'SideTasks|run_fused|take_fire|run_leftover|apply_stage_then_search|take_prefetch_io' \
    crates tests examples; then
    echo "the fused dispatch reappeared"; exit 1
fi

# Nor may the staged-ingest layer: every insert, expiry and eviction links
# or unlinks its index entry in the call that charges it, so the store has
# one insert, one expire and one evict and the index no staging hooks
# (DESIGN §4). Whole words, so a test named after a behaviour does not
# trip it.
echo "==> index maintenance at arrival: no staged ingest under crates/ tests/ examples/"
if grep -rnwE 'StagedOp|stage_insert|stage_remove|apply_stage|insert_staged|expire_staged|apply_staged|ingest_stage|evict_oldest_with' \
    crates tests examples; then
    echo "the staged-ingest layer reappeared"; exit 1
fi

# Nor may the three sibling tuner structs: the policies are points of one
# `Tuner::maybe_retune` (DESIGN §11).
echo "==> one Tuner under crates/ tests/ examples/"
if grep -rnE 'IndexTuner|BanditTuner|StaticTuner' crates tests examples; then
    echo "a sibling tuner struct reappeared"; exit 1
fi

# Nor may the batch API no caller ever used: the backlog hands out jobs,
# one per probe step (DESIGN §5).
echo "==> no Batch API under crates/ tests/ examples/"
if grep -rnE 'pop_batch|push_batch|Batch<' crates tests examples; then
    echo "the Batch API reappeared"; exit 1
fi

# Nor may the four identity bins or the CSV column-dropper: the lattice is
# one table checked in process (DESIGN.md § The identity lattice). The
# names are bracketed so that this guard does not find itself.
echo "==> one identity harness under crates/ scripts/"
if grep -rnE 'crash_matri[x]|fault_matri[x]|spill_matri[x]|fleet_swee[p]|diff_withou[t]' crates scripts; then
    echo "an identity bin or its CSV diff reappeared"; exit 1
fi

# Nor may the operator framework: the step loop is one function,
# `Pipeline::step_once`, over four plain step functions (DESIGN §5). Nor
# the wall-clock stub no run ever used, nor the three heavy-hitter
# backends no assessor ran on. Nor a heavy-hitter layer under the
# assessors: each of the four owns its summary (DESIGN §3b.1), so the
# generic counters, their traits, the pattern lattice and a second sort
# helper stay gone. Whole words, so a test named after a behaviour does
# not trip it.
echo "==> one step loop, assessors that own their summaries, under crates/ tests/ examples/"
if grep -rnE 'Operator<|SampleOperator|TuneOperator|IngestOperator|ProbeOperator|EngineSetup|RunParams|WallClock|CountMin|MisraGries|SpaceSaving' \
    crates tests examples \
    || grep -rnwE 'FrequencyEstimator|ExactCounter|LossyCounter|HierarchicalHeavyHitters|HhhConfig|PatternLattice|OrdKey|sort_frequent' \
    crates tests examples; then
    echo "the operator framework, WallClock, a deleted heavy-hitter backend or the layer under the assessors reappeared"
    exit 1
fi

# Nor may the block cache's water marks or the preload step: the cache
# evicts only until a newcomer fits, and a batch fetches each distinct
# block once through `SpillTier::fetch_batch` (DESIGN §10, the read fast
# path).
echo "==> exact-fit cache, one read path per batch under crates/ tests/ examples/"
if grep -rnE 'CACHE_HIGH_WATER|CACHE_LOW_WATER|preload_missing' crates tests examples; then
    echo "a cache water mark or the preload step reappeared"; exit 1
fi

# Nor may a second spill read path: `cache_bytes = 0` is a zero-byte block
# cache, so every materialization is a `materialize_batch` through
# `SpillTier::fetch_batch` (DESIGN §10). Nor a static-bitmap variant: the
# §V bitmap is AMRI under the static tuner (DESIGN §11).
echo "==> one spill read path, one bit-address state under crates/ tests/ examples/"
if grep -rnE 'cache_enabled|fn materialize\(|JoinState::StaticBitmap' crates tests examples; then
    echo "the cacheless read path or the StaticBitmap variant reappeared"; exit 1
fi

# Nor may the per-bucket map, its records or the tail-append link of the
# bit-address index: a shard is a slab of entry heads, a value stride
# beside it, 64-byte groups that list up to six entries of one bucket id
# with their tags, and a directory of group chains (DESIGN §4). Nor may the
# per-entry chain it replaced, whose re-pointing and unlinking helpers are
# matched as whole words. Nor a decoding pop on the probe or shedding path:
# a job is read where it lies, through a view of its packed words, and a
# shed job is discarded unread (DESIGN §5).
echo "==> one index entry layout; no decoded job on the probe or shedding path"
if grep -nE 'link_at_tail|struct Bucket|FxHashMap<u64' crates/core/src/bitaddr.rs; then
    echo "the bucket map, a Bucket record or a tail pointer reappeared in bitaddr.rs"; exit 1
fi
if grep -nwE 'repoint|unlink_and_remove' crates/core/src/bitaddr.rs; then
    echo "the per-entry chain reappeared in bitaddr.rs"; exit 1
fi
if grep -nE 'backlog\.pop\(\)' \
    crates/engine/src/runtime/operators.rs crates/engine/src/runtime/degrade.rs; then
    echo "a decoding pop reappeared on the probe or shedding path"; exit 1
fi

# Nor may a setting no caller sets, or a second copy of one: the spill
# tier's water marks, promotion floor and block size are constants of
# `amri_core::tier`, read by the balancer, the cost model and the host
# alike; a bad setting is one `EngineError::InvalidConfig`. Nor the public
# items no code read: the disk-fault report, the decoding newest-end pop,
# a second way to read a bucket's fill, and a second fan-out statistic.
# Whole words only, so a test named after a behaviour does not trip it.
echo "==> configuration is what callers set, under crates/ tests/ examples/"
if grep -rnwE 'TierPolicy|block_tuples|InvalidMode|InvalidDegradationPolicy|InvalidFaultPlan|IoFaultKind|io_faults_fired|FaultKind::Io|fn pop_newest\(|max_bucket|observed_fanout' \
    crates tests examples; then
    echo "a deleted setting, error variant or unread public item reappeared"; exit 1
fi

# Nor may a search loop decode its request per entry: every index flavor
# decodes it once (`SearchRequest::bound`), and a bit-address walk checks
# the entry's value tag before it reads the value stride (DESIGN §4). The
# test modules' `request.matches` reference filters are not search loops.
echo "==> one decoded request per search in bitaddr.rs, hash_index.rs, state.rs"
if awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^ *\/\// { next }
        /req(uest)?\.matches\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' \
    crates/core/src/bitaddr.rs crates/core/src/hash_index.rs crates/core/src/state.rs; then
    echo "a per-entry req.matches( reappeared in an index search loop"; exit 1
fi

# Nor may a second carrier of a run's maintenance totals: they are
# `RunResult::maint`, so no driver returns them beside the result and no
# report takes them as a parallel slice. Nor the checkpoint note, whose
# last producer was `survival_sweep --checkpoint-every` (the lattice's
# observed drive pins observer-mode checkpointing).
echo "==> one run result, maintenance totals inside it, under crates/ tests/ examples/"
if grep -rnE 'run_with_stats|into_result_with_stats|fig6_assessment_with_stats|fig6_hash_with_stats|CheckpointNote|parse_checkpoint_every' \
    crates tests examples; then
    echo "a (RunResult, MaintenanceStats) twin or the checkpoint note reappeared"; exit 1
fi

# Nor may a third join-state shape: a join state is a store plus what
# tunes it, AMRI's `Tuner` or the hash flavors' optional `HashTuner`, and
# the scan flavor is a hash module with no index (DESIGN §4). Whole words,
# so a test named after a behaviour does not trip it.
echo "==> two join-state shapes, no index type for scan, under crates/ tests/ examples/"
if grep -rnE 'JoinState::Scan' crates tests examples \
    || grep -rnwE 'AmriState|ScanIndex|RetuneReport|erased_store' crates tests examples; then
    echo "a scan variant, the AMRI wrapper, the scan index or the store-erasing macro reappeared"
    exit 1
fi

# Nor may a second holder of the router's state or a second seeded coin:
# `Router` holds the policy, one fan-out per state and the RNG (DESIGN §5),
# and every replayable random stream outside it draws from
# `amri_stream::coin` (DESIGN §8). Whole words, so a test named after a
# behaviour does not trip it.
echo "==> one router, one seeded coin, under crates/ tests/ examples/"
if grep -rnwE 'RoutingPolicy|RouterStats|policy_kind' crates tests examples; then
    echo "the routing policy or the router statistics split from the router again"; exit 1
fi
if grep -rln '0xBF58_476D_1CE4_E5B9' crates/*/src | grep -v '^crates/stream/src/coin\.rs$'; then
    echo "a splitmix64 finalizer outside crates/stream/src/coin.rs"; exit 1
fi

# Nor may a second copy of a stored tuple's values: an arena slot is a
# fixed head plus the tuple's values, once, JAS first, in the state's value
# stride, and an access-module bucket packs `[key, JAS…]` words (DESIGN §4).
echo "==> one copy of each stored value in state.rs and hash_index.rs"
if grep -nE 'enum StoredTuple|jas_values: AttrVec' crates/core/src/state.rs; then
    echo "a per-slot Tuple with a second JAS AttrVec reappeared in state.rs"; exit 1
fi
if grep -nF 'Vec<(TupleKey, AttrVec)>' crates/core/src/hash_index.rs; then
    echo "a bucket of (TupleKey, AttrVec) pairs reappeared in hash_index.rs"; exit 1
fi

# Nor may a checkpoint hold a second copy: a snapshot carries no
# bit-address section (restore rebuilds the index from the store under the
# tuner's configuration), and nothing checks one copy of the store against
# another (DESIGN §8).
echo "==> a checkpoint holds each stored value once, under crates/*/src"
if grep -rnE '"BITADDR"|fn iter_entries|fn sub_entries|fn check_indexes|BitAddressIndex::restore' \
    crates/*/src; then
    echo "an index section or a store-against-index check reappeared"; exit 1
fi

# Nor may a checkpoint hold an index at all: `StateStore::search` sorts
# whatever an index served, so the order an access module lists its
# entries in is unobservable, a hash section is its masks alone, and every
# restore rebuilds its index from the store through `StateStore::reindex`
# (DESIGN §8). So no access module saves, restores or rebuilds itself, and
# the refusals of a `MULTIHASH` key list stay gone with the list.
echo "==> no access module has snapshot code; a checkpoint holds no index"
if grep -nE 'fn (save|restore|rebuild)\b' crates/core/src/hash_index.rs crates/core/src/bitaddr.rs; then
    echo "an access module's save, restore or rebuild reappeared"; exit 1
fi
if grep -rnE 'BitAddressIndex::rebuild|which no live slot holds' crates tests examples; then
    echo "BitAddressIndex::rebuild or a MULTIHASH key-list refusal reappeared"; exit 1
fi

# Sharded work runs on scoped threads over `chunks_mut` runs of its slots
# (`parallel::for_each_slot`), so the borrow checker proves them disjoint:
# no crate source says `unsafe`, and neither the persistent pool's
# lifetime-erased task pointer nor the raw-pointer slot arena may return.
# The counting allocators of the crates' own tests keep their
# `unsafe impl GlobalAlloc`; they are not under `src`.
echo "==> no unsafe under crates/*/src; no persistent-pool machinery under crates/ tests/ examples/"
if grep -rnw unsafe crates/*/src; then
    echo "unsafe reappeared under crates/*/src"; exit 1
fi
if grep -rnE 'transmute|SlotArena|erase_lifetime|worker_loop|run_sized' crates tests examples; then
    echo "the persistent pool's task hand-off or the slot arena reappeared"; exit 1
fi

# The spill tier opens its block file where the file is (re)created and
# nowhere else: a per-read or per-append open was most of a cold read.
echo "==> tier.rs opens the block file only in create / restore_from"
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^ *\/\// { next }
        match($0, /fn [a-z_0-9]+/) { current = substr($0, RSTART + 3, RLENGTH - 3) }
        /File::open|File::create|OpenOptions|open_truncated\(/ \
            && current !~ /^(create|restore_from|open_truncated)$/ {
            print FILENAME ":" FNR ": " $0; found = 1
        }
        END { exit !found }' crates/core/src/tier.rs; then
    echo "the block file is opened outside create / restore_from"; exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The identity lattice (DESIGN.md § The identity lattice): every family —
# faults, crash, spill, fleet, duel, figures — as one table of cells,
# edges and expectations, each distinct run driven once and compared in
# process: t4 ≡ t1 everywhere, replay ≡ replay, observed ≡ straight, crash
# + resume ≡ uninterrupted (plain, torn, bandit), spilled ≡ unconstrained
# in the answer, cached ≡ zero-byte cache modulo the cache counters,
# hosted ≡ solo ≡ migrated. Exits non-zero naming every violated edge or
# expectation — a vacuous one included — and the name reproduces it:
# matrix --quick --seed 42 --only <name>. Four seeds, about 10 s each on
# a 2-core host; seed 1 is the one whose torn spill once ended a storm
# cell in OOM, seed 5 the one whose hand-sized crash steps once resumed a
# tuned cell after its last retune.
for seed in 42 7 1 5; do
    echo "==> identity lattice, seed ${seed}"
    cargo run --release -q -p amri-bench --bin matrix -- --quick --seed "${seed}"
done

# The frozen benchmark package path-depends on crates/* but sits outside
# the workspace, so nothing above compiles it: build it against the
# current public API, then run every workload once at smoke scale — each
# checks its own identity (pass≡pass, t2≡t1, spilled≡all-RAM,
# resume≡uninterrupted, hosted≡solo) and the run exits non-zero on any
# violation.
echo "==> benchmark package builds against the current API; smoke identities hold"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
BENCH_SMOKE="$(mktemp)"
bash benchmark/run.sh --smoke --reps 1 --out "${BENCH_SMOKE}"
rm -f "${BENCH_SMOKE}"

# Parallelism must never lose to its own 1-thread twin: one short traced
# run of the parallel workload (exit 0 = every identity and the layer
# breakdown hold), its speedup read by metric name. Ungated, the pool's
# hand-off per probe step put this at 0.17.
echo "==> parallelism 2 keeps up with parallelism 1 (sharded_mt, traced)"
POOL_RUN="$(mktemp)"
bash benchmark/run.sh --workload sharded_mt --seed 7 --seconds 4 --trace 1 > "${POOL_RUN}"
awk '$1 == "engine.pool.speedup_vs_t1" { seen = 1; print; if ($2 + 0 < 0.8) exit 1 }
     END { if (!seen) exit 1 }' "${POOL_RUN}" \
    || { echo "engine.pool.speedup_vs_t1 missing or below 0.8"; exit 1; }
rm -f "${POOL_RUN}"

# Nor may a spilled window pay for what the cache should have saved: one
# short traced run of the spilling workload. The hit rate is a count — a
# function of the seed alone — and at 64 KiB of cache over a ~78 KB live
# set per state it read 0.76 while the water marks used half the budget
# and batches evicted their own blocks. The tier's own cost,
# `core.tier.materialize_batch_us` (wall µs per materialization batch), is
# gated as a ratio to `synth.attrs_ns` (wall ns per generated tuple), which
# the same run measures outside every engine layer: the host's speed moves
# both, so the ratio holds where a wall-clock ceiling did not (a ceiling of
# 3.0 µs failed about half its runs on unchanged code). Twenty runs at
# seed 7 on the 2-core reference host read the ratio 38.0–47.0 while
# materialize_batch_us alone read 1.98–3.00, so the bound sits at 52. A
# planted spin per `SpillTier::fetch_batch` call read 49.6 at 300 ns, 53.0
# and 50.7 at 400 ns (about +17 % on the batch), 53.2 at 500 ns and 55.9
# at 700 ns; the half-budget cache reads 78–82 and fails the hit rate. The ratio to the all-RAM twin is
# not gated: every RAM-path speedup lowers it.
echo "==> a 64 KiB block cache holds 64 KiB and a batch costs what it did (spill_ckpt, traced)"
TIER_RUN="$(mktemp)"
bash benchmark/run.sh --workload spill_ckpt --seed 7 --seconds 4 --trace 1 > "${TIER_RUN}"
awk '$1 == "core.tier.cache_hit_frac" { hit = $2 + 0; seen_hit = 1; print }
     $1 == "core.tier.materialize_batch_us" { cost = $2 + 0; print }
     $1 == "synth.attrs_ns" { ref = $2 + 0; print }
     END {
         if (!seen_hit || cost <= 0 || ref <= 0) exit 1
         ratio = cost * 1000 / ref
         printf "materialize_batch_us / synth.attrs_ns (ns per ns) %.2f\n", ratio
         if (hit < 0.9 || ratio > 52) exit 1
     }' "${TIER_RUN}" \
    || { echo "core.tier.cache_hit_frac below 0.9, materialize_batch_us / synth.attrs_ns above 52, or a metric missing"; exit 1; }
rm -f "${TIER_RUN}"

echo "CI green."
