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
# backends no assessor ran on.
echo "==> one step loop under crates/ tests/ examples/"
if grep -rnE 'Operator<|SampleOperator|TuneOperator|IngestOperator|ProbeOperator|EngineSetup|RunParams|WallClock|CountMin|MisraGries|SpaceSaving' \
    crates tests examples; then
    echo "the operator framework, WallClock or a deleted heavy-hitter backend reappeared"; exit 1
fi

# Nor may the block cache's water marks or the preload step: the cache
# evicts only until a newcomer fits, and a batch fetches each distinct
# block once through `SpillTier::fetch_batch` (DESIGN §10, the read fast
# path).
echo "==> exact-fit cache, one read path per batch under crates/ tests/ examples/"
if grep -rnE 'CACHE_HIGH_WATER|CACHE_LOW_WATER|preload_missing' crates tests examples; then
    echo "a cache water mark or the preload step reappeared"; exit 1
fi

# Nor may the per-bucket map, its records or the tail-append link of the
# bit-address index: a shard is one slab of entry heads, a value stride and
# a directory of chain heads (DESIGN §4). Nor a decoding pop on the probe
# or shedding path: a job is read where it lies, through a view of its
# packed words, and a shed job is discarded unread (DESIGN §5).
echo "==> one index entry layout; no decoded job on the probe or shedding path"
if grep -nE 'link_at_tail|struct Bucket|FxHashMap<u64' crates/core/src/bitaddr.rs; then
    echo "the bucket map, a Bucket record or a tail pointer reappeared in bitaddr.rs"; exit 1
fi
if grep -nE 'backlog\.pop\(\)|pop_newest\(\)' \
    crates/engine/src/runtime/operators.rs crates/engine/src/runtime/degrade.rs; then
    echo "a decoding pop reappeared on the probe or shedding path"; exit 1
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

# Sharded work borrows its slots through `parallel::for_each_slot`; that
# file is the only one in the core crate allowed to say `unsafe`.
echo "==> crates/core/src: unsafe only in parallel.rs"
if grep -rlw unsafe crates/core/src | grep -v '^crates/core/src/parallel\.rs$'; then
    echo "unsafe outside crates/core/src/parallel.rs"; exit 1
fi

# The engine's one lifetime erasure lives behind `pool::erase_lifetime`.
echo "==> crates/engine/src: unsafe only in runtime/pool.rs"
if grep -rlw unsafe crates/engine/src | grep -v '^crates/engine/src/runtime/pool\.rs$'; then
    echo "unsafe outside crates/engine/src/runtime/pool.rs"; exit 1
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
# in the answer, cached ≡ cacheless modulo the cache counters, hosted ≡
# solo ≡ migrated. Exits non-zero naming every violated edge or
# expectation — a vacuous one included — and the name reproduces it:
# matrix --quick --seed 42 --only <name>.
echo "==> identity lattice"
cargo run --release -q -p amri-bench --bin matrix -- --quick

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

# Nor may a spilled window lose to its all-RAM twin by what the cache
# should have saved: one short traced run of the spilling workload. The
# hit rate is a count — a function of the seed alone — and at 64 KiB of
# cache over a ~78 KB live set per state it read 0.76 while the water
# marks used half the budget and batches evicted their own blocks; the
# speedup then read 0.35–0.43.
echo "==> a 64 KiB block cache holds 64 KiB (spill_ckpt, traced)"
TIER_RUN="$(mktemp)"
bash benchmark/run.sh --workload spill_ckpt --seed 7 --seconds 4 --trace 1 > "${TIER_RUN}"
awk '$1 == "core.tier.cache_hit_frac" { hit = 1; print; if ($2 + 0 < 0.9) exit 1 }
     $1 == "core.tier.speedup_vs_ram" { fast = 1; print; if ($2 + 0 < 0.55) exit 1 }
     END { if (!hit || !fast) exit 1 }' "${TIER_RUN}" \
    || { echo "core.tier.cache_hit_frac below 0.9, core.tier.speedup_vs_ram below 0.55, or either missing"; exit 1; }
rm -f "${TIER_RUN}"

echo "CI green."
