#!/usr/bin/env bash
# CI gate: format, lint, build, test. Everything runs offline against the
# vendored shims in shims/ — no network, no registry fetches.
set -euo pipefail
cd "$(dirname "$0")/.."

# diff_without A.csv B.csv NAME...: diff two CSVs with the columns the
# header calls NAME... dropped from both. Fails — rather than comparing
# the wrong columns — when either header lacks one of the names.
diff_without() {
    local a="$1" b="$2" side
    shift 2
    for side in "$a" "$b"; do
        awk -F, -v OFS=, -v names="$*" '
            NR == 1 {
                n = split(names, want, " ")
                for (i = 1; i <= n; i++) {
                    for (c = 1; c <= NF && $c != want[i]; c++);
                    if (c > NF) {
                        print FILENAME ": no column named " want[i] > "/dev/stderr"
                        exit 2
                    }
                    drop[c] = 1
                }
            }
            {
                row = ""
                for (c = 1; c <= NF; c++) if (!(c in drop)) row = row (row == "" ? "" : OFS) $c
                print row
            }' "$side" > "${side}.kept" || return 2
    done
    diff "${a}.kept" "${b}.kept"
}

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

# Sharded work borrows its slots through `parallel::for_each_slot`; that
# file is the only one in the core crate allowed to say `unsafe`.
echo "==> crates/core/src: unsafe only in parallel.rs"
if grep -rlw unsafe crates/core/src | grep -v '^crates/core/src/parallel\.rs$'; then
    echo "unsafe outside crates/core/src/parallel.rs"; exit 1
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

# Fault-injection smoke matrix: every fault kind x every shedding policy at
# quick scale, plus same-seed replay checks. Survives in a few seconds and
# exits non-zero listing any cell that died or diverged.
echo "==> fault-injection smoke matrix"
cargo run --release -q -p amri-bench --bin fault_matrix

# Determinism under parallelism: the same quick-scale sweep run twice at
# --threads 4 must emit byte-identical summary CSVs. A --threads 4 sweep
# now drives the whole parallel pipeline — staged per-shard ingest
# (insert/expire), sharded probe, and per-shard migration all fan out
# over the worker pool — so thread scheduling must be unobservable in
# every column, including the maintenance-tick (ingest_ns/migrate_ns)
# accounting, and the fault matrix's replay checks must stay green with
# the pool engaged.
echo "==> determinism under parallelism (--threads 4)"
PAR_A="$(mktemp -d)"
PAR_B="$(mktemp -d)"
SEQ_DIR="$(mktemp -d)"
trap 'rm -rf "$PAR_A" "$PAR_B" "$SEQ_DIR"' EXIT
(cd "$PAR_A" && "$OLDPWD"/target/release/all_experiments --quick --threads 4 > /dev/null)
(cd "$PAR_B" && "$OLDPWD"/target/release/all_experiments --quick --threads 4 > /dev/null)
for csv in fig6_assessment_summary fig6_hash_summary fig7_compare_summary; do
    diff "$PAR_A/results/${csv}.csv" "$PAR_B/results/${csv}.csv" \
        || { echo "parallel run diverged: ${csv}"; exit 1; }
done
echo "summary CSVs identical across repeated --threads 4 sweeps"

# Cross-thread-count equivalence: a --threads 1 sweep must match the
# --threads 4 one byte-for-byte — the tentpole invariant (parallel ingest,
# probe and migration are pure implementation detail). Series CSVs carry
# no thread count and must be identical verbatim; summary CSVs record the
# thread count in the `threads` column, which is dropped from both sides
# before the diff so every *measured* column (outputs, peaks, retunes,
# faults, ingest_ns/migrate_ns/migrate_stalls) must agree exactly.
echo "==> ingest-parallel equivalence (--threads 1 vs --threads 4)"
(cd "$SEQ_DIR" && "$OLDPWD"/target/release/all_experiments --quick --threads 1 > /dev/null)
for csv in fig6_assessment fig6_hash fig7_compare; do
    diff "$SEQ_DIR/results/${csv}.csv" "$PAR_A/results/${csv}.csv" \
        || { echo "thread counts diverged: ${csv}"; exit 1; }
done
for csv in fig6_assessment_summary fig6_hash_summary fig7_compare_summary; do
    diff_without "$SEQ_DIR/results/${csv}.csv" "$PAR_A/results/${csv}.csv" threads \
        || { echo "thread counts diverged: ${csv}"; exit 1; }
done
echo "--threads 1 and --threads 4 sweeps byte-identical (modulo the recorded thread count)"

echo "==> fault-injection replay at --threads 4 (staged parallel ingest engaged)"
cargo run --release -q -p amri-bench --bin fault_matrix -- --threads 4

# Crash-recovery replay: every indexing mode is crashed at a mid-run step,
# resumed from its latest snapshot, and the resumed summary CSV must be
# byte-identical to the uninterrupted baseline's — sequentially and with
# the worker pool engaged. The bin itself exits non-zero on divergence;
# the explicit diff below keeps the byte-identity claim visible in CI.
for threads in 1 4; do
    echo "==> crash-resume replay (--threads ${threads})"
    CRASH_OUT="$(mktemp -d)"
    cargo run --release -q -p amri-bench --bin crash_matrix -- \
        --quick --threads "${threads}" --out "${CRASH_OUT}"
    diff "${CRASH_OUT}/baseline_summary.csv" "${CRASH_OUT}/resumed_summary.csv" \
        || { echo "crash-resume summary diverged at --threads ${threads}"; exit 1; }
    echo "resumed summary byte-identical at --threads ${threads}"
    rm -rf "${CRASH_OUT}"
done

# Torn-snapshot fallback: the latest snapshot is corrupted in flight; the
# checksum must reject it and recovery must fall back to the previous good
# image, still landing byte-identical.
echo "==> torn-snapshot fallback"
CRASH_OUT="$(mktemp -d)"
cargo run --release -q -p amri-bench --bin crash_matrix -- \
    --quick --torn --out "${CRASH_OUT}"
diff "${CRASH_OUT}/baseline_summary.csv" "${CRASH_OUT}/resumed_summary.csv" \
    || { echo "torn-snapshot fallback diverged"; exit 1; }
echo "torn latest snapshot skipped, fallback byte-identical"
rm -rf "${CRASH_OUT}"

# Spill-tier acceptance: every indexing mode is run under a budget that
# kills the all-RAM engine; the same budget with a disk spill tier must
# complete with the unconstrained outputs and output digest (the identity
# storage profile charges no virtual time), crash+resume with the tier
# active must be byte-identical, and the seeded disk-fault storm (torn
# writes, double read failures, latency spikes) must end typed —
# Completed or Degraded matching the loss counters, never a panic — and
# replay bit-for-bit. The bin exits non-zero on any violation; the diffs
# below additionally pin that every measured column of the spilled
# summary — spill counters included — is byte-identical across thread
# counts (the recorded thread count dropped as above).
echo "==> spill-tier matrix (OOM budget survives via disk, identical across threads)"
SPILL_A="$(mktemp -d)"
SPILL_B="$(mktemp -d)"
cargo run --release -q -p amri-bench --bin spill_matrix -- \
    --quick --threads 1 --spill-cache 262144 --out "${SPILL_A}"
cargo run --release -q -p amri-bench --bin spill_matrix -- \
    --quick --threads 4 --spill-cache 262144 --out "${SPILL_B}"
diff_without "${SPILL_A}/spilled_summary.csv" "${SPILL_B}/spilled_summary.csv" threads \
    || { echo "spilled summary diverged across thread counts"; exit 1; }
diff "${SPILL_A}/spill_identity.csv" "${SPILL_B}/spill_identity.csv" \
    || { echo "spill identity report diverged across thread counts"; exit 1; }
# The spill fast path (decoded-block cache + coalesced reads + readahead)
# must be a pure acceleration: the cache-enabled cell's summary, with the
# five cache-counter columns dropped, must be byte-identical to the
# cacheless cell's at both thread counts — and byte-identical across
# thread counts with the cache counters *included*.
for d in "${SPILL_A}" "${SPILL_B}"; do
    diff_without "${d}/spilled_summary.csv" "${d}/spilled_cached_summary.csv" \
        cache_hits cache_misses coalesced_reads prefetched_blocks cache_evictions \
        || { echo "cache-enabled spill run diverged from the cacheless one"; exit 1; }
done
diff_without "${SPILL_A}/spilled_cached_summary.csv" "${SPILL_B}/spilled_cached_summary.csv" threads \
    || { echo "cached spilled summary diverged across thread counts"; exit 1; }
echo "spill matrix green: beyond-RAM windows, byte-identical across threads 1 and 4, cache on or off"
rm -rf "${SPILL_A}" "${SPILL_B}"

# Safe-tuning duel: paper vs bandit vs static on both drift schedules.
# The retune decisions — including the bandit's arm statistics, backoff
# timers and RNG draws — all happen on the sequential tune path, so the
# same-seed duel must emit a byte-identical summary CSV (regret/thrash
# columns included) at --threads 1 and --threads 4, the recorded thread
# count dropped as above.
echo "==> tuner duel replay (--threads 1 vs --threads 4)"
DUEL_A="$(mktemp -d)"
DUEL_B="$(mktemp -d)"
(cd "$DUEL_A" && "$OLDPWD"/target/release/tuner_duel --quick --threads 1 > /dev/null)
(cd "$DUEL_B" && "$OLDPWD"/target/release/tuner_duel --quick --threads 4 > /dev/null)
diff_without "$DUEL_A/results/tuner_duel_summary.csv" "$DUEL_B/results/tuner_duel_summary.csv" threads \
    || { echo "tuner duel diverged across thread counts"; exit 1; }
echo "tuner duel byte-identical across threads 1 and 4"
rm -rf "$DUEL_A" "$DUEL_B"

# Bandit tuner state through crash+resume: the arm statistics, pending
# retune, backoff level and RNG stream all ride the snapshot, so a
# crash-at-k + resume under --tuner bandit must stay byte-identical —
# including the amri-governed-faulted cell, where the snapshot also
# carries an active fault plan.
echo "==> crash-resume replay (--tuner bandit)"
CRASH_OUT="$(mktemp -d)"
cargo run --release -q -p amri-bench --bin crash_matrix -- \
    --quick --tuner bandit --out "${CRASH_OUT}"
diff "${CRASH_OUT}/baseline_summary.csv" "${CRASH_OUT}/resumed_summary.csv" \
    || { echo "bandit crash-resume summary diverged"; exit 1; }
echo "bandit tuner state byte-identical through crash+resume"
rm -rf "${CRASH_OUT}"

# Fleet-sweep smoke: the same four-cell sweep (mixed indexing modes, one
# tenant forced through the admission queue) run three ways — hosted in
# one TenantHost, solo with no host anywhere, and hosted with a mid-sweep
# suspend-to-disk / resume-in-a-fresh-host migration. All three merged
# summary CSVs must be byte-identical: co-residency and suspend/resume
# are invisible in every measured column.
echo "==> fleet-sweep smoke (4 tenants, mixed modes)"
FLEET_DIR="$(mktemp -d)"
(cd "$FLEET_DIR" && "$OLDPWD"/target/release/fleet_sweep > /dev/null)
(cd "$FLEET_DIR" && "$OLDPWD"/target/release/fleet_sweep --solo > /dev/null)
(cd "$FLEET_DIR" && "$OLDPWD"/target/release/fleet_sweep --migrate > /dev/null)
diff "$FLEET_DIR/results/fleet_summary.csv" "$FLEET_DIR/results/fleet_solo_summary.csv" \
    || { echo "hosted fleet diverged from solo runs"; exit 1; }
diff "$FLEET_DIR/results/fleet_summary.csv" "$FLEET_DIR/results/fleet_migrated_summary.csv" \
    || { echo "migrated fleet diverged from uninterrupted hosted run"; exit 1; }
echo "hosted, solo and migrated fleet summaries byte-identical"
rm -rf "$FLEET_DIR"

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

echo "CI green."
