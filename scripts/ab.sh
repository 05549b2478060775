#!/usr/bin/env bash
# Same-time A/B pairs of two revisions on benchmark workloads.
#
#   scripts/ab.sh <rev-a> <rev-b> <workload[,workload...]> <pairs> [seed] [seconds]
#
# A revision is anything `git rev-parse` accepts, or `.` for the working
# tree (tracked and untracked files that .gitignore does not exclude).
# Several workloads, comma-separated, share one pair of builds and run one
# after the other. `seed` defaults to 42 and `seconds` to 20, the
# benchmark's run length.
#
# Why pairs run at the same time: this host's speed drifts by more than
# the changes it is asked to judge. Sequential pairs read that drift as a
# result — 2 s alternating paper_amri pairs of two builds spread from 0.63
# to 1.50 in one session, and whole suites run one after the other read
# the same binaries 0.64–0.94× apart. Two runs that share the same seconds
# share the host's phase, so each pair runs both binaries at once, each
# pinned with `taskset` to its own core, and the cores swap from pair to
# pair so neither side keeps the faster core. The cost: a run that wants
# two cores gets one. At parallelism 2, `sharded_mt`'s threads are confined
# to one core, so its pairs judge the per-operation cost of the sharded
# path, not its parallel speedup.
#
# Both revisions are exported under one scratch root at paths of equal
# length (`<root>/a`, `<root>/b`) and built there, each with its own
# CARGO_TARGET_DIR: code placement follows the checkout path, and
# `Shard::probe`'s residue mod 64 is printed for both builds because some
# residues slow a workload by themselves (ROADMAP item 2). A mismatch is
# flagged, not refused.
#
# Output, per end-to-end metric of BENCHMARK.json: each side's median and
# quartiles, the median of the per-pair ratios B/A, the pairs B won (by
# the metric's `better` direction; ties count for neither) and the exact
# two-sided sign-test p over the untied pairs. Then whether every pair
# agreed on the run's answers (outputs, digest, retunes, fingerprint) and
# on `correct`. The root is kept for inspection and its path printed; it
# holds two release target directories, so remove it afterwards.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 6 ]; then
    echo "usage: scripts/ab.sh <rev-a> <rev-b> <workload> <pairs> [seed] [seconds]" >&2
    exit 2
fi
rev_a="$1" rev_b="$2" workloads="$3" pairs="$4" seed="${5:-42}" seconds="${6:-20}"
case "$pairs$seed" in *[!0-9]*) echo "pairs and seed must be integers" >&2; exit 2 ;; esac
if [ "$(nproc)" -lt 2 ]; then
    echo "scripts/ab.sh needs two cores to run a pair at the same time" >&2
    exit 2
fi

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
root="$(mktemp -d "${TMPDIR:-/tmp}/amri-ab-XXXXXX")"

# Export one revision into <root>/<side>/src.
export_rev() {
    local rev="$1" dest="$2/src"
    mkdir -p "$dest"
    if [ "$rev" = "." ]; then
        git -C "$repo" ls-files -z --cached --others --exclude-standard \
            | (cd "$repo" && while IFS= read -r -d '' f; do
                   [ -e "$f" ] && printf '%s\0' "$f"
               done) \
            | tar -C "$repo" --null -T - -cf - | tar -C "$dest" -xf -
    else
        git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$rev^{commit}")" \
            | tar -C "$dest" -xf -
    fi
}

for side in a b; do
    if [ "$side" = a ]; then rev="$rev_a"; else rev="$rev_b"; fi
    export_rev "$rev" "$root/$side"
    echo "==> building $side ($rev) in $root/$side" >&2
    CARGO_TARGET_DIR="$root/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$root/$side/src/benchmark/Cargo.toml" >&2
done

# `Shard::probe`'s address mod 64 (bash arithmetic: mawk reads hex as 0).
residue() {
    local addr
    addr="$(nm -C "$root/$1/target/release/amri-benchmark" \
        | awk '/ amri_core::bitaddr::Shard::probe$/ { print $1; exit }')"
    if [ -z "$addr" ]; then echo "none"; else echo $(( 16#$addr % 64 )); fi
}
res_a="$(residue a)" res_b="$(residue b)"
echo "Shard::probe residue mod 64: a $res_a, b $res_b$([ "$res_a" = "$res_b" ] || echo '  (MISMATCH: placement may move wall time by itself)')"

report() {
    local workload="$1"
    mkdir -p "$root/runs/$workload"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then core_a=0 core_b=1; else core_a=1 core_b=0; fi
        for side in a b; do
            if [ "$side" = a ]; then core="$core_a"; else core="$core_b"; fi
            taskset -c "$core" "$root/$side/target/release/amri-benchmark" \
                --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                > "$root/runs/$workload/$side.$i" 2> "$root/runs/$workload/$side.$i.err" &
        done
        wait
        echo "$workload: pair $((i + 1))/$pairs done (a on core $core_a)" >&2
    done

    # The last line of a run is its contract JSON: `correct`, `failed` and the
    # end-to-end metrics' values. The `#suite` line carries the answers.
    for ((i = 0; i < pairs; i++)); do
        for side in a b; do
            awk -v side="$side" -v pair="$i" '
                /^#suite / {
                    s = $0; sub(/.*"digest":/, "", s); sub(/,"metrics".*/, "", s)
                    print "answers", side, pair, s
                }
                /^\{"correct":/ { last = $0 }
                END {
                    s = last; sub(/^\{"correct":/, "", s); sub(/,.*/, "", s)
                    print "correct", side, pair, s
                    s = last; sub(/.*"failed":/, "", s); sub(/,.*/, "", s)
                    print "failed", side, pair, s
                    s = last; sub(/.*"metrics":\{/, "", s)
                    n = split(s, parts, /\},?/)
                    for (k = 1; k <= n; k++) {
                        if (parts[k] !~ /"value":/) continue
                        name = parts[k]; sub(/^"/, "", name); sub(/".*/, "", name)
                        v = parts[k]; sub(/.*"value":/, "", v); sub(/,.*/, "", v)
                        print "metric", side, pair, name, v
                    }
                }' "$root/runs/$workload/$side.$i"
        done
    done > "$root/runs/$workload/table"

    # Metric directions, from BENCHMARK.json's end_to_end list.
    awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
         on && /"name"/ { n = $0; gsub(/.*"name": *"|".*/, "", n) }
         on && /"better"/ { b = $0; gsub(/.*"better": *"|".*/, "", b); print "better", n, b }' \
        "$repo/BENCHMARK.json" >> "$root/runs/$workload/table"

    awk -v pairs="$pairs" -v rev_a="$rev_a" -v rev_b="$rev_b" -v wl="$workload" \
        -v seed="$seed" -v secs="$seconds" '
        function sort(arr, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = arr[i]
                for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
                arr[j + 1] = t
            }
        }
        # Quantile q of the n sorted values, linearly interpolated.
        function quant(arr, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            if (lo >= n) return arr[n]
            return arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo])
        }
        # Exact two-sided sign-test p for k wins of n untied pairs.
        function sign_p(k, n,    m, i, c, tail, p) {
            if (n == 0) return 1
            m = k < n - k ? k : n - k
            c = 1; tail = 0
            for (i = 0; i <= m; i++) {
                tail += c
                c = c * (n - i) / (i + 1)
            }
            p = 2 * tail / 2 ^ n
            return p > 1 ? 1 : p
        }
        $1 == "metric" { val[$2, $3, $4] = $5; if (!($4 in seen)) { seen[$4] = 1; order[++names] = $4 } }
        $1 == "better" { better[$2] = $3 }
        $1 == "correct" { if ($4 != "true") wrong++ }
        $1 == "failed" { failed += $4 }
        $1 == "answers" { ans[$2, $3] = $0; sub(/^answers [ab] [0-9]+ /, "", ans[$2, $3]) }
        END {
            printf "%s: a = %s, b = %s, seed %s, %s s, %d same-time pairs\n", wl, rev_a, rev_b, seed, secs, pairs
            printf "%-20s %12s %12s %12s   %12s %12s %12s   %8s %6s %8s\n", "metric", "a_q1", "a_median", "a_q3", "b_q1", "b_median", "b_q3", "b/a", "wins", "sign_p"
            for (m = 1; m <= names; m++) {
                name = order[m]
                wins = 0; ties = 0
                for (i = 0; i < pairs; i++) {
                    a[i + 1] = val["a", i, name]; b[i + 1] = val["b", i, name]
                    r[i + 1] = a[i + 1] == 0 ? (b[i + 1] == 0 ? 1 : 0) : b[i + 1] / a[i + 1]
                    if (a[i + 1] == b[i + 1]) ties++
                    else if ((better[name] == "higher") == (b[i + 1] > a[i + 1])) wins++
                }
                sort(a, pairs); sort(b, pairs); sort(r, pairs)
                printf "%-20s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f   %8.4f %3d/%-2d %8.4f\n", name,
                    quant(a, pairs, 0.25), quant(a, pairs, 0.5), quant(a, pairs, 0.75),
                    quant(b, pairs, 0.25), quant(b, pairs, 0.5), quant(b, pairs, 0.75),
                    quant(r, pairs, 0.5), wins, pairs, sign_p(wins, pairs - ties)
            }
            same = 1
            for (i = 0; i < pairs; i++) if (ans["a", i] != ans["b", i] || ans["a", i] != ans["a", 0]) same = 0
            print "answers: " (same ? "identical in every run: " ans["a", 0] : "DIFFER between runs")
            print "correct: " (wrong ? wrong " run(s) not correct" : "every run") "; failed operations: " failed + 0
        }' "$root/runs/$workload/table"
}

IFS=, read -r -a names <<< "$workloads"
for workload in "${names[@]}"; do
    report "$workload"
done
echo "runs kept in $root (remove it when done: two release target directories)"
