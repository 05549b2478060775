#!/usr/bin/env bash
# Sample where one benchmark run spends its wall time.
#
#   scripts/profile.sh <workload> <seed> <seconds> [function]
#   scripts/profile.sh fleet_lineup 7 8
#   scripts/profile.sh fleet_lineup 7 8 Arena::scan_into
#
# Builds benchmark/'s amri-benchmark (as benchmark/run.sh does), compiles a
# small LD_PRELOAD sampler with the system gcc, and runs
# `amri-benchmark --workload W --seed S --seconds T --trace 0` under it. The
# sampler arms a CLOCK_MONOTONIC timer that raises SIGPROF every 50 us and
# records the interrupted instruction pointer; at exit it writes the
# samples and a copy of /proc/self/maps. The samples inside the binary are
# symbolized with `llvm-symbolizer --inlining`, and four tables print, each
# as shares of all samples: the innermost (inlined) frames, the outermost
# real functions those frames were inlined into, the source lines of the
# innermost frames, and the samples outside the binary by the library
# (mapping) they hit.
#
# With a fourth argument, a fifth table breaks down the samples of every
# function whose name contains it, inlined frames included: each sample
# whose inline chain holds such a frame counts under that frame's own
# source line, followed — when the sample sits in a function inlined into
# it — by the innermost frame's function and line.
#
# Diagnostics only: nothing here gates CI, and the benchmark's own output
# goes to the run directory, not to stdout. Needs gcc and llvm-symbolizer
# on PATH; the release profile's line tables supply the source lines.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 <workload> <seed> <seconds> [function]" >&2
    exit 2
fi
workload="$1" seed="$2" seconds="$3" focus="${4:-}"
for tool in gcc llvm-symbolizer; do
    if ! command -v "$tool" >/dev/null; then
        echo "profile.sh: '$tool' is not on PATH; the sampler needs gcc to build and llvm-symbolizer to read its samples" >&2
        exit 1
    fi
done

target="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"
bin="$target/release/amri-benchmark"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

dir="$(mktemp -d "${TMPDIR:-/tmp}/amri-profile-XXXXXX")"
echo "==> samples, maps and the run's output in $dir" >&2

cat > "$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>

#define CAP (1u << 24)

static unsigned long *rips;
static unsigned long taken;
static timer_t timer;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    /* Every thread's timer signal lands here; claim a slot atomically. */
    unsigned long n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (n < CAP)
        rips[n] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

/* The main program's load bias: its first dl_iterate_phdr entry. */
static int first_bias(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    *(unsigned long *)out = info->dlpi_addr;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    rips = mmap(NULL, CAP * sizeof *rips, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (rips == MAP_FAILED)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {0};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0)
        return;
    struct itimerspec every = {{0, PERIOD_NS}, {0, PERIOD_NS}};
    timer_settime(timer, 0, &every, NULL);
}

/* The main program's load bias, then one decimal address per sample. */
__attribute__((destructor)) static void stop(void) {
    struct itimerspec off = {{0, 0}, {0, 0}};
    timer_settime(timer, 0, &off, NULL);
    unsigned long bias = 0;
    dl_iterate_phdr(first_bias, &bias);
    FILE *out = fopen(OUT_DIR "/samples", "w");
    if (out) {
        unsigned long n = taken < CAP ? taken : CAP;
        fprintf(out, "bias %lu\n", bias);
        for (unsigned long i = 0; i < n; i++)
            fprintf(out, "%lu\n", rips[i]);
        fclose(out);
    }
    FILE *in = fopen("/proc/self/maps", "r");
    FILE *maps = fopen(OUT_DIR "/maps", "w");
    if (in && maps) {
        char line[4096];
        while (fgets(line, sizeof line, in))
            fputs(line, maps);
    }
    if (in)
        fclose(in);
    if (maps)
        fclose(maps);
}
EOF
gcc -O2 -shared -fPIC -DPERIOD_NS=50000 -DOUT_DIR="\"$dir\"" \
    -o "$dir/sampler.so" "$dir/sampler.c" -lrt

LD_PRELOAD="$dir/sampler.so" "$bin" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$dir/run.out" 2>&1
[ -s "$dir/samples" ] || { echo "profile.sh: the sampler wrote no samples" >&2; exit 1; }

# Split the samples: addresses inside the binary's executable mappings
# become "<count> <address in the binary>" lines for the symbolizer,
# every other sample counts under the mapping (library) it hit.
awk -v bin="$(readlink -f "$bin")" '
    function hex(s,   i, v) {
        for (i = 1; i <= length(s); i++) v = 16 * v + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
    }
    FNR == NR {
        if ($2 ~ /x/) {
            split($1, r, "-")
            n++; lo[n] = hex(r[1]); hi[n] = hex(r[2])
            path[n] = ($6 == "") ? "[anon]" : $6
        }
        next
    }
    $1 == "bias" { bias = $2; next }
    {
        total++
        a = $1 + 0
        where = "[unmapped]"
        for (i = 1; i <= n; i++) if (a >= lo[i] && a < hi[i]) { where = path[i]; break }
        if (where == bin) inside[sprintf("0x%x", a - bias)]++
        else outside[where]++
    }
    END {
        print total > "'"$dir"'/total"
        for (a in inside) print inside[a], a > "'"$dir"'/inside"
        for (w in outside) print outside[w], w > "'"$dir"'/outside"
    }
' "$dir/maps" "$dir/samples"
touch "$dir/inside" "$dir/outside"
total="$(cat "$dir/total")"

# llvm-symbolizer answers each address with its frames, innermost first,
# as (function, file:line:column) line pairs, then a blank line.
awk '{ print $2 }' "$dir/inside" \
    | llvm-symbolizer --obj="$bin" --inlining --demangle > "$dir/frames"

awk -v total="$total" -v focus="$focus" '
    BEGIN { hash = "::h"; for (i = 0; i < 16; i++) hash = hash "[0-9a-f]"; hash = hash "$" }
    # What the symbolizer leaves of a legacy-mangled Rust name, readable.
    function rust(s) {
        sub(/ \(\.llvm\.[0-9]+\)$/, "", s)
        sub(hash, "", s)
        gsub(/\$LT\$/, "<", s); gsub(/\$GT\$/, ">", s); gsub(/\$RF\$/, "\\&", s)
        gsub(/\$C\$/, ",", s); gsub(/\$u20\$/, " ", s)
        gsub(/\$u7b\$/, "{", s); gsub(/\$u7d\$/, "}", s); gsub(/\.\./, "::", s)
        sub(/^_</, "<", s)
        return s
    }
    FNR == NR { count[FNR] = $1; next }
    /^$/ {
        if (nf > 0) {
            c = count[++addr]
            inner[fn[1]] += c; outer[fn[nf]] += c; lines[src[1]] += c
            for (j = 1; focus != "" && j <= nf; j++) {
                if (index(fn[j], focus)) {
                    at = (j == 1) ? src[j] : src[j] "  <- " fn[1] " " src[1]
                    focused[at] += c; focused["(all of them)"] += c
                    break
                }
            }
        }
        nf = odd = 0
        next
    }
    {
        if (odd = !odd) {
            fn[++nf] = rust($0)
        } else {
            src[nf] = $0
            sub(/:[0-9]+$/, "", src[nf])
            sub(/^.*\/crates\//, "crates/", src[nf])
            sub(/^.*\/library\//, "library/", src[nf])
        }
    }
    END {
        for (k in inner) printf "inner\t%.1f\t%s\n", 100 * inner[k] / total, k
        for (k in outer) printf "outer\t%.1f\t%s\n", 100 * outer[k] / total, k
        for (k in lines) printf "line\t%.1f\t%s\n", 100 * lines[k] / total, k
        for (k in focused) printf "focus\t%.1f\t%s\n", 100 * focused[k] / total, k
    }
' "$dir/inside" "$dir/frames" > "$dir/shares"
awk -v total="$total" '{ printf "other\t%.1f\t%s\n", 100 * $1 / total, $2 }' \
    "$dir/outside" >> "$dir/shares"

echo "$workload seed $seed, $seconds s: $total samples every 50 us"
# The top 25 of each table (awk, not head, ends the pipe: no SIGPIPE).
while IFS='|' read -r kind title; do
    [ -n "$kind" ] || continue
    echo
    echo "== $title (% of all samples)"
    awk -F'\t' -v k="$kind" '$1 == k { printf "%6s %%  %s\n", $2, $3 }' "$dir/shares" \
        | sort -rn -k1,1 | awk 'NR <= 25'
done <<TABLES
inner|innermost frames
outer|outermost functions
line|source lines of the innermost frames
other|samples outside the binary, by mapping
${focus:+focus|lines of functions named *$focus*, inlined frames included}
TABLES
