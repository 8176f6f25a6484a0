#!/usr/bin/env bash
# The performance gate: the benchmark that BENCHMARK.json declares, run at
# the merge-base of HEAD and <base-rev> and at HEAD, judged by
# `perfbench compare` against the declared bounds.
#
#   .github/perf_gate.sh <base-rev>
#
# For every workload it runs 3 alternating pairs (seeds 1-3, base first on
# odd seeds). It fails when
#   - any run exits non-zero (an output check failed or a metric could not
#     be measured);
#   - `compare` still reports an end-to-end metric Worse after 3 more pairs
#     (seeds 4-6) of each workload that was Worse after the first 3;
#   - in one traced run per side and workload, a stand-in metric for a row
#     of the retired normalized diff reads more than 2.0x its base value
#     (server.queue_depth_max: more than 2.0x and more than base + 2).
#
# Everything it makes (a worktree of the merge-base, one build directory
# per side, run directories, result files) lives in a fresh directory
# under ${TMPDIR:-/tmp}; the worktree is removed on exit.
set -euo pipefail

base_rev=${1:?usage: .github/perf_gate.sh <base-rev>}
root=$(git rev-parse --show-toplevel)
cd "$root"
merge_base=$(git merge-base HEAD "$base_rev")
work=$(mktemp -d "${TMPDIR:-/tmp}/perf-gate.XXXXXX")
trap 'git -C "$root" worktree remove --force "$work/src-base" || true' EXIT
git worktree add --detach --quiet "$work/src-base" "$merge_base"
echo "perf-gate: base $merge_base, head $(git rev-parse HEAD), work in $work" >&2

declare -A src=([base]="$work/src-base" [head]="$root")
for side in base head; do
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --quiet --offline \
        --manifest-path "${src[$side]}/perfbench/Cargo.toml"
    # Each side runs from a directory of its own on the same file system,
    # so the durable workload's fsyncs cost the same on both sides.
    mkdir -p "$work/$side" "$work/run-$side" "$work/traced-$side"
done

# run <side> <workload> <seed> <trace 0|1> <output file>
run() {
    echo "perf-gate: $1 $2 seed $3 trace $4" >&2
    if ! (cd "$work/run-$1" && "$work/target-$1/release/dyncon-perfbench" \
        --workload "$2" --seed "$3" --seconds 14 --trace "$4" >"$5"); then
        echo "perf-gate: FAIL: the $1 run of $2 (seed $3) exited non-zero" >&2
        exit 1
    fi
}

# pairs <first seed> <last seed> <workload>...
pairs() {
    local first=$1 last=$2 workload seed side
    shift 2
    for workload in "$@"; do
        for seed in $(seq "$first" "$last"); do
            for side in $( ((seed % 2)) && echo base head || echo head base); do
                run "$side" "$workload" "$seed" 0 "$work/$side/$workload-$seed"
            done
        done
    done
}

# compare <table file>: the verdict table on stdout and in the file; fails
# on any Worse.
compare() {
    "$work/target-head/release/dyncon-perfbench" compare "$work/base" "$work/head" | tee "$1"
}

mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
pairs 1 3 "${workloads[@]}"
if ! compare "$work/compare-3.txt"; then
    mapfile -t worse < <(awk '/^[a-z_]+ \(/ { w = $1 } /Worse \(bound/ { print w }' \
        "$work/compare-3.txt" | sort -u)
    echo "perf-gate: Worse after 3 pairs on ${worse[*]}; running seeds 4-6" >&2
    pairs 4 6 "${worse[@]}"
    if ! compare "$work/compare-6.txt"; then
        echo "perf-gate: FAIL: still Worse beyond a bound after 6 pairs" >&2
        exit 1
    fi
fi

# Stand-ins for rows of the retired normalized diff that no end-to-end
# metric covers, held to that diff's own 2.0x band (all lower-is-better).
standins=(durable.recovery_s trace.overhead_pct client.read_latency_p95_ms
    server.queue_depth_max shard.boundary_ops_per_rebuild)
# The queue-depth high-water mark reads 1-2 on the serving workloads and
# moves by one between runs of identical code, so it fails only past both
# the band and an absolute slack of 2: (1, 3) and (2, 1) pass, (2, 5) and
# (8, 17) fail.
declare -A slack=([server.queue_depth_max]=2)
# value <side> <workload> <metric>: empty when the run does not report it.
value() { tail -n 1 "$work/traced-$1/$2" | jq ".metrics[\"$3\"].value // empty"; }
for workload in "${workloads[@]}"; do
    for side in base head; do
        run "$side" "$workload" 1 1 "$work/traced-$side/$workload"
    done
    for metric in "${standins[@]}"; do
        base=$(value base "$workload" "$metric")
        [ -n "$base" ] || continue
        head=$(value head "$workload" "$metric")
        echo "perf-gate: $workload $metric base $base head ${head:-missing}" >&2
        if ! awk -v b="$base" -v h="$head" -v s="${slack[$metric]:-0}" \
            'BEGIN { exit !(h != "" && (h <= 2 * b || h <= b + s)) }'; then
            echo "perf-gate: FAIL: $workload $metric reads more than 2.0x base" \
                "(and more than base + ${slack[$metric]:-0})" >&2
            exit 1
        fi
    done
done
echo "perf-gate: pass" >&2
