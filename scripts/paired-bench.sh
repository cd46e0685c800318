#!/bin/sh
# Paired runs of the repo benchmark: one workload on two `bench` binaries
# (built once each, from the parent commit and from the change), alternating
# which side runs first, every run's record appended to that side's file, and
# `bench compare` over the two files at the end. Pair i uses seed 7 + i on
# both sides; extra options (--trace 1, --seconds 3, ..) pass through.
#
# usage: scripts/paired-bench.sh <parent-bench> <change-bench> <workload> <pairs> [bench options]
#
# Records land in $PAIRED_OUT (default /tmp/paired-bench): <workload>.parent.jsonl
# and <workload>.change.jsonl, appended to, so a second call adds pairs.
set -eu
[ "$#" -ge 4 ] || { sed -n '2,12p' "$0" >&2; exit 2; }
parent=$1 change=$2 workload=$3 pairs=$4
shift 4
out=${PAIRED_OUT:-/tmp/paired-bench}
mkdir -p "$out"
run() { # <bench> <side> <seed> [options]
    bench=$1 side=$2 seed=$3
    shift 3
    "$bench" --workload "$workload" --seed "$seed" --out-dir "$out" \
        --out "$out/$workload.$side.jsonl" "$@" >/dev/null
}
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((7 + i))
    if [ $((i % 2)) -eq 0 ]; then
        run "$parent" parent "$seed" "$@"
        run "$change" change "$seed" "$@"
    else
        run "$change" change "$seed" "$@"
        run "$parent" parent "$seed" "$@"
    fi
    i=$((i + 1))
    echo "pair $i/$pairs done (seed $seed)" >&2
done
"$change" compare "$out/$workload.parent.jsonl" "$out/$workload.change.jsonl"
