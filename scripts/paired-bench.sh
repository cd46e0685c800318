#!/bin/sh
# Paired runs of the repo benchmark: one workload on two `bench` binaries
# (built once each, from the parent commit and from the change), alternating
# which side runs first, every run's record appended to that side's file, and
# `bench compare` over the two files at the end, then one `wins k/n` line per
# end-to-end metric of BENCHMARK.json: of the n untraced pairs in the files
# (pair i = record i of each), the k the change won outright, ties counted for
# neither side. Pair i uses seed 7 + i on both sides; extra options
# (--trace 1, --seconds 3, ..) pass through.
#
# usage: scripts/paired-bench.sh <parent-bench> <change-bench> <workload> <pairs> [bench options]
#
# Records land in $PAIRED_OUT (default /tmp/paired-bench): <workload>.parent.jsonl
# and <workload>.change.jsonl, appended to, so a second call adds pairs.
set -eu
[ "$#" -ge 4 ] || { sed -n '2,15p' "$0" >&2; exit 2; }
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
# `compare` exits non-zero on a `worse` row; the pair count is wanted then too.
verdict=0
"$change" compare "$out/$workload.parent.jsonl" "$out/$workload.change.jsonl" || verdict=$?
awk -v parent="$out/$workload.parent.jsonl" -v change="$out/$workload.change.jsonl" '
    # The number after `"<name>": {"value": ` in a record, or "" without one.
    function value(record, name,    key, at) {
        key = "\"" name "\": {\"value\": "
        at = index(record, key)
        return at ? substr(record, at + length(key)) + 0 : ""
    }
    /"bound"/ { # an end-to-end metric of the manifest
        match($0, /"name": "[^"]+"/)
        names[++metrics] = substr($0, RSTART + 9, RLENGTH - 10)
        higher[metrics] = ($0 ~ /"better": "higher"/)
    }
    END {
        while ((getline a < parent) > 0 && (getline b < change) > 0) {
            if (a ~ /"trace": true/ || b ~ /"trace": true/) continue
            pairs++
            for (m = 1; m <= metrics; m++) {
                x = value(a, names[m]); y = value(b, names[m])
                if (x == "" || y == "" || x == y) tied[m]++
                else if (higher[m] ? y > x : y < x) won[m]++
            }
        }
        for (m = 1; m <= metrics && pairs; m++)
            printf "wins %d/%d  %-18s (%d tied, %d lost)\n", won[m], pairs, names[m],
                tied[m], pairs - won[m] - tied[m]
    }' "$(dirname "$0")/../BENCHMARK.json"
exit "$verdict"
