#!/bin/sh
# Non-test lines of Rust sources: for every *.rs file under the given paths,
# the lines before its first `#[cfg(test)]` attribute (all of them if it has
# none; a mention inside a comment does not count), summed. The figure every
# PR quotes as "non-test lines X -> Y".
#
# usage: scripts/nontest-loc.sh <file-or-dir>...
set -eu
[ "$#" -gt 0 ] || { echo "usage: $0 <file-or-dir>..." >&2; exit 2; }
find "$@" -type f -name '*.rs' | sort | while read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d %s\n' "$n" "$f"
done | awk '{ total += $1; print } END { printf "%6d total\n", total }'
