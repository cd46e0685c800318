#!/bin/sh
# Non-test lines of Rust sources: for every *.rs file under the given paths,
# the lines outside `#[cfg(test)]`-attributed items, summed. Files under a
# `tests/` directory are Cargo integration tests, test code whole, and are
# skipped: run on `crates/*/tests` the script prints `0 total`. An attributed
# item runs from its `#[cfg(test)]` line to the `}` that closes its first
# `{` (a test module, wherever in the file it sits) or, when it has no
# body, to its `;` (a `use` or `mod tests;`). Braces are counted outside
# string and char literals and `//` comments, and a mention of the attribute
# inside a comment does not count. The figure every PR quotes as "non-test
# lines X -> Y".
#
# usage: scripts/nontest-loc.sh <file-or-dir>...
set -eu
[ "$#" -gt 0 ] || { echo "usage: $0 <file-or-dir>..." >&2; exit 2; }
find "$@" -type f -name '*.rs' ! -path '*/tests/*' ! -path 'tests/*' | sort | while read -r f; do
    n=$(awk '
        # state 0: counted code; 1: after the attribute, before the item'"'"'s
        # `{` or `;`; 2: inside the item'"'"'s braces.
        {
            line = $0
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/'"'"'[{}()\[\];]'"'"'/, "", line)
            sub(/\/\/.*/, "", line)
            if (state == 0) {
                if (line !~ /^[[:space:]]*#\[cfg\(test\)\]/) { n++; next }
                state = 1
                sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
            }
            for (i = 1; i <= length(line) && state != 0; i++) {
                c = substr(line, i, 1)
                if (c == "(" || c == "[") nest++
                else if (c == ")" || c == "]") nest--
                else if (c == "{") { depth++; state = 2 }
                else if (c == "}") { if (--depth == 0) state = 0 }
                else if (c == ";" && state == 1 && nest == 0) state = 0
            }
        }
        END { print n + 0 }' "$f")
    printf '%6d %s\n' "$n" "$f"
done | awk '{ total += $1; print } END { printf "%6d total\n", total }'
