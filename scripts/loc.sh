#!/usr/bin/env bash
# The two line counts ROADMAP.md tracks. Run from anywhere:
#
#     scripts/loc.sh
#
#   first-party lines — every .rs, .sh and .py file under crates/,
#                       tests/, scripts/ and examples/
#   non-test lines    — crates/*/src above each file's test module (a
#                       `#[cfg(test)]` followed by a `mod` item; the
#                       attribute on a single function, as in
#                       exec/tape.rs, ends nothing), plus scripts/
set -euo pipefail
cd "$(dirname "$0")/.."

all=$(find crates tests scripts examples -name '*.rs' -o -name '*.sh' -o -name '*.py' \
    | xargs cat | wc -l)
src=$(find crates/*/src -name '*.rs' -exec \
    awk 'FNR == 1 { test = 0; attr = 0 }
         test { next }
         attr { attr = 0; if ($0 ~ /^[[:space:]]*(pub )?mod /) { test = 1; n--; next } }
         /#\[cfg\(test\)\]/ { attr = 1 }
         { n++ }
         END { print n }' {} +)
scripts=$(cat scripts/* | wc -l)
echo "first-party lines: $all"
echo "non-test lines:    $((src + scripts))"
