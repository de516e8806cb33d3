#!/usr/bin/env bash
# The two line counts ROADMAP.md tracks. Run from anywhere:
#
#     scripts/loc.sh               # the counts
#     scripts/loc.sh --self-check  # the counting rule on fixtures of known counts
#
#   first-party lines — every .rs, .sh and .py file under crates/,
#                       tests/, scripts/ and examples/
#   non-test lines    — crates/*/src without test code, plus scripts/.
#                       A `#[cfg(test)]` followed by a `mod` item of any
#                       visibility is test code: an inline module to the
#                       end of its file, a `mod name;` declaration its own
#                       two lines and the file it declares (`name.rs` or
#                       `name/mod.rs`). The attribute on a single function,
#                       as in exec/tape.rs, is not.
set -euo pipefail
cd "$(dirname "$0")/.."

# a `mod` item's head, any visibility; the awk programs read it from
# the environment, where its backslashes stay as written
export MOD_ITEM='^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+'

# per file, its lines above an inline test module, less test declarations
COUNT='FNR == 1 { test = 0; attr = 0 }
       test { next }
       attr {
           attr = 0
           if ($0 ~ ENVIRON["MOD_ITEM"] "[[:space:]]*;") { n--; next }
           if ($0 ~ ENVIRON["MOD_ITEM"]) { test = 1; n--; next }
       }
       /#\[cfg\(test\)\]/ { attr = 1 }
       { n++ }
       END { print n + 0 }'

# the files test declarations declare: a `mod name;` in lib.rs, main.rs
# or mod.rs is a sibling; in foo.rs, it is under foo/
DECLARED='FNR == 1 { attr = 0 }
          attr {
              attr = 0
              if ($0 ~ ENVIRON["MOD_ITEM"] "[[:space:]]*;") {
                  name = $0
                  sub(/^.*mod[[:space:]]+/, "", name)
                  sub(/[[:space:]]*;.*$/, "", name)
                  dir = FILENAME
                  sub(/[^\/]*$/, "", dir)
                  base = substr(FILENAME, length(dir) + 1)
                  if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
                      sub(/\.rs$/, "", base)
                      dir = dir base "/"
                  }
                  print dir name ".rs"
                  print dir name "/mod.rs"
              }
          }
          /#\[cfg\(test\)\]/ { attr = 1 }'

# The non-test lines of the .rs files named on stdin, one a line.
non_test() {
    local files declared keep=()
    files=$(cat)
    declared=$(xargs awk "$DECLARED" <<<"$files")
    while IFS= read -r f; do
        grep -qxF -- "$f" <<<"$declared" || keep+=("$f")
    done <<<"$files"
    if ((${#keep[@]} == 0)); then
        echo 0
    else
        awk "$COUNT" "${keep[@]}"
    fi
}

# Fixtures with their known counts: every rule above, and the ways a
# rule has gone wrong before (a `pub(crate)` test module read as code; a
# test declaration ending its file's count).
self_check() {
    local dir
    dir=$(mktemp -d)
    mkdir -p "$dir/src/walk"
    printf '%s\n' 'pub mod walk;' '#[cfg(test)]' 'mod oracle;' 'fn kept() {}' \
        '#[cfg(test)]' 'fn helper() {}' '#[cfg(test)]' 'mod tests {' '    fn t() {}' '}' \
        >"$dir/src/lib.rs"                        # 4 non-test lines
    printf '%s\n' 'fn o() {}' 'fn p() {}' >"$dir/src/oracle.rs"   # test code
    printf '%s\n' 'fn w() {}' '#[cfg(test)]' 'pub(crate) mod reference;' 'fn x() {}' \
        '#[cfg(test)]' 'pub(super) mod tests {' '}' >"$dir/src/walk.rs"   # 2
    printf '%s\n' 'fn r() {}' >"$dir/src/walk/reference.rs"              # test code
    printf '%s\n' 'fn a() {}' '#[cfg(test)]' 'pub mod tests;' >"$dir/src/walk/more.rs"  # 1
    mkdir -p "$dir/src/walk/more"
    printf '%s\n' 'fn b() {}' >"$dir/src/walk/more/tests.rs"             # test code
    local got
    got=$(find "$dir/src" -name '*.rs' | sort | non_test)
    rm -rf "$dir"
    if [[ "$got" != 7 ]]; then
        echo "loc.sh self-check: counted $got non-test fixture lines, expected 7" >&2
        return 1
    fi
    echo "loc.sh self-check: ok"
}

if [[ "${1:-}" == "--self-check" ]]; then
    self_check
    exit
fi

all=$(find crates tests scripts examples -name '*.rs' -o -name '*.sh' -o -name '*.py' \
    | xargs cat | wc -l)
src=$(find crates/*/src -name '*.rs' | sort | non_test)
scripts=$(cat scripts/* | wc -l)
echo "first-party lines: $all"
echo "non-test lines:    $((src + scripts))"
