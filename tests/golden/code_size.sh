#!/bin/sh
# Code size by the ROADMAP Housekeeping rule, per crate and for the root
# `src/` (the facade and the shell): the code lines — non-blank, not
# starting with `//`, before a file's first `#[cfg(test)]`, and none at
# all in a file that is `#![cfg(test)]` — and the comment lines (`//`,
# `///`, `//!`) of the same part. CI prints it, never gating on it.
#
# From the repository root:
#
#   sh tests/golden/code_size.sh          # the working tree
#   sh tests/golden/code_size.sh HEAD~1   # ... and that commit → the tree, per part
#
# Given a git ref, the ref's tree is counted from `git archive` in a
# temporary directory, and each part is printed as ref → tree with the
# difference: the figures a change's CHANGES.md entry quotes.
set -eu

# Print "<dir> <code> code <comment> comment" per part, then the total,
# for the tree rooted at $1.
count() (
  cd "$1"
  for dir in crates/*/src src; do
    find "$dir" -name '*.rs' -print0 | xargs -0 awk -v dir="$dir" '
      function flush() { if (!whole) { code += c; comments += k } }
      FNR == 1 { flush(); c = 0; k = 0; test = 0; whole = 0 }
      /^[[:space:]]*#!\[cfg\(test\)\]/ { whole = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
      test || /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { k++; next }
      { c++ }
      END { flush(); printf "%-22s %6d code %6d comment\n", dir, code, comments }'
  done | awk '{ print; code += $2; comments += $4 }
    END { printf "%-22s %6d code %6d comment\n", "total", code, comments }'
)

now=$(count .)
printf '%s\n' "$now"
[ $# -eq 0 ] && exit 0

ref=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$ref" | tar -x -C "$tmp"
then=$(count "$tmp")
echo
printf '%-22s %20s %20s\n' "$ref → tree" "code" "comment"
printf '%s\n--\n%s\n' "$then" "$now" | awk '
  $1 == "--" { after = 1; next }
  $1 != "total" && !($1 in seen) { order[++n] = $1; seen[$1] = 1 }
  !after { oc[$1] = $2; ok[$1] = $4; next }
  { nc[$1] = $2; nk[$1] = $4 }
  END {
    order[++n] = "total"
    for (i = 1; i <= n; i++) {
      d = order[i]
      printf "%-22s %6d → %6d %+5d %6d → %6d %+5d\n", d,
        oc[d], nc[d], nc[d] - oc[d], ok[d], nk[d], nk[d] - ok[d]
    }
  }'
