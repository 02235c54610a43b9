#!/bin/sh
# Alternating pairs of benchmark runs, parent against change, over K code
# layouts: a change is compared with REF in K builds of each side that
# differ only in their symbol hashes (`-C metadata=layout<k>`), so a
# difference that one layout makes cannot pass for one the code makes.
#
# From the repository root:
#
#   sh tests/golden/pairs.sh REF                       # all six workloads
#   sh tests/golden/pairs.sh REF paper_nested spill_join
#
# It builds `tmql-bench` (tmqlbench/, the benchmark BENCHMARK.json names)
# for REF, from `git archive`, and for the working tree, once per variant
# k = 1..K, each in its own target directory. The flag goes through
# `cargo --config 'target.<host>.rustflags=[…]'`, which adds to the
# rustflags a config file sets; a RUSTFLAGS variable would replace them.
# Each side is built from inside its own root: cargo reads
# `.cargo/config.toml` from the directory it runs in and its parents, not
# from the manifest's, so a config in the working tree must not reach the
# parent's build.
# Within each variant it runs PAIRS pairs of SECONDS-long runs at seed 42,
# the parent first in odd pairs and the change first in even ones. Per
# workload it prints every run (rounds, round_norm_ms, setup_s,
# peak_rss_mb, correct, failed), then per variant the change/parent ratio
# of the medians of round_norm_ms and the pairs the change won, then the
# ratio of the pooled medians of round_norm_ms, setup_s and peak_rss_mb
# over all variants. A gain counts only if it holds in every variant; "no
# worse" is judged on the pooled medians. Everything it builds goes in a
# temporary directory that it removes.
set -eu

[ $# -ge 1 ] || { echo "usage: sh tests/golden/pairs.sh REF [workload …]" >&2; exit 2; }
ref=$1
shift
workloads=${*:-$(jq -r '.workloads[].name' BENCHMARK.json)}

# K = 3 layouts of 3 pairs (18 runs, about 3 minutes a workload): two
# invocations on paper_nested and spill_join moved the pooled
# change/parent ratio by 0.8 and 2.3 points, and the parent's pooled
# median by 2.0 % and 3.3 %. That resolves the benchmark's bounds, not a
# gain below about 3 %; a claim that small needs a larger K. The parent
# is built from a fresh temporary path, which is part of what its
# symbols hash, so its layouts also differ from one invocation to the next.
K=3
PAIRS=3
SECONDS_PER_RUN=10

host=$(rustc -vV | sed -n 's/^host: //p')
tmp=$(mktemp -d "${TMPDIR:-/tmp}/tmql-pairs-XXXXXX")
tmp=$(cd "$tmp" && pwd)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent-src"
git archive "$ref" | tar -x -C "$tmp/parent-src"

# build SOURCE-ROOT K OUT: a release tmql-bench of SOURCE-ROOT in layout K,
# under SOURCE-ROOT's own cargo config.
build() {
  (cd "$1" && cargo build --quiet --release --offline \
    --config "target.$host.rustflags=[\"-C\",\"metadata=layout$2\"]" \
    --manifest-path tmqlbench/Cargo.toml --target-dir "$tmp/target-$3-$2")
  cp "$tmp/target-$3-$2/release/tmql-bench" "$tmp/bench-$3-$2"
  rm -rf "$tmp/target-$3-$2"
}

k=1
while [ $k -le $K ]; do
  echo "building layout$k: parent ($ref), change (working tree)" >&2
  build "$tmp/parent-src" $k parent
  build . $k change
  k=$((k + 1))
done

# One run: "layout side rounds round_norm_ms setup_s peak_rss_mb correct failed"
# (rounds from the run's report on stderr).
run() {
  out=$("$tmp/bench-$2-$1" --workload "$3" --seed 42 --seconds $SECONDS_PER_RUN --trace 0 2>"$tmp/stderr")
  rounds=$(sed -n 's/^ *rounds=\([0-9]*\).*/\1/p' "$tmp/stderr")
  printf '%s\n' "$out" | jq -r --arg k "$1" --arg side "$2" --arg rounds "$rounds" '
    [$k, $side, $rounds, .metrics.round_norm_ms.value, .metrics.setup_s.value,
     .metrics.peak_rss_mb.value, .correct, .failed] | map(tostring) | join(" ")'
}

for w in $workloads; do
  log="$tmp/$w.runs"
  : >"$log"
  k=1
  while [ $k -le $K ]; do
    p=1
    while [ $p -le $PAIRS ]; do
      if [ $((p % 2)) -eq 1 ]; then
        run $k parent "$w" >>"$log"; run $k change "$w" >>"$log"
      else
        run $k change "$w" >>"$log"; run $k parent "$w" >>"$log"
      fi
      p=$((p + 1))
    done
    k=$((k + 1))
  done
  echo "== $w ($K layouts x $PAIRS pairs of ${SECONDS_PER_RUN} s, seed 42, $ref -> working tree)"
  echo "layout side rounds round_norm_ms setup_s peak_rss_mb correct failed"
  cat "$log"
  awk -v K=$K '
    function median(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
      return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # A pair is two consecutive lines of one layout, in either order.
    { k = $1; side = $2; n = ++cnt[k, side]; ms[k, side, n] = $4
      m = ++all[side]; pm[side, m] = $4; ps[side, m] = $5; pr[side, m] = $6
      if (cnt[k, "parent"] == cnt[k, "change"] && ms[k, "change", n] < ms[k, "parent", n]) won[k]++ }
    END {
      for (k = 1; k <= K; k++) {
        n = cnt[k, "parent"]
        for (i = 1; i <= n; i++) { a[i] = ms[k, "parent", i]; b[i] = ms[k, "change", i] }
        mp = median(a, n); mc = median(b, n)
        printf "layout%d  round_norm_ms %.3f -> %.3f  ratio %.4f  change won %d of %d pairs\n", k, mp, mc, mc / mp, won[k] + 0, n
        total += won[k]; pairs += n
      }
      n = all["parent"]
      split("round_norm_ms setup_s peak_rss_mb", names, " ")
      for (f = 1; f <= 3; f++) {
        for (i = 1; i <= n; i++) {
          a[i] = f == 1 ? pm["parent", i] : f == 2 ? ps["parent", i] : pr["parent", i]
          b[i] = f == 1 ? pm["change", i] : f == 2 ? ps["change", i] : pr["change", i]
        }
        mp = median(a, n); mc = median(b, n)
        printf "pooled   %-13s %.3f -> %.3f  ratio %.4f\n", names[f], mp, mc, mc / mp
      }
      printf "pooled   change won %d of %d pairs\n", total, pairs
    }' "$log"
done
