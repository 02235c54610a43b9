#!/bin/sh
# The exact counters of the benchmark of record (BENCHMARK.json's six
# workloads, tmqlbench/) at seed 42, checked against
# tests/golden/bench_counters.json: per workload `correct`, `failed` and
# every metric whose unit is `count` or `B`, except `trace_rounds`. They
# cover the first COUNTED_ROUNDS (10) traced rounds, so they repeat exactly
# on any host and at any run length.
#
# From the repository root, after
# `cargo build --release --offline --manifest-path tmqlbench/Cargo.toml`:
#
#   sh tests/golden/bench_counters.sh                 # check; prints what differs
#   TMQL_BLESS=1 sh tests/golden/bench_counters.sh    # rewrite the file
#
# A change that moves a counter on purpose re-blesses the file and says
# why. The first argument, if any, is the tmql-bench binary to run.
set -eu
bench=${1:-tmqlbench/target/release/tmql-bench}
golden=tests/golden/bench_counters.json
pick='{correct, failed} + (.metrics | with_entries(
  select((.value.unit == "count" or .value.unit == "B") and .key != "trace_rounds")
  | .value |= .value))'
got=$(for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  "$bench" --workload "$w" --seed 42 --seconds 1 --trace 1 2>/dev/null |
    jq --arg w "$w" "{(\$w): ($pick)}"
done | jq -s add)
if [ "${TMQL_BLESS:-0}" = 1 ]; then
  printf '%s\n' "$got" >"$golden"
  echo "blessed $golden"
  exit 0
fi
differing=$(jq -rn --argjson want "$(cat "$golden")" --argjson got "$got" '
  ($want + $got | keys_unsorted[]) as $w
  | (($want[$w] // {}) + ($got[$w] // {}) | keys_unsorted[]) as $k
  | select($want[$w][$k] != $got[$w][$k])
  | "\($w) \($k): expected \($want[$w][$k]), got \($got[$w][$k])"')
if [ -n "$differing" ]; then
  echo "exact counters differ from $golden:"
  echo "$differing"
  exit 1
fi
echo "exact counters equal $golden"
