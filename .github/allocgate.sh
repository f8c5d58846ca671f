#!/usr/bin/env bash
# allocgate.sh OUTPUT BENCHMARK UNIT LEDGER PATH
#
# Holds one benchmark's allocation count, or its allocated bytes, to its
# recorded number + 20 %: both are deterministic, so growth means work moved
# back onto the measured path. Timings are printed by the benchmark, never
# gated here.
#
#   OUTPUT     file holding the `go test -bench` output to judge
#   BENCHMARK  the benchmark's full name (the -GOMAXPROCS suffix, absent on
#              one CPU, is ignored)
#   UNIT       the unit of the gated column: allocs/op, allocs/round,
#              B/record, ...
#   LEDGER     the BENCH_*.json file that records the baseline
#   PATH       the jq path of the baseline number in LEDGER, e.g.
#              '.baselines["BenchmarkNegotiationRoundTrip"].after.allocs_op'
#
# Fails when the count exceeds the baseline by more than 20 %, when the
# benchmark did not run, and when the ledger has no such baseline.
set -euo pipefail

out=$1 name=$2 unit=$3 ledger=$4 path=$5

base=$(jq -er "$path" "$ledger" || true)
if ! [[ $base =~ ^[0-9]+(\.[0-9]+)?$ ]]; then
  echo "FAIL: $ledger records no number at $path" >&2
  exit 1
fi

awk -v name="$name" -v unit="$unit" -v base="$base" '
  { bench = $1; sub(/-[0-9]+$/, "", bench) }
  bench == name { seen = 1
    for (i = 2; i <= NF; i++) if ($i == unit) allocs = $(i-1) + 0
    if (allocs > base * 1.2) { bad = 1
      print "FAIL: " $1 " allocates " allocs " " unit " (baseline " base ", gate +20%)" } }
  END { if (!seen) { print "FAIL: " name " did not run"; bad = 1 }; exit bad }' "$out"
