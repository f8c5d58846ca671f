#!/usr/bin/env bash
# coverage.sh
#
# Measures which code of internal/* and homeo/* the standing workloads
# reach. Every binary that runs one is built with -cover and run with
# GOCOVERDIR set:
#
#   - homeostasis-bench: the 22 bench-scale reports, checked byte for byte
#     against internal/experiments/testdata/bench_reports.golden;
#   - homeostasis-serve: the six drive smokes, with ci.yml's arguments —
#     ci.yml runs five; the plain procs=3 drive, which the kill and
#     elastic smokes cover there, stays here so the sweep's numbers stay
#     comparable (each drive checks serial-replay equivalence itself);
#   - the ledger runner of benchmark/: its five workloads, 3 s each, which
#     must end correct with no failed operation;
#   - the four programs under examples/;
#   - homeostasis-analyze: once on a small L++ program read from stdin with
#     -db and -optimize, once with -wal on a log the kill drive wrote (that
#     drive is given a -wal-dir in this script's temporary directory, so
#     the log outlives it — the ledger deletes its own logs; otherwise it
#     runs with ci.yml's arguments).
#
# First it names every package under internal/ and homeo/ that none of
# those binaries links (go list -deps): such a package gets no counters,
# so no row below can show it. Then the merged counters print as `go tool
# cover -func` rows for every function no run reaches, with its length in
# lines, then the share of statements reached and the count and length of
# the functions never reached. internal/analysis (homeovet) and the
# test-support packages fabrictest and rttest are left out of both. docs/DEVELOPMENT.md, "Reached by no
# workload", sorts the rows into failure paths, test-only code and modes
# no workload selects.
#
# Fails only when a build or a run fails; the numbers are printed, never
# gated. Writes nothing inside the checkout. Run from anywhere:
#
#   bash .github/coverage.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOCOVERDIR=$tmp/counters
mkdir -p "$GOCOVERDIR" "$tmp/wal"

# run NAME COMMAND...: runs one workload with its output kept aside, and
# prints it only when the command fails.
run() {
  local name=$1 t0=$SECONDS
  shift
  if ! "$@" >"$tmp/$name.log" 2>&1; then
    cat "$tmp/$name.log" >&2
    echo "FAIL: $name" >&2
    exit 1
  fi
  echo "ran $name ($((SECONDS - t0))s)" >&2
}

mains=(cmd/homeostasis-bench cmd/homeostasis-serve cmd/homeostasis-analyze examples/*)
# -coverpkg names each main package too: without it no counters are written.
for main in "${mains[@]}"; do
  go build -cover -coverpkg="./$main,./internal/...,./homeo/..." \
    -o "$tmp/bin/$(basename "$main")" "./$main"
done
(cd benchmark && go build -cover \
  -coverpkg=repro/benchmark,repro/internal/...,repro/homeo/... -o "$tmp/bin/ledger" .)

run reports "$tmp/bin/homeostasis-bench" -experiment all -scale bench
grep -v -E '^\((.* cells on [0-9]+ workers in |.* regenerated in )' "$tmp/reports.log" |
  cmp -s - internal/experiments/testdata/bench_reports.golden ||
  { echo "FAIL: reports differ from bench_reports.golden" >&2; exit 1; }

serve=$tmp/bin/homeostasis-serve
w3=internal/drive/testdata/withdraw3.json
run drive-tpcc "$serve" -workload tpcc -sites 2 -rtt 40ms -drive clients=4,duration=2s -v
run drive-drift "$serve" -workload micro -drift -alloc adaptive \
  -sites 2 -rtt 40ms -items 100 -drive clients=4,duration=2s -v
run drive-class "$serve" -workload none -sites 2 -rtt 40ms \
  -register internal/drive/testdata/withdraw.json -drive clients=4,duration=2s,class=Withdraw -v
run drive-procs "$serve" -workload none -register $w3 \
  -drive clients=2,duration=3s,class=Withdraw,procs=3
run drive-kill "$serve" -workload none -register $w3 -wal-dir "$tmp/wal" \
  -drive clients=2,duration=4s,class=Withdraw,procs=3,kill=1@mid
run drive-elastic "$serve" -workload none -register $w3 \
  -drive clients=2,duration=6s,class=Withdraw,procs=3,join=1@2s,drain=1@4s

for w in fastpath sync register recover simcore; do
  run "ledger-$w" "$tmp/bin/ledger" -workload $w -seconds 3 -out "$tmp/ledger"
  tail -n 1 "$tmp/ledger-$w.log" | grep -q '"correct":true,.*"failed":0,' ||
    { echo "FAIL: ledger $w: $(tail -n 1 "$tmp/ledger-$w.log" | cut -c1-80)" >&2; exit 1; }
done

for ex in examples/*; do
  run "example-$(basename "$ex")" "$tmp/bin/$(basename "$ex")"
done

analyze=$tmp/bin/homeostasis-analyze
printf '%s\n' \
  'transaction Sell() { v := read(x); if (v > 0) then write(x = v - 1) else skip }' \
  'transaction Restock() { v := read(x); w := read(y); if (w > 0) then { write(x = v + 1); write(y = w - 1) } else skip }' \
  'transaction Move() { a := read(z); if (a > 2) then write(z = a - 2) else skip }' >"$tmp/program.lpp"
run analyze-program "$analyze" -db 'x=10,y=5,z=13' -sites 2 -place 'z=1' -optimize <"$tmp/program.lpp"
grep -q 'optimized configuration' "$tmp/analyze-program.log" ||
  { echo "FAIL: analyze printed no optimized configuration" >&2; exit 1; }
run analyze-wal "$analyze" -wal "$tmp/wal/site-1.wal"
grep -q '"kind":"commit"' "$tmp/analyze-wal.log" ||
  { echo "FAIL: the WAL dump holds no commit" >&2; exit 1; }

# A package none of the binaries links writes no counters, so the table
# below cannot list it: name each one.
{ go list -deps "${mains[@]/#/./}"; (cd benchmark && go list -deps .); } | sort -u >"$tmp/linked.txt"
go list ./internal/... ./homeo/... | sort |
  grep -v -E '^repro/internal/(analysis|fabric/fabrictest|rt/rttest)(/|$)' |
  comm -23 - "$tmp/linked.txt" | sed 's/^/package linked by no swept binary: /'

go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/all.out"
awk 'NR == 1 || (/^repro\/(internal|homeo)\// &&
  !/^repro\/internal\/(analysis|fabric\/fabrictest|rt\/rttest)\//)' \
  "$tmp/all.out" >"$tmp/cover.out"
go tool cover -func="$tmp/cover.out" >"$tmp/func.txt"

# A function's length runs from its declaration to the first closing brace
# in column 1, as gofmt writes it, or is one line for a one-line body.
echo "functions reached by no workload (file:line, function, lines):"
awk -F'\t+' '$NF == "0.0%" {
    split($1, at, ":"); file = at[1]; sub(/^repro\//, "", file); start = at[2]
    n = 0; lines = 0
    while ((getline src < file) > 0) {
      if (++n < start) continue
      if (n == start && src ~ /}$/ && src !~ /{$/) { lines = 1; break }
      if (src ~ /^}/) { lines = n - start + 1; break }
    }
    close(file)
    printf "  %-58s %-34s %5d\n", $1, $2, lines
    funcs++; total += lines
  }
  $1 == "total:" { share = $NF }
  END {
    printf "statements reached: %s\n", share
    printf "never reached: %d functions, %d lines\n", funcs, total
  }' "$tmp/func.txt"
