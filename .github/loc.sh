#!/usr/bin/env bash
# loc.sh
#
# Prints the Go line counts a [simplicity] change quotes: for every
# package directory, its non-test lines (files not ending in _test.go) and
# its total lines, then the same two numbers for the whole tree. It counts
# the files `git ls-files` lists, less the standing benchmark's module
# (benchmark/) and every testdata/ directory, so a new file counts once it
# is added to the index.
#
# Prints only; never fails on the numbers. Run from anywhere:
#
#   bash .github/loc.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
git ls-files -z -- '*.go' |
  tr '\0' '\n' |
  grep -v -E '^benchmark/|(^|/)testdata/' |
  while IFS= read -r f; do
    printf '%s %s\n' "$f" "$(wc -l <"$f")"
  done |
  awk '
    {
      dir = $1
      sub(/\/[^\/]*$/, "", dir)
      if (dir == $1) dir = "."
      total[dir] += $2
      all += $2
      if ($1 !~ /_test\.go$/) { code[dir] += $2; allCode += $2 }
    }
    END {
      printf "%-40s %9s %9s\n", "package", "non-test", "total"
      n = 0
      for (d in total) dirs[++n] = d
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && dirs[j-1] > dirs[j]; j--) { t = dirs[j]; dirs[j] = dirs[j-1]; dirs[j-1] = t }
      for (i = 1; i <= n; i++) printf "%-40s %9d %9d\n", dirs[i], code[dirs[i]], total[dirs[i]]
      printf "%-40s %9d %9d\n", "total", allCode, all
    }'
