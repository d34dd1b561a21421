#!/usr/bin/env bash
# Prints the surface counts that ROADMAP.md and every simplicity change
# report: internal/core non-test and test lines, Config fields, cliflags
# registrations, wire message kinds, non-test lines per internal/ package,
# the largest internal/core files and the window-stream pair (transfer.go,
# replica.go), and the Go line totals outside bench/ (its own module).
# Informational; it never fails a build.
#
# Usage: ci/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# /dev/null first: an empty file list must not make awk read stdin.
count_lines() { awk 'END { print NR }' /dev/null "$@"; }
mapfile -t src < <(ls internal/core/*.go | grep -v '_test\.go$')
mapfile -t tst < <(ls internal/core/*_test.go)

echo "internal/core non-test lines: $(count_lines "${src[@]}")"
echo "internal/core test lines:     $(count_lines "${tst[@]}")"
echo "Config fields:                $(awk '/^type Config struct/ { on = 1; next }
  on && /^}/ { on = 0 }
  on && /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)*[ \t]+[^ \t]/ { n++ }
  END { print n }' internal/core/config.go)"
echo "cliflags registrations:       $(awk '/fs\.(Int|Int64|Uint64|Float64|Bool|Duration|String|Func|Var)\(/ { n++ }
  END { print n }' internal/cliflags/cliflags.go)"
echo "wire kinds:                   $(awk '/KindHello Kind = 1 \+ iota/ { on = 1; n = 1; next }
  on && /^\)/ { on = 0 }
  on && /^\tKind[A-Za-z]+$/ { n++ }
  END { print n }' internal/wire/wire.go)"
echo "largest internal/core non-test files:"
for f in "${src[@]}"; do printf '%6d %s\n' "$(count_lines "$f")" "${f##*/}"; done |
  sort -rn | head -5 | sed 's/^/  /'
echo "window-stream files:"
for f in transfer.go replica.go; do
  printf '  %-26s %6d\n' "$f" "$(count_lines "internal/core/$f" 2>/dev/null || echo 0)"
done
echo "non-test lines per internal/ package:"
for d in internal/*/; do
  mapfile -t pkg < <(ls "$d"*.go | grep -v '_test\.go$')
  printf '  %-26s %6d\n' "${d%/}" "$(count_lines "${pkg[@]}")"
done
# Every Go file of the main module: bench/ and hidden directories (build
# caches) are pruned.
go_files() { find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' -print; }
mapfile -t all_src < <(go_files | grep -v '_test\.go$')
mapfile -t all_tst < <(go_files | grep '_test\.go$')
echo "non-test lines outside bench/: $(count_lines "${all_src[@]}")"
echo "test lines outside bench/:     $(count_lines "${all_tst[@]}")"
