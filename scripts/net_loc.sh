#!/usr/bin/env bash
# Net lines of code: non-blank lines of the .ml, .mli and dune files under
# lib/, bin/ and test/, at a git revision and in the working tree (tracked
# and untracked files, .gitignore'd ones excluded), with the deltas.
#
#   scripts/net_loc.sh [BASE]      BASE: any git revision, default HEAD
#
# Run it before committing to report a change's net lines against its
# parent, or as `scripts/net_loc.sh HEAD~1` after committing.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-HEAD}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "net_loc: unknown revision '$base'" >&2
  exit 2
fi

# counts STRIP GIT-GREP-ARGS...: one "path count" line per source file.
# `git grep -c` prints "path:count" (with a "REV:" prefix, given as STRIP,
# when it searches a revision) and omits files with no non-blank line.
counts() {
  local strip=$1
  shift
  git grep -c -I -e '[^[:space:]]' "$@" -- lib bin test \
    | awk -v strip="$strip" '{
        line = substr($0, length(strip) + 1)
        i = match(line, /:[0-9]+$/)
        path = substr(line, 1, i - 1)
        if (path ~ /(\.mli?|(^|\/)dune)$/) print path, substr(line, i + 1)
      }'
}

{
  counts "$base:" "$base" | sed 's/^/base /'
  counts "" --untracked | sed 's/^/tree /'
} | awk -v label="$base" '
  {
    side = $1; path = $2; n = $3
    split(path, parts, "/")
    dir = parts[1] "/"
    total[side, dir] += n
  }
  END {
    printf "%-10s %10s %12s %8s\n", "", label, "working tree", "delta"
    split("lib/ bin/ test/", dirs, " ")
    for (i = 1; i <= 3; i++) {
      d = dirs[i]
      b = total["base", d] + 0; t = total["tree", d] + 0
      printf "%-10s %10d %12d %+8d\n", d, b, t, t - b
      if (d == "bin/") {
        b2 = total["base", "lib/"] + b; t2 = total["tree", "lib/"] + t
        printf "%-10s %10d %12d %+8d\n", "lib+bin", b2, t2, t2 - b2
      }
    }
  }'
