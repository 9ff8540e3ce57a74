#!/usr/bin/env bash
# Non-timing benchmark regression guard.
#
# Runs the evaluation harness on a small fixed corpus (--programs 5, default
# seed) and compares two classes of deterministic output against committed
# baselines:
#
#   1. Strategy counters — reduction ratios, predicate-run geomeans,
#      simulated time.  Wall-clock fields are stripped, so the check is
#      stable across hosts; any diff means reduction *behavior* changed.
#   2. Allocation counters — per-phase calls and minor words from the Perf
#      registry.  Calls must match exactly; minor words get a ±10% band
#      (the allocation sequence is deterministic at jobs=1, the band
#      absorbs stdlib/runtime drift across compiler versions).  A phase
#      silently doubling its allocations fails the gate even when timing
#      and behavior look fine.
#
# If a change is intended, regenerate the baselines and commit them:
#
#   scripts/bench_guard.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/bench_baseline_p5.txt
alloc_baseline=scripts/bench_alloc_baseline_p5.txt
wall_baseline=scripts/bench_wall_baseline_p5.txt
json=$(mktemp)
spec_json=$(mktemp)
walls=$(mktemp)
trap 'rm -f "$json" "$spec_json" "$walls"' EXIT

dune exec bench/main.exe -- --programs 5 --skip-micro --json "$json" >/dev/null

# One strategy object per line in the JSON dump; drop the host-dependent
# timing fields, keep everything else byte-for-byte.  The positive grep
# also keeps the Lbr_obs metric rows (tagged "kind": latency histograms,
# span aggregates) out of the baseline: their values are wall-clock
# dependent, so they are stripped from this non-timing diff.
extract() {
  grep '"geo_sim_time_seconds"' "$1" |
    grep -v '"kind"' |
    sed -E 's/"wall_seconds": [^,]+, //; s/"speedup": [^,]+, //; s/"intra_speedup": [^,]+, //'
}

# Phase counter rows ("counters" array): name, calls, minor_words.  The
# seconds field is wall-clock and dropped here.
extract_alloc() {
  grep '"minor_words"' "$1" |
    sed -E 's/.*"name": "([^"]+)", "calls": ([0-9]+), "seconds": [^,]+, "minor_words": ([^ }]+).*/\1 \2 \3/'
}

# Per-strategy wall-clock seconds, host-speed normalised — the only timing
# the guard looks at, and only through a wide ±25% band (see below).
extract_wall() {
  grep '"geo_sim_time_seconds"' "$1" |
    sed -E 's/.*"name": "([^"]+)", "frontend": "[^"]*", "wall_seconds": ([^,]+),.*/\1 \2/'
}

# One run is too noisy for the wall gate's band, so both the recorded
# baseline and the check use each strategy's median over nine runs, in the
# order the strategies are reported (five-run medians of one tree moved by
# 12 %, half the band).  The first run is the one already in $json; the
# other eight overwrite it, so call this after every other extraction from
# $json.
median_walls() {
  extract_wall "$json" >"$walls"
  for _ in 2 3 4 5 6 7 8 9; do
    dune exec bench/main.exe -- --programs 5 --skip-micro --json "$json" >/dev/null
    extract_wall "$json" >>"$walls"
  done
  awk '
    !($1 in n) { order[++names] = $1 }
    { v[$1, ++n[$1]] = $2 + 0 }
    END {
      for (i = 1; i <= names; i++) {
        s = order[i]; k = n[s]
        for (a = 2; a <= k; a++)
          for (b = a; b > 1 && v[s, b - 1] > v[s, b]; b--) {
            t = v[s, b]; v[s, b] = v[s, b - 1]; v[s, b - 1] = t
          }
        print s, v[s, int((k + 1) / 2)]
      }
    }' "$walls"
}

if [ "${1:-}" = "--update" ]; then
  extract "$json" >"$baseline"
  extract_alloc "$json" >"$alloc_baseline"
  median_walls >"$wall_baseline"
  echo "bench_guard: baselines updated: $baseline, $alloc_baseline, $wall_baseline"
  exit 0
fi

fail=0

if diff -u "$baseline" <(extract "$json"); then
  echo "bench_guard: OK — strategy counters match $baseline"
else
  echo "bench_guard: FAIL — deterministic strategy counters drifted from $baseline" >&2
  fail=1
fi

if [ -f "$alloc_baseline" ]; then
  if extract_alloc "$json" | awk -v tol=0.10 '
      NR == FNR { base_calls[$1] = $2; base_mw[$1] = $3; next }
      {
        seen[$1] = 1
        if (!($1 in base_calls)) {
          printf "bench_guard: new phase counter %s (not in baseline)\n", $1
          bad = 1
          next
        }
        if ($2 != base_calls[$1]) {
          printf "bench_guard: %s: calls %s != baseline %s\n", $1, $2, base_calls[$1]
          bad = 1
        }
        mw = $3 + 0; bmw = base_mw[$1] + 0
        band = bmw * tol; if (band < 1000) band = 1000
        d = mw - bmw; if (d < 0) d = -d
        if (d > band) {
          printf "bench_guard: %s: minor_words %g outside +/-%.0f%% of baseline %g\n", \
            $1, mw, tol * 100, bmw
          bad = 1
        }
      }
      END {
        for (n in base_calls)
          if (!(n in seen)) { printf "bench_guard: phase counter %s disappeared\n", n; bad = 1 }
        exit bad
      }' "$alloc_baseline" -; then
    echo "bench_guard: OK — allocation counters within band of $alloc_baseline"
  else
    echo "bench_guard: FAIL — per-phase allocation counters drifted from $alloc_baseline" >&2
    fail=1
  fi
else
  echo "bench_guard: NOTE — no allocation baseline ($alloc_baseline); run --update to create it"
fi

# Wall-clock gate: per-strategy median wall seconds (nine runs, as
# recorded) within ±25% of the committed baseline.  bench/main.ml reports them normalised by the e2e benchmark's
# host-speed kernel (bench/e2e/speed.ml), so host drift does not move
# them.  Deliberately the loosest of the gates — wall time moves with
# unrelated code — but a strategy suddenly taking 2x (a lost fast path, an
# accidental O(n^2)) fails here even when the deterministic counters above
# are untouched.  Regenerate on a quiet machine with --update (which records
# the median of nine runs) when a shift is intended.
if [ -f "$wall_baseline" ]; then
  if median_walls | awk -v tol=0.25 '
      NR == FNR { base[$1] = $2; next }
      {
        seen[$1] = 1
        if (!($1 in base)) {
          printf "bench_guard: new strategy %s (not in wall baseline)\n", $1
          bad = 1
          next
        }
        w = $2 + 0; bw = base[$1] + 0
        if (bw <= 0) next
        d = w - bw; if (d < 0) d = -d
        if (d > bw * tol) {
          printf "bench_guard: %s: median wall_seconds %g outside +/-%.0f%% of baseline %g\n", \
            $1, w, tol * 100, bw
          bad = 1
        }
      }
      END {
        for (n in base)
          if (!(n in seen)) { printf "bench_guard: strategy %s disappeared from wall rows\n", n; bad = 1 }
        exit bad
      }' "$wall_baseline" -; then
    echo "bench_guard: OK — wall clock within +/-25% of $wall_baseline"
  else
    echo "bench_guard: FAIL — wall clock drifted >25% from $wall_baseline" >&2
    fail=1
  fi
else
  echo "bench_guard: NOTE — no wall-clock baseline ($wall_baseline); run --update to create it"
fi

# Speculative pipelining gate: the same corpus at --jobs 2 runs GBR's
# speculative sweep (bench itself aborts on any byte divergence from the
# sequential sweep); on top of that, geo_predicate_runs must stay within
# a 1% band of the committed sequential baseline — speculation may waste
# idle-core work, but must never inflate the *charged*,
# sequential-equivalent predicate runs.
dune exec bench/main.exe -- --programs 5 --skip-micro --jobs 2 --json "$spec_json" >/dev/null
runs_of_gbr() {
  grep '"name": "gbr"' "$1" | sed -E 's/.*"geo_predicate_runs": ([0-9.eE+-]+).*/\1/'
}
spec_runs=$(runs_of_gbr "$spec_json")
base_runs=$(runs_of_gbr "$baseline")
if awk -v a="$spec_runs" -v b="$base_runs" \
    'BEGIN { d = a - b; if (d < 0) d = -d; exit !(b > 0 && d / b <= 0.01) }'; then
  echo "bench_guard: OK — speculative (jobs=2) geo_predicate_runs $spec_runs within 1% of baseline $base_runs"
else
  echo "bench_guard: FAIL — speculative (jobs=2) geo_predicate_runs $spec_runs drifted >1% from baseline $base_runs" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "bench_guard: if intended, regenerate with: scripts/bench_guard.sh --update" >&2
  exit 1
fi
