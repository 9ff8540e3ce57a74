#!/usr/bin/env bash
# End-to-end smoke test of the reduction service:
#   1. start `lbr-reduce serve` in the background (journal enabled),
#   2. submit one generated instance over the Unix socket,
#   3. check the reduced pool is byte-identical to an in-process
#      `lbr-reduce reduce` of the same instance — run with --trace, which
#      doubles as the check that tracing never changes results,
#   4. validate the emitted Chrome trace JSON (≥1 gbr.iteration span),
#   5. reduce the checked-in DIMACS and FJ examples through the one-shot
#      CLI and through the daemon; each daemon result must be
#      byte-identical to the one-shot result and strictly smaller than
#      the input; likewise an exported pool file, a lossy DIMACS
#      reduction and a J-Reduce pool reduction,
#   6. SIGTERM the daemon and require a clean drain + zero exit,
# then of the cluster service:
#   7. start two TCP workers and a coordinator fronting them,
#   8. submit a job through the coordinator, kill -9 a worker mid-job,
#   9. check the result is byte-identical to a sequential run, that `top`
#      reports cluster health, that the surviving worker replayed the
#      verdicts the coordinator seeded it with, and that the coordinator
#      drains cleanly.
#
# Usage: scripts/e2e_smoke.sh  (after `dune build`; override BIN to point
# at the lbr_reduce executable if it lives elsewhere, TRACE_OUT to keep
# the trace file, FRONTEND_OUT to keep the reduced DIMACS/FJ outputs and
# CLUSTER_JOURNAL_OUT to keep a copy of the coordinator journal, e.g.
# for CI artifacts)
set -euo pipefail

BIN=${BIN:-_build/default/bin/lbr_reduce.exe}
[ -x "$BIN" ] || { echo "lbr_reduce binary not found at $BIN (run dune build)"; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SOCK="$WORK/lbr.sock"

"$BIN" serve --socket "$SOCK" --jobs 2 --queue-depth 8 --journal "$WORK/journal" \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never bound $SOCK"; cat "$WORK/serve.log"; exit 1; }

TRACE_OUT=${TRACE_OUT:-$WORK/reduce-trace.json}

"$BIN" submit --socket "$SOCK" --seed 1 --classes 30 --output-pool "$WORK/socket.lbrc"
"$BIN" reduce --seed 1 --classes 30 --output-pool "$WORK/inproc.lbrc" \
  --trace "$TRACE_OUT" > /dev/null 2>&1

cmp "$WORK/socket.lbrc" "$WORK/inproc.lbrc"
echo "OK: socket result is byte-identical to the in-process (traced) run"

# The traced run must have produced a loadable Chrome trace with at least
# one GBR iteration span.  jq where available, grep as the fallback.
if command -v jq >/dev/null 2>&1; then
  jq -e '.traceEvents | length > 0' "$TRACE_OUT" > /dev/null \
    || { echo "trace has no events"; exit 1; }
  jq -e '[.traceEvents[] | select(.name == "gbr.iteration")] | length >= 1' \
    "$TRACE_OUT" > /dev/null || { echo "trace has no gbr.iteration span"; exit 1; }
else
  grep -q '"traceEvents"' "$TRACE_OUT" || { echo "not a trace file"; exit 1; }
  grep -q '"gbr.iteration"' "$TRACE_OUT" || { echo "trace has no gbr.iteration span"; exit 1; }
fi
echo "OK: --trace emitted valid Chrome trace JSON with gbr.iteration spans"

test -f "$WORK/journal/job-000001/done" || { echo "journal has no done marker"; exit 1; }
echo "OK: journal recorded the job and its terminal marker"

# ---------------------------------------------------------------------
# Non-JVM frontends: reduce the checked-in DIMACS and FJ examples both
# one-shot and through the daemon (the spec's frontend tag); the daemon
# result must be byte-identical and strictly smaller than the input.

CNF_IN=examples/data/php.cnf
FJ_IN=examples/data/figure1.fj
[ -f "$CNF_IN" ] && [ -f "$FJ_IN" ] \
  || { echo "frontend example inputs missing ($CNF_IN, $FJ_IN)"; exit 1; }

"$BIN" reduce "$CNF_IN" --output "$WORK/php.oneshot.cnf" > /dev/null
"$BIN" submit --socket "$SOCK" "$CNF_IN" --output "$WORK/php.daemon.cnf" > /dev/null
cmp "$WORK/php.oneshot.cnf" "$WORK/php.daemon.cnf"
[ "$(wc -c < "$WORK/php.daemon.cnf")" -lt "$(wc -c < "$CNF_IN")" ] \
  || { echo "DIMACS reduction did not shrink the input"; exit 1; }
grep -q '^p cnf ' "$WORK/php.daemon.cnf" || { echo "reduced DIMACS lacks a header"; exit 1; }
echo "OK: DIMACS daemon reduction is byte-identical to the one-shot run and smaller"

"$BIN" reduce "$FJ_IN" --require "class A" --output "$WORK/figure1.oneshot.fj" > /dev/null
"$BIN" submit --socket "$SOCK" "$FJ_IN" --require "class A" \
  --output "$WORK/figure1.daemon.fj" > /dev/null
cmp "$WORK/figure1.oneshot.fj" "$WORK/figure1.daemon.fj"
[ "$(wc -c < "$WORK/figure1.daemon.fj")" -lt "$(wc -c < "$FJ_IN")" ] \
  || { echo "FJ reduction did not shrink the input"; exit 1; }
grep -q 'class A' "$WORK/figure1.daemon.fj" || { echo "reduced FJ lost the required marker"; exit 1; }
echo "OK: FJ daemon reduction is byte-identical to the one-shot run, smaller, marker kept"

# ---------------------------------------------------------------------
# Speculative predicate pipelining: the same one-shot reductions with
# --speculate --jobs 2 must be byte-identical to their sequential runs,
# on every frontend (jvm, dimacs, fj).

"$BIN" reduce --seed 1 --classes 30 --speculate --jobs 2 \
  --output-pool "$WORK/inproc.spec.lbrc" > /dev/null 2>&1
cmp "$WORK/inproc.spec.lbrc" "$WORK/inproc.lbrc"
"$BIN" reduce "$CNF_IN" --speculate --jobs 2 --output "$WORK/php.spec.cnf" > /dev/null
cmp "$WORK/php.spec.cnf" "$WORK/php.oneshot.cnf"
"$BIN" reduce "$FJ_IN" --require "class A" --speculate --jobs 2 \
  --output "$WORK/figure1.spec.fj" > /dev/null
cmp "$WORK/figure1.spec.fj" "$WORK/figure1.oneshot.fj"
echo "OK: --speculate --jobs 2 is byte-identical to sequential on jvm, dimacs and fj"

# ---------------------------------------------------------------------
# JVM is an ordinary frontend: an exported pool is an INPUT like any
# other, and every strategy runs one-shot and through the daemon alike.

"$BIN" export --seed 1 --classes 30 --pool "$WORK/P.lbrc" > /dev/null
"$BIN" reduce "$WORK/P.lbrc" --output-pool "$WORK/P.inproc.lbrc" > /dev/null
cmp "$WORK/P.inproc.lbrc" "$WORK/inproc.lbrc"
echo "OK: reducing an exported pool file is byte-identical to reducing the generated pool"

"$BIN" reduce "$CNF_IN" --strategy lossy-first --output-pool "$WORK/php.lossy.oneshot.cnf" \
  > /dev/null
"$BIN" submit --socket "$SOCK" "$CNF_IN" --strategy lossy-first \
  --output-pool "$WORK/php.lossy.daemon.cnf" > /dev/null
cmp "$WORK/php.lossy.oneshot.cnf" "$WORK/php.lossy.daemon.cnf"
echo "OK: DIMACS lossy-first daemon reduction is byte-identical to the one-shot run"

"$BIN" reduce "$WORK/P.lbrc" --strategy jreduce --output-pool "$WORK/P.jreduce.oneshot.lbrc" \
  > /dev/null
"$BIN" submit --socket "$SOCK" "$WORK/P.lbrc" --strategy jreduce \
  --output-pool "$WORK/P.jreduce.daemon.lbrc" > /dev/null
cmp "$WORK/P.jreduce.oneshot.lbrc" "$WORK/P.jreduce.daemon.lbrc"
echo "OK: JVM j-reduce daemon reduction of a pool file is byte-identical to the one-shot run"

# Keep the reduced frontend outputs (e.g. as CI artifacts) when asked to.
if [ -n "${FRONTEND_OUT:-}" ]; then
  mkdir -p "$FRONTEND_OUT"
  cp "$WORK/php.daemon.cnf" "$FRONTEND_OUT/php.reduced.cnf"
  cp "$WORK/figure1.daemon.fj" "$FRONTEND_OUT/figure1.reduced.fj"
  echo "OK: reduced frontend outputs copied to $FRONTEND_OUT"
fi

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"  # set -e: a non-zero daemon exit fails the smoke test
grep -q "drained" "$WORK/serve.log" || { echo "daemon did not report a drain"; cat "$WORK/serve.log"; exit 1; }
echo "OK: daemon drained and exited cleanly on SIGTERM"

# ---------------------------------------------------------------------
# Cluster: coordinator + two TCP workers, kill -9 one worker mid-job.
# Everything runs traced: worker spans parent under the coordinator's
# per-job span (trace context carried in the spec), and the coordinator
# federates the workers' metric registries.

"$BIN" serve --socket 127.0.0.1:0 --jobs 1 --queue-depth 8 --trace "$WORK/w1-trace.json" \
  > "$WORK/w1.log" 2>&1 &
W1_PID=$!
"$BIN" serve --socket 127.0.0.1:0 --jobs 1 --queue-depth 8 --trace "$WORK/w2-trace.json" \
  > "$WORK/w2.log" 2>&1 &
W2_PID=$!

worker_addr() {  # $1: logfile — wait for the bound TCP address to be printed
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^lbr-serve: listening on \([0-9.:]*\) .*/\1/p' "$1")
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  return 1
}
W1_ADDR=$(worker_addr "$WORK/w1.log") || { echo "worker 1 never bound"; cat "$WORK/w1.log"; exit 1; }
W2_ADDR=$(worker_addr "$WORK/w2.log") || { echo "worker 2 never bound"; cat "$WORK/w2.log"; exit 1; }

COORD_SOCK="$WORK/coord.sock"
COORD_JOURNAL="$WORK/coordjournal"
"$BIN" coordinate --listen "$COORD_SOCK" --worker "$W1_ADDR" --worker "$W2_ADDR" \
  --journal "$COORD_JOURNAL" --cache "$WORK/verdicts.cache" \
  --trace "$WORK/coord-trace.json" --poll-interval 0.5 --prometheus-listen 0 \
  > "$WORK/coord.log" 2>&1 &
COORD_PID=$!

for _ in $(seq 1 100); do
  [ -S "$COORD_SOCK" ] && break
  sleep 0.1
done
[ -S "$COORD_SOCK" ] || { echo "coordinator never bound $COORD_SOCK"; cat "$WORK/coord.log"; exit 1; }

# 512 classes: the job must run for seconds, not milliseconds, so the
# kill -9 below lands while it is genuinely mid-reduction (the pre-kill
# trace dumps each cost a process spawn).
"$BIN" submit --socket "$COORD_SOCK" --seed 21 --classes 512 \
  --output-pool "$WORK/cluster.lbrc" > "$WORK/submit.log" 2>&1 &
SUBMIT_PID=$!

# Wait until the coordinator has mirrored a few of the worker's streamed
# verdicts into its journal — proof the job is mid-reduction somewhere.
VERDICTS=0
for _ in $(seq 1 500); do
  # The glob may not match yet; under pipefail the failing cat must not
  # take the whole script down with it.
  VERDICTS=$({ cat "$COORD_JOURNAL"/job-*/preds.log 2>/dev/null || true; } | wc -l)
  [ "$VERDICTS" -ge 3 ] && break
  sleep 0.01
done

# Capture both workers' span rings BEFORE the kill: the victim's spans
# survive only in this pre-kill .tdump, and the merged trace must still
# show them parented under the coordinator's job span.
"$BIN" trace-dump --socket "$W1_ADDR" -o "$WORK/w1.tdump" > /dev/null
"$BIN" trace-dump --socket "$W2_ADDR" -o "$WORK/w2.tdump" > /dev/null
echo "OK: captured pre-kill trace dumps of both workers"

# kill -9 the worker holding the job.  Which worker that is is the
# coordinator's lane choice, not something this script should assume,
# but the pre-kill trace dumps tell us: only the busy worker's span ring
# carries ctx.parent-annotated job spans.  (Sniffing coordinator TCP
# connections does not work: the metrics-federation poller dials every
# worker twice a second.)
W1_CTX=$(grep -ac 'ctx.parent' "$WORK/w1.tdump" || true)
W2_CTX=$(grep -ac 'ctx.parent' "$WORK/w2.tdump" || true)
if [ "$W1_CTX" -eq "$W2_CTX" ]; then
  echo "cannot tell which worker runs the job (ctx spans: w1=$W1_CTX w2=$W2_CTX)"
  exit 1
fi
if [ "$W1_CTX" -gt "$W2_CTX" ]; then
  VICTIM=$W1_PID SURVIVOR=$W2_PID SURVIVOR_ADDR=$W2_ADDR
else
  VICTIM=$W2_PID SURVIVOR=$W1_PID SURVIVOR_ADDR=$W1_ADDR
fi
kill -9 "$VICTIM"
echo "OK: killed a worker after $VERDICTS mirrored verdicts"

wait "$SUBMIT_PID"  # set -e: the cluster submission must still succeed

"$BIN" reduce --seed 21 --classes 512 --output-pool "$WORK/seq.lbrc" > /dev/null 2>&1
cmp "$WORK/cluster.lbrc" "$WORK/seq.lbrc"
echo "OK: cluster result (worker killed mid-job) is byte-identical to a sequential run"

"$BIN" top --socket "$COORD_SOCK" > "$WORK/top.out"
grep -q '^cluster:' "$WORK/top.out" || { echo "top lacks cluster health"; cat "$WORK/top.out"; exit 1; }
grep -q '^cluster cache:' "$WORK/top.out" || { echo "top lacks cluster cache stats"; cat "$WORK/top.out"; exit 1; }
echo "OK: top reports cluster worker and verdict-cache health"

# The survivor re-ran the job seeded with the verdicts the victim had
# streamed before it died, so it answered those without running the tool.
"$BIN" top --socket "$SURVIVOR_ADDR" > "$WORK/top-survivor.out"
grep -Eq '^verdicts: [0-9]+ fresh, [1-9][0-9]* replayed$' "$WORK/top-survivor.out" \
  || { echo "surviving worker replayed no verdicts"; cat "$WORK/top-survivor.out"; exit 1; }
echo "OK: the surviving worker replayed the coordinator's seeds"

test -s "$COORD_JOURNAL"/job-000001/preds.log || { echo "coordinator journal mirrored no verdicts"; exit 1; }
test -s "$WORK/verdicts.cache" || { echo "verdict cache file is empty"; exit 1; }
echo "OK: coordinator journal and verdict cache were persisted"

# ---------------------------------------------------------------------
# Distributed trace: merge the live coordinator, the live survivor and
# both pre-kill worker captures into one Chrome trace, then assert the
# cross-node parentage the whole layer exists for — worker-side spans
# carrying the coordinator job span's id as ctx.parent, on a different
# process lane, for at least two worker lanes (the victim's spans come
# from its pre-kill .tdump).
MERGED_TRACE=${MERGED_TRACE:-$WORK/cluster-trace.json}
"$BIN" trace-merge -o "$MERGED_TRACE" \
  "$COORD_SOCK" "$SURVIVOR_ADDR" "$WORK/w1.tdump" "$WORK/w2.tdump"

if command -v jq >/dev/null 2>&1; then
  jq -e '
    [.traceEvents[] | select(.name == "coordinator.job" and .args.span_id != null)] as $jobs
    | [.traceEvents[] | . as $e
       | select((.args["ctx.parent"] // "") != "")
       | select(any($jobs[]; .args.span_id == $e.args["ctx.parent"] and .pid != $e.pid))
       | .pid]
    | unique | length >= 2' "$MERGED_TRACE" > /dev/null \
    || { echo "merged trace lacks cross-node parented spans on two worker lanes"; exit 1; }
else
  grep -q '"coordinator.job"' "$MERGED_TRACE" || { echo "merged trace has no coordinator.job span"; exit 1; }
  grep -q '"ctx.parent"' "$MERGED_TRACE" || { echo "merged trace has no context-parented spans"; exit 1; }
fi
echo "OK: merged trace parents worker spans under the coordinator job span on both lanes"

# ---------------------------------------------------------------------
# Metrics federation: `top --metrics` serves the cluster-merged view
# (local registry + per-worker dumps + an exact-merged {worker="cluster"}
# series), and the --prometheus-listen HTTP endpoint serves the same text.
FEDERATED_METRICS=${FEDERATED_METRICS:-$WORK/federated-metrics.prom}
"$BIN" top --socket "$COORD_SOCK" --metrics > "$WORK/top-metrics.out"
grep -q 'worker="cluster"' "$WORK/top-metrics.out" \
  || { echo "top --metrics lacks the merged cluster series"; cat "$WORK/top-metrics.out"; exit 1; }
grep -q 'speculation:' "$WORK/top-metrics.out" || true  # spec line only when counters exist
cp "$WORK/top-metrics.out" "$FEDERATED_METRICS"

PROM_PORT=$(sed -n 's#.*federated metrics on http://127.0.0.1:\([0-9]*\)/metrics.*#\1#p' "$WORK/coord.log")
if [ -n "$PROM_PORT" ] && command -v curl >/dev/null 2>&1; then
  curl -sf "http://127.0.0.1:$PROM_PORT/metrics" > "$FEDERATED_METRICS"
  grep -q 'worker="cluster"' "$FEDERATED_METRICS" \
    || { echo "prometheus endpoint lacks the merged cluster series"; exit 1; }
  echo "OK: --prometheus-listen endpoint serves the federated registry"
else
  echo "OK: federated metrics taken via top --metrics (no curl or no endpoint port)"
fi
echo "OK: coordinator federates worker metric registries"

kill -TERM "$COORD_PID"
wait "$COORD_PID"
grep -q "drained" "$WORK/coord.log" || { echo "coordinator did not drain"; cat "$WORK/coord.log"; exit 1; }
kill -TERM "$SURVIVOR" 2>/dev/null || true
wait "$SURVIVOR" 2>/dev/null || true
echo "OK: coordinator drained and exited cleanly on SIGTERM"

# The drain must have dropped a flight-recorder dump into the journal
# directory, and `report` must render a post-mortem from it.
ls "$COORD_JOURNAL"/flight-*-drain.json > /dev/null 2>&1 \
  || { echo "coordinator drain left no flight-recorder dump"; ls "$COORD_JOURNAL"; exit 1; }
"$BIN" report --journal "$COORD_JOURNAL" > "$WORK/report.out"
grep -q 'flight' "$WORK/report.out" || { echo "report ignored the flight dump"; cat "$WORK/report.out"; exit 1; }
grep -q 'job-000001' "$WORK/report.out" || { echo "report lacks the job's history"; cat "$WORK/report.out"; exit 1; }
"$BIN" report --journal "$COORD_JOURNAL" --json > "$WORK/report.json"
if command -v jq >/dev/null 2>&1; then
  jq -e . "$WORK/report.json" > /dev/null || { echo "report --json is not valid JSON"; exit 1; }
fi
echo "OK: flight recorder dumped on drain and report renders the post-mortem"

# Keep the coordinator journal (e.g. as a CI artifact) when asked to.
if [ -n "${CLUSTER_JOURNAL_OUT:-}" ]; then
  rm -rf "$CLUSTER_JOURNAL_OUT"
  cp -r "$COORD_JOURNAL" "$CLUSTER_JOURNAL_OUT"
  cp "$WORK/verdicts.cache" "$CLUSTER_JOURNAL_OUT/verdicts.cache"
  echo "OK: coordinator journal copied to $CLUSTER_JOURNAL_OUT"
fi
