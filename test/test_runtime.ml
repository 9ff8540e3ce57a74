(* The parallel runtime: domain pool, resilient oracle, fault injection,
   and the determinism of parallel corpus runs. *)

open Lbr_logic
open Lbr_runtime

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)

let test_submit_await () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let f = Pool.submit pool (fun () -> 21 * 2) in
      Alcotest.(check int) "await returns the value" 42 (Pool.await f);
      Alcotest.(check int) "await is repeatable" 42 (Pool.await f))

let test_map_list_ordered () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 200 Fun.id in
      let expected = List.map (fun i -> i * i) xs in
      Alcotest.(check (list int))
        "results in submission order" expected
        (Pool.map_list pool (fun i -> i * i) xs))

let test_map_list_single_worker () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int))
        "jobs=1 pool works" [ 1; 2; 3 ]
        (Pool.map_list pool (fun i -> i + 1) [ 0; 1; 2 ]))

let test_exceptions_propagate () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let f = Pool.submit pool (fun () -> failwith "boom") in
      Alcotest.check_raises "task exception re-raised by await" (Failure "boom") (fun () ->
          ignore (Pool.await f));
      (* the pool survives a failed task *)
      Alcotest.(check int) "pool still alive" 7 (Pool.await (Pool.submit pool (fun () -> 7))))

let test_submit_after_shutdown_raises () =
  let pool = Pool.create ~jobs:2 () in
  Alcotest.(check int) "task before shutdown" 1 (Pool.await (Pool.submit pool (fun () -> 1)));
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> 2)))

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_parallel_counter_updates () =
  (* Many concurrent tasks hammering shared mutex-guarded state. *)
  let counter = ref 0 in
  let mutex = Mutex.create () in
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Pool.map_list pool
          (fun _ ->
            Mutex.lock mutex;
            incr counter;
            Mutex.unlock mutex;
            1)
          (List.init 500 Fun.id)
      in
      Alcotest.(check int) "all tasks ran" 500 (List.fold_left ( + ) 0 results));
  Alcotest.(check int) "no lost updates" 500 !counter

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)

let assignment_of_int n = Assignment.of_list [ n ]

(* Query [oracle] the way the daemon does: keyed on the input's digest,
   with the black box applied to the input as the thunk. *)
let query oracle box input =
  Oracle.run oracle ~key:(Assignment.digest_hex input) (fun () -> box input)

let test_oracle_memo_and_counters () =
  let executions = ref 0 in
  let oracle = Oracle.make ~name:"parity" () in
  let parity a =
    incr executions;
    Assignment.cardinal a mod 2 = 0
  in
  let input = Assignment.of_list [ 1; 2 ] in
  Alcotest.(check bool) "first run" true (query oracle parity input);
  Alcotest.(check bool) "second run (memoized)" true (query oracle parity input);
  Alcotest.(check int) "one underlying execution" 1 !executions;
  Alcotest.(check int) "executions counter" 1 (Oracle.executions oracle);
  Alcotest.(check int) "two queries" 2 (Oracle.queries oracle);
  Alcotest.(check int) "one memo hit" 1 (Oracle.memo_hits oracle);
  Oracle.reset oracle;
  Alcotest.(check int) "reset clears queries" 0 (Oracle.queries oracle);
  Alcotest.(check bool) "runs again after reset" true (query oracle parity input);
  Alcotest.(check int) "re-executed after reset" 2 !executions

let transient_filter = function Lbr_decompiler.Tool.Transient_failure _ -> true | _ -> false

let test_oracle_retry_recovers () =
  (* Every input fails transiently on its first attempt, then succeeds. *)
  let attempts = Hashtbl.create 16 in
  let config =
    { Oracle.default_config with retries = 2; transient = transient_filter }
  in
  let oracle = Oracle.make ~config ~name:"flaky" () in
  let flaky a =
    let k = try Hashtbl.find attempts a with Not_found -> 0 in
    Hashtbl.replace attempts a (k + 1);
    if k = 0 then raise (Lbr_decompiler.Tool.Transient_failure "first attempt fails");
    Assignment.cardinal a mod 2 = 0
  in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "input %d recovered" n)
        (Assignment.cardinal (assignment_of_int n) mod 2 = 0)
        (query oracle flaky (assignment_of_int n)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "one retry per input" 3 (Oracle.retries_used oracle);
  Alcotest.(check int) "two attempts per input" 6 (Oracle.executions oracle);
  Alcotest.(check int) "no crashes classified" 0 (Oracle.crashes oracle)

let crashing_box _ = raise (Lbr_decompiler.Tool.Tool_crash "simulated segfault")

let test_oracle_crash_policy_fails () =
  let config = { Oracle.default_config with crash_policy = Oracle.Crash_fails } in
  let oracle = Oracle.make ~config ~name:"crashy" () in
  Alcotest.(check bool) "crash maps to false" false
    (query oracle crashing_box (assignment_of_int 1));
  Alcotest.(check int) "crash counted" 1 (Oracle.crashes oracle);
  (* the mapped outcome is memoized: no second execution *)
  Alcotest.(check bool) "memoized" false (query oracle crashing_box (assignment_of_int 1));
  Alcotest.(check int) "single execution" 1 (Oracle.executions oracle)

let test_oracle_crash_policy_passes () =
  let config = { Oracle.default_config with crash_policy = Oracle.Crash_passes } in
  let oracle = Oracle.make ~config ~name:"crashy" () in
  Alcotest.(check bool) "crash maps to true" true
    (query oracle crashing_box (assignment_of_int 1))

let test_oracle_crash_policy_raises () =
  let oracle = Oracle.make ~name:"crashy" () in
  (match query oracle crashing_box (assignment_of_int 1) with
  | (_ : bool) -> Alcotest.fail "expected Oracle.Crashed"
  | exception Oracle.Crashed { oracle = name; attempts; reason } ->
      Alcotest.(check string) "oracle name" "crashy" name;
      Alcotest.(check int) "one attempt (crashes are not retried)" 1 attempts;
      Alcotest.(check bool) "reason mentions the crash" true
        (String.length reason > 0));
  Alcotest.(check int) "crash counted" 1 (Oracle.crashes oracle)

let test_oracle_transient_exhaustion_classified () =
  (* A failure that stays transient runs out of retries and is then
     classified by the crash policy like any other crash. *)
  let config =
    {
      Oracle.default_config with
      retries = 2;
      transient = transient_filter;
      crash_policy = Oracle.Crash_fails;
    }
  in
  let oracle = Oracle.make ~config ~name:"always-flaky" () in
  Alcotest.(check bool) "exhaustion maps to false" false
    (Oracle.run oracle ~key:"k" (fun () ->
         raise (Lbr_decompiler.Tool.Transient_failure "still failing")));
  Alcotest.(check int) "three attempts" 3 (Oracle.executions oracle);
  Alcotest.(check int) "two retries" 2 (Oracle.retries_used oracle);
  Alcotest.(check int) "one crash classified" 1 (Oracle.crashes oracle)

let test_oracle_advisory_timeout () =
  (* A negative budget makes every attempt "too slow" without sleeping:
     the timeout is advisory (measured after the fact), so this exercises
     exactly the production path. *)
  let config =
    {
      Oracle.default_config with
      timeout = Some (-1.0);
      retries = 1;
      crash_policy = Oracle.Crash_fails;
    }
  in
  let oracle = Oracle.make ~config ~name:"slow" () in
  Alcotest.(check bool) "timeout maps to false" false (Oracle.run oracle ~key:"k" (fun () -> true));
  Alcotest.(check int) "both attempts timed out" 2 (Oracle.timeouts oracle);
  Alcotest.(check int) "one retry" 1 (Oracle.retries_used oracle);
  Alcotest.(check int) "classified as crash" 1 (Oracle.crashes oracle)

(* The key alone decides memo hits: a second query under a known key is
   answered without running its thunk, whatever the thunk would say. *)
let test_oracle_memo_keyed_on_digest () =
  let oracle = Oracle.make ~name:"keyed" () in
  Alcotest.(check string) "name" "keyed" (Oracle.name oracle);
  Alcotest.(check bool) "first key runs" false (Oracle.run oracle ~key:"a" (fun () -> false));
  Alcotest.(check bool) "same key, memoized verdict" false
    (Oracle.run oracle ~key:"a" (fun () -> Alcotest.fail "thunk ran on a memo hit"));
  Alcotest.(check bool) "other key runs" true (Oracle.run oracle ~key:"b" (fun () -> true));
  Alcotest.(check int) "two executions" 2 (Oracle.executions oracle);
  Alcotest.(check int) "one memo hit" 1 (Oracle.memo_hits oracle)

(* In-flight dedup: concurrent queries for one uncached input must cost a
   single black-box execution.  The leader's black box blocks until the
   test releases it, so the other queries demonstrably arrive while it is
   still running; the counters are the same even if a straggler arrives
   after the leader settled (it then scores a plain memo hit), so the
   assertions are scheduling-independent. *)
let test_oracle_inflight_dedup () =
  let executing = Atomic.make false and release = Atomic.make false in
  let oracle = Oracle.make ~name:"dedup" () in
  let blocking () =
    Atomic.set executing true;
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done;
    true
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let futures =
        List.init 4 (fun _ -> Pool.submit pool (fun () -> Oracle.run oracle ~key:"k" blocking))
      in
      while not (Atomic.get executing) do
        Unix.sleepf 0.001
      done;
      (* let the other three queries pile up behind the leader *)
      Unix.sleepf 0.02;
      Atomic.set release true;
      List.iter (fun f -> Alcotest.(check bool) "verdict" true (Pool.await f)) futures);
  Alcotest.(check int) "one black-box execution" 1 (Oracle.executions oracle);
  Alcotest.(check int) "four queries" 4 (Oracle.queries oracle);
  Alcotest.(check int) "three memo hits" 3 (Oracle.memo_hits oracle)

(* A leader that raises (Crash_raises memoizes nothing) must not strand
   its waiters: one of them takes over as the new leader and executes. *)
let test_oracle_inflight_leader_crash_takeover () =
  let calls = Atomic.make 0 in
  let executing = Atomic.make false and release = Atomic.make false in
  let oracle = Oracle.make ~name:"takeover" () in
  let leader_dies () =
    if Atomic.fetch_and_add calls 1 = 0 then begin
      Atomic.set executing true;
      while not (Atomic.get release) do
        Unix.sleepf 0.001
      done;
      raise (Lbr_decompiler.Tool.Tool_crash "leader dies")
    end
    else true
  in
  let outcomes =
    Pool.with_pool ~jobs:2 (fun pool ->
        let futures =
          List.init 2 (fun _ ->
              Pool.submit pool (fun () ->
                  match Oracle.run oracle ~key:"k" leader_dies with
                  | b -> `Ok b
                  | exception Oracle.Crashed _ -> `Crashed))
        in
        while not (Atomic.get executing) do
          Unix.sleepf 0.001
        done;
        Unix.sleepf 0.02;
        Atomic.set release true;
        List.map Pool.await futures)
  in
  Alcotest.(check int) "two executions (the takeover reruns)" 2 (Oracle.executions oracle);
  Alcotest.(check int) "one crash" 1 (Oracle.crashes oracle);
  Alcotest.(check bool) "one caller saw the crash" true (List.mem `Crashed outcomes);
  Alcotest.(check bool) "one caller got the verdict" true (List.mem (`Ok true) outcomes);
  Alcotest.(check bool) "takeover memoized the verdict" true
    (Oracle.run oracle ~key:"k" (fun () -> Alcotest.fail "memoized verdict re-ran"))

(* ------------------------------------------------------------------ *)
(* Fault injection through the simulated decompiler                   *)

let small_pool = lazy (Lbr_workload.Generator.generate ~seed:5 (Lbr_workload.Generator.njr_profile ~classes:20))

let test_faulty_tool_oracle_recovers () =
  let pool = Lazy.force small_pool in
  let tool = Lbr_decompiler.Tool.cfr_sim in
  let clean_errors = Lbr_decompiler.Tool.errors tool pool in
  let faults = Lbr_decompiler.Tool.Faults.make ~flaky_rate:0.3 ~seed:11 () in
  let faulty = Lbr_decompiler.Tool.with_faults faults tool in
  let config =
    {
      Oracle.default_config with
      retries = 5;
      transient = transient_filter;
      crash_policy = Oracle.Crash_raises;
    }
  in
  (* The oracle's black box compares a (here: fixed) candidate's errors
     against the clean baseline; flaky runs raise and must be retried. *)
  let oracle = Oracle.make ~config ~name:"faulty-cfr" () in
  (* distinct keys so the memo does not absorb the repetitions *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "call %d recovered the clean outcome" n)
        true
        (Oracle.run oracle ~key:(string_of_int n) (fun () ->
             Lbr_decompiler.Tool.errors faulty pool = clean_errors)))
    (List.init 20 Fun.id);
  Alcotest.(check bool) "the schedule did inject flakiness" true
    (Lbr_decompiler.Tool.Faults.injected_flaky faults > 0);
  Alcotest.(check bool) "retries were exercised" true (Oracle.retries_used oracle > 0);
  Alcotest.(check int) "every transient failure was recovered" 0 (Oracle.crashes oracle)

let test_faulty_tool_crash_policies () =
  let pool = Lazy.force small_pool in
  let run_with policy =
    let faults = Lbr_decompiler.Tool.Faults.make ~crash_rate:1.0 ~seed:3 () in
    let faulty = Lbr_decompiler.Tool.with_faults faults Lbr_decompiler.Tool.procyon_sim in
    let config = { Oracle.default_config with crash_policy = policy } in
    let oracle = Oracle.make ~config ~name:"crashing-procyon" () in
    Oracle.run oracle ~key:"0" (fun () -> Lbr_decompiler.Tool.errors faulty pool <> [])
  in
  Alcotest.(check bool) "Crash_fails" false (run_with Oracle.Crash_fails);
  Alcotest.(check bool) "Crash_passes" true (run_with Oracle.Crash_passes);
  match run_with Oracle.Crash_raises with
  | (_ : bool) -> Alcotest.fail "expected Oracle.Crashed"
  | exception Oracle.Crashed _ -> ()

let test_faults_deterministic_schedule () =
  let schedule seed =
    let faults = Lbr_decompiler.Tool.Faults.make ~flaky_rate:0.4 ~crash_rate:0.2 ~seed () in
    let tool = Lbr_decompiler.Tool.with_faults faults Lbr_decompiler.Tool.cfr_sim in
    let pool = Lazy.force small_pool in
    List.init 30 (fun _ ->
        match Lbr_decompiler.Tool.errors tool pool with
        | (_ : string list) -> 'c'
        | exception Lbr_decompiler.Tool.Transient_failure _ -> 'f'
        | exception Lbr_decompiler.Tool.Tool_crash _ -> 'x')
  in
  Alcotest.(check (list char)) "same seed, same schedule" (schedule 99) (schedule 99);
  Alcotest.(check bool) "different seeds differ" true (schedule 99 <> schedule 100)

(* ------------------------------------------------------------------ *)
(* Determinism of parallel corpus runs                                *)

let check_outcomes_equal_modulo_wall ~what expected actual =
  Alcotest.(check int) (what ^ ": same length") (List.length expected) (List.length actual);
  List.iter2
    (fun (a : Lbr_harness.Experiment.outcome) (b : Lbr_harness.Experiment.outcome) ->
      let ctx field = Printf.sprintf "%s: %s/%s" what a.instance_id field in
      Alcotest.(check string) (ctx "instance_id") a.instance_id b.instance_id;
      Alcotest.(check bool) (ctx "ok") a.ok b.ok;
      Alcotest.(check (float 1e-9)) (ctx "sim_time") a.sim_time b.sim_time;
      Alcotest.(check int) (ctx "predicate_runs") a.predicate_runs b.predicate_runs;
      Alcotest.(check int) (ctx "classes0") a.classes0 b.classes0;
      Alcotest.(check int) (ctx "classes1") a.classes1 b.classes1;
      Alcotest.(check int) (ctx "bytes0") a.bytes0 b.bytes0;
      Alcotest.(check int) (ctx "bytes1") a.bytes1 b.bytes1;
      Alcotest.(check int) (ctx "items0") a.items0 b.items0;
      Alcotest.(check int) (ctx "items1") a.items1 b.items1;
      Alcotest.(check int) (ctx "lines0") a.lines0 b.lines0;
      Alcotest.(check int) (ctx "lines1") a.lines1 b.lines1;
      Alcotest.(check int) (ctx "timeline length") (List.length a.timeline)
        (List.length b.timeline);
      List.iter2
        (fun (t1, c1, b1) (t2, c2, b2) ->
          Alcotest.(check (float 1e-9)) (ctx "timeline time") t1 t2;
          Alcotest.(check int) (ctx "timeline classes") c1 c2;
          Alcotest.(check int) (ctx "timeline bytes") b1 b2)
        a.timeline b.timeline)
    expected actual

let ten_instances =
  lazy
    (let benchmarks = Lbr_harness.Corpus.build ~seed:2025 ~programs:8 ~mean_classes:22 in
     let instances = Lbr_harness.Corpus.instances benchmarks in
     Alcotest.(check bool) "corpus yields at least 10 instances" true
       (List.length instances >= 10);
     List.filteri (fun i _ -> i < 10) instances)

let test_run_corpus_parallel_deterministic () =
  let instances = Lazy.force ten_instances in
  let sequential = Lbr_harness.Experiment.run_corpus ~jobs:1 Lbr_harness.Experiment.Gbr instances in
  let parallel = Lbr_harness.Experiment.run_corpus ~jobs:4 Lbr_harness.Experiment.Gbr instances in
  check_outcomes_equal_modulo_wall ~what:"gbr jobs=4 vs jobs=1" sequential parallel

(* Tracing must be observation only: the same corpus reduced with the
   recorder on yields outcome-identical results, sequentially and on a
   domain pool — while actually capturing gbr.iteration spans. *)
let test_run_corpus_tracing_is_transparent () =
  let instances = Lazy.force ten_instances in
  let traced jobs =
    Lbr_obs.Trace.start ();
    let outcomes =
      Fun.protect
        ~finally:(fun () -> Lbr_obs.Trace.stop ())
        (fun () -> Lbr_harness.Experiment.run_corpus ~jobs Lbr_harness.Experiment.Gbr instances)
    in
    let iterations =
      List.length
        (List.filter
           (fun (e : Lbr_obs.Trace.event) -> e.ev_name = "gbr.iteration")
           (Lbr_obs.Trace.events ()))
    in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d captured gbr.iteration spans" jobs)
      true (iterations > 0);
    outcomes
  in
  let plain1 = Lbr_harness.Experiment.run_corpus ~jobs:1 Lbr_harness.Experiment.Gbr instances in
  check_outcomes_equal_modulo_wall ~what:"traced jobs=1 vs plain jobs=1" plain1 (traced 1);
  check_outcomes_equal_modulo_wall ~what:"traced jobs=4 vs plain jobs=1" plain1 (traced 4)

let test_run_corpus_jobs1_matches_run () =
  let instances = Lazy.force ten_instances in
  let direct = List.map (Lbr_harness.Experiment.run Lbr_harness.Experiment.Jreduce) instances in
  let corpus =
    Lbr_harness.Experiment.run_corpus ~jobs:1 Lbr_harness.Experiment.Jreduce instances
  in
  check_outcomes_equal_modulo_wall ~what:"jobs=1 vs direct map" direct corpus

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "map_list preserves order" `Quick test_map_list_ordered;
          Alcotest.test_case "single worker" `Quick test_map_list_single_worker;
          Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
          Alcotest.test_case "shutdown semantics" `Quick test_submit_after_shutdown_raises;
          Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
          Alcotest.test_case "concurrent updates" `Quick test_parallel_counter_updates;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "memo and counters" `Quick test_oracle_memo_and_counters;
          Alcotest.test_case "retry recovers transients" `Quick test_oracle_retry_recovers;
          Alcotest.test_case "crash policy: fail" `Quick test_oracle_crash_policy_fails;
          Alcotest.test_case "crash policy: pass" `Quick test_oracle_crash_policy_passes;
          Alcotest.test_case "crash policy: raise" `Quick test_oracle_crash_policy_raises;
          Alcotest.test_case "transient exhaustion" `Quick
            test_oracle_transient_exhaustion_classified;
          Alcotest.test_case "advisory timeout" `Quick test_oracle_advisory_timeout;
          Alcotest.test_case "memo is keyed on the digest" `Quick test_oracle_memo_keyed_on_digest;
          Alcotest.test_case "in-flight dedup" `Quick test_oracle_inflight_dedup;
          Alcotest.test_case "leader crash takeover" `Quick
            test_oracle_inflight_leader_crash_takeover;
        ] );
      ( "faults",
        [
          Alcotest.test_case "oracle recovers flaky tool" `Quick test_faulty_tool_oracle_recovers;
          Alcotest.test_case "crash policies end to end" `Quick test_faulty_tool_crash_policies;
          Alcotest.test_case "seeded schedule is deterministic" `Quick
            test_faults_deterministic_schedule;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=4 equals jobs=1 (gbr, 10 instances)" `Slow
            test_run_corpus_parallel_deterministic;
          Alcotest.test_case "jobs=1 equals direct run (jreduce)" `Slow
            test_run_corpus_jobs1_matches_run;
          Alcotest.test_case "tracing on equals tracing off (jobs=1 and 4)" `Slow
            test_run_corpus_tracing_is_transparent;
        ] );
    ]
