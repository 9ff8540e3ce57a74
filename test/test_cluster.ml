(* Tests for the cluster layer: the content-addressed verdict cache
   (lookup semantics, disk persistence, qcheck properties), and the
   coordinator end to end against real worker daemons on loopback TCP —
   lane dispatch, priority and cancel with stub workers, warm-cache
   resubmission, and the kill-a-worker-mid-job failover acceptance
   scenario. *)

open Lbr_server
module Cache = Lbr_cluster.Cache
module Coordinator = Lbr_cluster.Coordinator
module Trace_merge = Lbr_cluster.Trace_merge

let qsuite name props = (name, List.map QCheck_alcotest.to_alcotest props)

(* ------------------------------------------------------------------ *)
(* Fixtures (mirroring test_server's)                                  *)

let fresh_dir =
  let counter = ref 0 in
  fun label ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lbr-cluster-test-%d-%d-%s" (Unix.getpid ()) !counter label)
    in
    let rec rm path =
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
    in
    rm dir;
    Unix.mkdir dir 0o755;
    dir

let pool_bytes_of_seed ?(classes = 18) seed =
  Lbr_jvm.Serialize.to_bytes
    (Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes))

let spec_of_seed ?classes ?(retries = 0) seed =
  {
    Wire.tool = "";
    strategy = Lbr_harness.Experiment.Gbr;
    priority = Wire.Normal;
    crash_policy = Lbr_runtime.Oracle.Crash_raises;
    retries;
    pool_bytes = pool_bytes_of_seed ?classes seed;
    frontend = "jvm";
    trace_ctx = None;
  }

let reference_run ?classes seed =
  let pool =
    match Lbr_jvm.Serialize.of_bytes (pool_bytes_of_seed ?classes seed) with
    | Ok pool -> pool
    | Error m -> Alcotest.failf "reference pool does not decode: %s" m
  in
  let tool =
    match
      List.find_opt (fun t -> Lbr_decompiler.Tool.is_buggy_on t pool) Lbr_decompiler.Tool.all
    with
    | Some t -> t
    | None -> Alcotest.failf "seed %d: no tool is buggy; pick another fixture seed" seed
  in
  let instance =
    {
      Lbr_harness.Corpus.instance_id = Printf.sprintf "ref-%d" seed;
      benchmark = { Lbr_harness.Corpus.bench_id = Printf.sprintf "ref-%d" seed; seed; pool };
      tool;
      baseline_errors = Lbr_decompiler.Tool.errors tool pool;
    }
  in
  let outcome, final = Lbr_harness.Experiment.run_with Lbr_harness.Experiment.Gbr instance in
  (outcome, Lbr_jvm.Serialize.to_bytes final)

let counter_value name = Option.value ~default:0 (Lbr_obs.Metrics.find_counter_value name)

let hex32 i = Printf.sprintf "%032x" (i land max_int)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_store_find_first_wins () =
  let c = Cache.create () in
  let job = hex32 1 and k1 = hex32 11 and k2 = hex32 12 in
  Alcotest.(check (option bool)) "miss on empty" None (Cache.find c ~job ~key:k1);
  Cache.store c ~job ~key:k1 true;
  Cache.store c ~job ~key:k2 false;
  Alcotest.(check (option bool)) "hit true" (Some true) (Cache.find c ~job ~key:k1);
  Alcotest.(check (option bool)) "hit false" (Some false) (Cache.find c ~job ~key:k2);
  Alcotest.(check (option bool)) "other job is a miss" None
    (Cache.find c ~job:(hex32 2) ~key:k1);
  (* deterministic verdicts: a conflicting re-store keeps the original *)
  Cache.store c ~job ~key:k1 false;
  Alcotest.(check (option bool)) "first write wins" (Some true) (Cache.find c ~job ~key:k1);
  Alcotest.(check int) "entries counts pairs once" 2 (Cache.entries c);
  let seeds = List.sort compare (Cache.seeds c ~job) in
  Alcotest.(check (list (pair string bool))) "seeds lists the job's verdicts"
    (List.sort compare [ (k1, true); (k2, false) ])
    seeds;
  Cache.close c

let test_cache_persists_across_restart () =
  let path = Filename.concat (fresh_dir "cachefile") "verdicts.cache" in
  let c = Cache.create ~path () in
  let job = hex32 7 in
  Cache.store c ~job ~key:(hex32 71) true;
  Cache.store c ~job ~key:(hex32 72) false;
  Cache.close c;
  (* a torn trailing line (crash mid-append) must not poison the reload *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (hex32 7 ^ " " ^ String.make 10 'a');
  close_out oc;
  let c = Cache.create ~path () in
  Alcotest.(check int) "whole entries survive, torn line skipped" 2 (Cache.entries c);
  Alcotest.(check (option bool)) "verdict intact" (Some true)
    (Cache.find c ~job ~key:(hex32 71));
  (* the reopened cache still appends *)
  Cache.store c ~job ~key:(hex32 73) true;
  Cache.close c;
  let c = Cache.create ~path () in
  Alcotest.(check int) "append after reload persists" 3 (Cache.entries c);
  Cache.close c

let test_cache_job_key_content_addressing () =
  let spec = spec_of_seed ~classes:6 1 in
  let k = Cache.job_key spec in
  Alcotest.(check int) "job key is 32 hex chars" 32 (String.length k);
  Alcotest.(check string) "strategy does not change the key" k
    (Cache.job_key { spec with strategy = Lbr_harness.Experiment.Jreduce });
  Alcotest.(check string) "priority does not change the key" k
    (Cache.job_key { spec with priority = Wire.High });
  Alcotest.(check string) "trace context does not change the key" k
    (Cache.job_key
       { spec with trace_ctx = Some { Lbr_obs.Trace.Context.trace_id = "t"; parent_span = "p" } });
  let changes what spec' =
    Alcotest.(check bool) (what ^ " changes the key") true (k <> Cache.job_key spec')
  in
  changes "pool bytes" { spec with pool_bytes = spec.pool_bytes ^ "x" };
  changes "crash policy" { spec with crash_policy = Lbr_runtime.Oracle.Crash_fails };
  changes "frontend" { spec with frontend = "dimacs" };
  changes "tool" { spec with tool = "cfr" };
  changes "retries" { spec with retries = 1 }

(* The wire admits any string as a Verdict key or a seed; the cache
   keeps only 32 lowercase hex, the rule its log loader applies. *)
let malformed_keys =
  [ ""; String.sub (hex32 5) 0 31; hex32 5 ^ "0"; "ABCDEF" ^ String.sub (hex32 5) 6 26;
    String.make 32 'g' ]

let test_cache_skips_malformed_keys () =
  let path = Filename.concat (fresh_dir "cachebad") "verdicts.cache" in
  let c = Cache.create ~path () in
  let job = hex32 3 and key = hex32 31 in
  Cache.store c ~job ~key true;
  let size () = (Unix.stat path).Unix.st_size in
  let size0 = size () in
  List.iter
    (fun bad ->
      Cache.store c ~job:bad ~key false;
      Cache.store c ~job ~key:bad false;
      Alcotest.(check (option bool)) "a malformed key is a miss" None (Cache.find c ~job ~key:bad);
      Alcotest.(check (list (pair string bool))) "a malformed job has no seeds" []
        (Cache.seeds c ~job:bad))
    malformed_keys;
  Alcotest.(check int) "entries unchanged" 1 (Cache.entries c);
  Alcotest.(check int) "log unchanged" size0 (size ());
  Alcotest.(check (list (pair string bool))) "seeds unchanged" [ (key, true) ]
    (Cache.seeds c ~job);
  Cache.close c

(* The packed layout's budget: at most 6 words (48 bytes) per verdict,
   everything the cache reaches included, over MD5 keys as the
   coordinator stores them and jobs of 100 to 249 verdicts (a fresh
   cluster job pays about 113). *)
let test_cache_words_per_verdict () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let c = Cache.create () in
  for j = 0 to 59 do
    let job = md5 (Printf.sprintf "job %d" j) in
    for k = 0 to 99 + (j * 37 mod 150) do
      Cache.store c ~job ~key:(md5 (Printf.sprintf "%d/%d" j k)) (k land 1 = 0)
    done
  done;
  let n = Cache.entries c in
  Alcotest.(check bool) "at least 10,000 verdicts" true (n >= 10_000);
  let words = float_of_int (Obj.reachable_words (Obj.repr c)) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per verdict <= 6" words) true (words <= 6.);
  Cache.close c

(* hit => identical to recompute: modelled against a reference Hashtbl
   holding the first-stored verdict per (job, key) pair *)
let prop_cache_hit_matches_recompute =
  QCheck.Test.make ~count:100 ~name:"cache hit is identical to recompute"
    QCheck.(small_list (triple small_nat small_nat bool))
    (fun entries ->
      let c = Cache.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (j, k, ok) ->
          let job = hex32 j and key = hex32 k in
          Cache.store c ~job ~key ok;
          if not (Hashtbl.mem model (job, key)) then Hashtbl.add model (job, key) ok)
        entries;
      let verdict =
        List.for_all
          (fun (j, k, _) ->
            let job = hex32 j and key = hex32 k in
            Cache.find c ~job ~key = Hashtbl.find_opt model (job, key))
          entries
        && Cache.entries c = Hashtbl.length model
      in
      Cache.close c;
      verdict)

let prop_cache_survives_restart =
  QCheck.Test.make ~count:50 ~name:"persisted cache survives restart"
    QCheck.(small_list (triple small_nat small_nat bool))
    (fun entries ->
      let path = Filename.concat (fresh_dir "cacheprop") "c.cache" in
      let c = Cache.create ~path () in
      List.iter
        (fun (j, k, ok) -> Cache.store c ~job:(hex32 j) ~key:(hex32 k) ok)
        entries;
      let before =
        List.map (fun (j, k, _) -> Cache.find c ~job:(hex32 j) ~key:(hex32 k)) entries
      in
      let n = Cache.entries c in
      Cache.close c;
      let c = Cache.create ~path () in
      let after =
        List.map (fun (j, k, _) -> Cache.find c ~job:(hex32 j) ~key:(hex32 k)) entries
      in
      let n' = Cache.entries c in
      Cache.close c;
      before = after && n = n')

(* Per job, the first store of each key in stream order: what [seeds]
   must return, and what [find] must answer. *)
let first_stores stream =
  let seen = Hashtbl.create 16 and jobs = ref [] in
  List.iter
    (fun (job, key, ok) ->
      if not (Hashtbl.mem seen (job, key)) then begin
        Hashtbl.add seen (job, key) ();
        match List.assoc_opt job !jobs with
        | Some keys -> keys := (key, ok) :: !keys
        | None -> jobs := (job, ref [ (key, ok) ]) :: !jobs
      end)
    stream;
  List.rev_map (fun (job, keys) -> (job, List.rev !keys)) !jobs

(* Few jobs and keys, so keys repeat within a job and buckets grow. *)
let verdict_stream =
  QCheck.(small_list (triple (int_bound 4) (int_bound 40) bool))

let hex_stream = List.map (fun (j, k, ok) -> (hex32 j, hex32 k, ok))

let agrees_with_model c stream =
  let model = first_stores stream in
  List.for_all (fun (job, keys) -> Cache.seeds c ~job = keys) model
  && List.for_all
       (fun (job, key, _) ->
         Cache.find c ~job ~key = List.assoc_opt key (List.assoc job model))
       stream
  && Cache.entries c = List.fold_left (fun n (_, keys) -> n + List.length keys) 0 model

let prop_cache_seeds_first_store_order =
  QCheck.Test.make ~count:200 ~name:"seeds keep first-store order per job" verdict_stream
    (fun stream ->
      let stream = hex_stream stream in
      let c = Cache.create () in
      List.iter (fun (job, key, ok) -> Cache.store c ~job ~key ok) stream;
      let verdict = agrees_with_model c stream in
      Cache.close c;
      verdict)

let prop_cache_seeds_survive_restart =
  QCheck.Test.make ~count:50 ~name:"seeds after a restart equal seeds before it" verdict_stream
    (fun stream ->
      let stream = hex_stream stream in
      let path = Filename.concat (fresh_dir "seedsprop") "c.cache" in
      let seeds c = List.map (fun (job, _, _) -> Cache.seeds c ~job) stream in
      let c = Cache.create ~path () in
      List.iter (fun (job, key, ok) -> Cache.store c ~job ~key ok) stream;
      let before = seeds c in
      Cache.close c;
      let c = Cache.create ~path () in
      let after = seeds c in
      Cache.close c;
      before = after)

(* Each entry is well-formed or mangled in one of [malformed_keys]' ways,
   on its job or its key.  The cache fed everything must end exactly as
   one fed only the well-formed entries: same answers, same log bytes. *)
let prop_cache_malformed_keys_noop =
  QCheck.Test.make ~count:50 ~name:"malformed keys in the stream are no-ops"
    QCheck.(small_list (quad (int_bound 4) (int_bound 40) bool (int_bound 15)))
    (fun stream ->
      let entry (j, k, ok, m) =
        let job = hex32 j and key = hex32 k and bad = List.nth malformed_keys (m mod 5) in
        if m < 5 then (bad, key, ok) else if m < 10 then (job, bad, ok) else (job, key, ok)
      in
      let all = List.map entry stream in
      let good = List.map entry (List.filter (fun (_, _, _, m) -> m >= 10) stream) in
      let dir = fresh_dir "badprop" in
      let run name entries =
        let path = Filename.concat dir name in
        let c = Cache.create ~path () in
        List.iter (fun (job, key, ok) -> Cache.store c ~job ~key ok) entries;
        let answers =
          ( agrees_with_model c good,
            List.map (fun (job, key, _) -> Cache.find c ~job ~key) all,
            List.map (fun (job, _, _) -> Cache.seeds c ~job) all )
        in
        Cache.close c;
        (answers, In_channel.with_open_bin path In_channel.input_all)
      in
      let ((modelled, _, _), _) as fed_all = run "all.cache" all in
      modelled && fed_all = run "good.cache" good)

(* The on-disk format is [<hex job> <hex key> 0|1] lines, as every
   earlier cache wrote them: a file written line by line, repeats with
   conflicting verdicts included, loads to its first line per pair. *)
let prop_cache_loads_written_log =
  QCheck.Test.make ~count:50 ~name:"a cache file of log lines loads to its first stores"
    verdict_stream
    (fun stream ->
      let stream = hex_stream stream in
      let path = Filename.concat (fresh_dir "oldprop") "c.cache" in
      let log = Append_log.open_ path in
      List.iter
        (fun (job, key, ok) ->
          Append_log.append log (Printf.sprintf "%s %s %c" job key (if ok then '1' else '0')))
        stream;
      Append_log.close log;
      let c = Cache.create ~path () in
      let verdict = agrees_with_model c stream in
      Cache.close c;
      verdict)

(* ------------------------------------------------------------------ *)
(* Coordinator plumbing helpers                                        *)

(* Collect per-job terminal states delivered through a scheduler's event
   stream, with a blocking wait. *)
type collector = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  c_done : (string, Scheduler.outcome) Hashtbl.t;
  c_verdicts : int Atomic.t;
  c_progress : int Atomic.t;
}

let collector () =
  {
    c_mutex = Mutex.create ();
    c_cond = Condition.create ();
    c_done = Hashtbl.create 8;
    c_verdicts = Atomic.make 0;
    c_progress = Atomic.make 0;
  }

let collect col id (ev : Scheduler.event) =
  match ev with
  | Scheduler.Evaluated _ -> Atomic.incr col.c_verdicts
  | Scheduler.Progress _ -> Atomic.incr col.c_progress
  | Scheduler.Finished st ->
      Mutex.lock col.c_mutex;
      Hashtbl.replace col.c_done id st;
      Condition.broadcast col.c_cond;
      Mutex.unlock col.c_mutex
  | _ -> ()

let await_done ?(timeout = 120.) col n =
  let deadline = Unix.gettimeofday () +. timeout in
  Mutex.lock col.c_mutex;
  while Hashtbl.length col.c_done < n && Unix.gettimeofday () < deadline do
    Mutex.unlock col.c_mutex;
    Thread.delay 0.005;
    Mutex.lock col.c_mutex
  done;
  let finished = Hashtbl.length col.c_done in
  Mutex.unlock col.c_mutex;
  if finished < n then Alcotest.failf "only %d of %d jobs finished in time" finished n

let finished col id = Mutex.protect col.c_mutex (fun () -> Hashtbl.find_opt col.c_done id)

(* Poll [cond] for up to [timeout] seconds. *)
let wait_until ?(timeout = 30.) what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting until %s" what

let submit_ok coordinator col spec =
  match Scheduler.submit (Coordinator.scheduler coordinator) ~on_event:(collect col) spec with
  | Ok id -> id
  | Error `Draining -> Alcotest.fail "coordinator draining"
  | Error (`Queue_full _) -> Alcotest.fail "coordinator queue full"

let coordinator ?(lanes = 1) ?(queue_depth = 8) ?journal_dir ?cache_path workers =
  Coordinator.create
    { Coordinator.workers; lanes; queue_depth; cache_path; journal_dir }

let status_name = function
  | Some (Scheduler.Done _) -> "done"
  | Some (Scheduler.Failed m) -> "failed: " ^ m
  | Some Scheduler.Cancelled -> "cancelled"
  | None -> "missing"

let start_worker () =
  Server.start
    {
      Server.listen = Addr.Tcp ("127.0.0.1", 0);
      jobs = 1;
      queue_depth = 8;
      journal_dir = None;
    }

(* ------------------------------------------------------------------ *)
(* Lanes, priority and cancel, against stub workers whose job duration
   we control                                                          *)

let stub_result_stats =
  {
    Wire.ok = true;
    predicate_runs = 1;
    replayed_runs = 0;
    tool_executions = 1;
    oracle_retries = 0;
    oracle_crashes = 0;
    sim_time = 0.;
    wall_time = 0.;
    classes0 = 1;
    classes1 = 1;
    bytes0 = 1;
    bytes1 = 1;
  }

let blocking_retries = 99

(* A worker daemon — a [Server] over a one-domain [Scheduler] — whose
   "reduction" reports one improvement and echoes the pool back.  Jobs
   whose spec carries [retries = blocking_retries] block until [gate]
   opens or they are cancelled: the knob the tests use to wedge a worker.
   Every job streams [verdicts] as if it had paid for them.  [seen ()]
   lists the (worker-side id, pool) of every job the worker started, in
   start order. *)
let stub_worker ?(verdicts = []) gate =
  let seen_mutex = Mutex.create () and seen = ref [] in
  let runner (ctx : Scheduler.runner_ctx) (spec : Wire.spec) =
    Mutex.protect seen_mutex (fun () -> seen := (ctx.job_id, spec.Wire.pool_bytes) :: !seen);
    ctx.progress 0. 1 (String.length spec.Wire.pool_bytes);
    List.iter (fun (key, ok) -> ctx.record ~key ~latency:0. ~retries:0 ok) verdicts;
    Thread.delay 0.01;
    if spec.Wire.retries = blocking_retries then
      while not (Atomic.get gate || ctx.should_stop ()) do
        Thread.delay 0.002
      done;
    if ctx.should_stop () then raise Lbr_frontend.Run.Cancelled;
    Ok (stub_result_stats, spec.Wire.pool_bytes)
  in
  let server =
    Server.serve ~listen:(Addr.Tcp ("127.0.0.1", 0))
      (Scheduler.create ~runner ~jobs:1 ~queue_depth:8 ())
  in
  (server, fun () -> Mutex.protect seen_mutex (fun () -> List.rev !seen))

let blocking_spec seed = { (spec_of_seed ~classes:6 seed) with retries = blocking_retries }

let test_cluster_wedged_worker () =
  let gate = Atomic.make false in
  let w0, _ = stub_worker gate and w1, _ = stub_worker gate in
  let coordinator =
    coordinator ~queue_depth:16 [ Server.bound_addr w0; Server.bound_addr w1 ]
  in
  let col = collector () in
  (* The blocking job wedges whichever worker runs it; the other
     worker's lane must carry all three fast jobs meanwhile. *)
  let blocked = submit_ok coordinator col (blocking_spec 1) in
  let fast = List.init 3 (fun i -> submit_ok coordinator col (spec_of_seed ~classes:6 (2 + i))) in
  await_done ~timeout:30. col 3;
  Alcotest.(check (list string)) "all fast jobs finished while the blocked one is wedged"
    [ "done"; "done"; "done"; "missing" ]
    (List.map (fun id -> status_name (finished col id)) (fast @ [ blocked ]));
  (* open the gate; the wedged job finishes too *)
  Atomic.set gate true;
  await_done ~timeout:30. col 4;
  List.iter
    (fun id ->
      match finished col id with
      | Some (Scheduler.Done (_, bytes)) ->
          Alcotest.(check bool) (id ^ " echoes its pool") true (String.length bytes > 0)
      | other -> Alcotest.failf "%s: unexpected terminal state %s" id (status_name other))
    (blocked :: fast);
  (* the scheduler's queue-depth gauge and cluster health are rendered *)
  let prom = Lbr_obs.Metrics.render_views [ ("", Lbr_obs.Metrics.dump ()) ] in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "queue-depth gauge exported" true (contains prom "lbr_queue_depth");
  Alcotest.(check bool) "live-worker gauge exported" true
    (contains prom "lbr_cluster_workers_alive");
  Coordinator.close coordinator;
  Server.stop w0;
  Server.stop w1

(* One single-lane worker, wedged: the jobs queued behind it leave the
   coordinator's queue by priority, not by arrival. *)
let test_cluster_high_priority_first () =
  let gate = Atomic.make false in
  let w, seen = stub_worker gate in
  let coordinator = coordinator ~queue_depth:16 [ Server.bound_addr w ] in
  let col = collector () in
  let label = Hashtbl.create 4 in
  let submit name spec =
    Hashtbl.replace label spec.Wire.pool_bytes name;
    ignore (submit_ok coordinator col spec : string)
  in
  submit "blocked" (blocking_spec 1);
  wait_until "the worker is wedged" (fun () -> List.length (seen ()) = 1);
  submit "normal-1" (spec_of_seed ~classes:6 2);
  submit "normal-2" (spec_of_seed ~classes:6 3);
  submit "high" { (spec_of_seed ~classes:6 4) with priority = Wire.High };
  Atomic.set gate true;
  await_done ~timeout:30. col 4;
  Alcotest.(check (list string)) "the High job is dispatched first"
    [ "blocked"; "high"; "normal-1"; "normal-2" ]
    (List.map (fun (_, pool) -> Hashtbl.find label pool) (seen ()));
  Coordinator.close coordinator;
  Server.stop w

(* A job cancelled while queued at the coordinator never reaches a
   worker. *)
let test_cluster_cancel_queued () =
  let gate = Atomic.make false in
  let w, seen = stub_worker gate in
  let coordinator = coordinator [ Server.bound_addr w ] in
  let col = collector () in
  let blocked = submit_ok coordinator col (blocking_spec 1) in
  wait_until "the worker is wedged" (fun () -> List.length (seen ()) = 1);
  let queued = submit_ok coordinator col (spec_of_seed ~classes:6 2) in
  Alcotest.(check bool) "cancel finds the queued job" true
    (Scheduler.cancel (Coordinator.scheduler coordinator) queued);
  Atomic.set gate true;
  await_done ~timeout:30. col 2;
  Alcotest.(check string) "the queued job ends cancelled" "cancelled"
    (status_name (finished col queued));
  Alcotest.(check string) "the wedged job still completes" "done"
    (status_name (finished col blocked));
  Alcotest.(check int) "the worker never saw the cancelled job" 1 (List.length (seen ()));
  Coordinator.close coordinator;
  Server.stop w

(* A worker's Verdict key and a client's seed are any string on the
   wire.  Malformed ones are skipped on the coordinator's lane: the job
   runs, and only the well-formed verdicts reach the cache and its log. *)
let test_cluster_malformed_keys_skipped () =
  let w, _ =
    stub_worker
      ~verdicts:[ (hex32 1, true); ("not a digest", false); (hex32 2, false) ]
      (Atomic.make true)
  in
  let path = Filename.concat (fresh_dir "badkeys") "verdicts.cache" in
  let coordinator = coordinator ~cache_path:path [ Server.bound_addr w ] in
  let col = collector () in
  let spec = spec_of_seed ~classes:6 1 in
  let id =
    match
      Scheduler.submit (Coordinator.scheduler coordinator) ~on_event:(collect col)
        ~seeds:[ (hex32 3, true); (String.uppercase_ascii (hex32 0xabc), true); ("short", false) ]
        spec
    with
    | Ok id -> id
    | Error _ -> Alcotest.fail "coordinator refused the job"
  in
  await_done ~timeout:30. col 1;
  Alcotest.(check string) "the job completes" "done" (status_name (finished col id));
  Coordinator.close coordinator;
  let job = Cache.job_key spec in
  let line key ok = Printf.sprintf "%s %s %c" job key (if ok then '1' else '0') in
  Alcotest.(check (list string)) "the log holds the well-formed verdicts only"
    (List.sort compare [ line (hex32 1) true; line (hex32 2) false; line (hex32 3) true ])
    (List.sort compare (Append_log.fold path ~init:[] ~f:(fun acc l -> l :: acc)));
  Server.stop w

(* ------------------------------------------------------------------ *)
(* Warm cache: an identical resubmission replays every verdict          *)

let test_cluster_warm_cache_resubmission () =
  let seed = 21 in
  let _, ref_bytes = reference_run ~classes:16 seed in
  let w = start_worker () in
  let coordinator = coordinator [ Server.bound_addr w ] in
  let col = collector () in
  let id1 = submit_ok coordinator col (spec_of_seed ~classes:16 seed) in
  await_done col 1;
  let hits0 = counter_value "lbr_cluster_cache_hits_total" in
  let id2 = submit_ok coordinator col (spec_of_seed ~classes:16 seed) in
  await_done col 2;
  let check_done id f =
    match Hashtbl.find_opt col.c_done id with
    | Some (Scheduler.Done (stats, bytes)) -> f stats bytes
    | Some (Scheduler.Failed m) -> Alcotest.failf "%s failed: %s" id m
    | _ -> Alcotest.failf "%s did not complete" id
  in
  check_done id1 (fun (stats : Wire.stats) bytes ->
      Alcotest.(check string) "cold run byte-identical to reference" ref_bytes bytes;
      Alcotest.(check int) "cold run replays nothing" 0 stats.Wire.replayed_runs);
  check_done id2 (fun (stats : Wire.stats) bytes ->
      Alcotest.(check string) "warm run byte-identical" ref_bytes bytes;
      Alcotest.(check int) "warm run replays every verdict, validation included"
        (stats.Wire.predicate_runs + 1) stats.Wire.replayed_runs;
      Alcotest.(check int) "warm run executed nothing fresh" 0 stats.Wire.tool_executions);
  Alcotest.(check bool) "cluster cache hits counted" true
    (counter_value "lbr_cluster_cache_hits_total" - hits0 > 0);
  Coordinator.close coordinator;
  Server.stop w

(* ------------------------------------------------------------------ *)
(* Failover: kill a worker mid-job; the retry on the survivor must be
   byte-identical and strictly cheaper (cached verdicts replayed)        *)

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.read fd buf off len in
      if n = 0 then raise End_of_file;
      go (off + n) (len - n)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then
      let n = Unix.write fd buf off len in
      go (off + n) (len - n)
  in
  go off len

(* A one-shot kill switch shared by the failover test's proxies:
   whichever proxy streams the Nth Verdict frame severs ITS worker's
   connections, exactly once cluster-wide.  [t_victim] records which
   worker died. *)
type trigger = {
  t_threshold : int;
  t_seen : int Atomic.t;      (* verdict frames forwarded, cluster-wide *)
  t_fired : bool Atomic.t;
  t_victim : int Atomic.t;    (* proxy id that severed, -1 until fired *)
}

let trigger threshold =
  {
    t_threshold = threshold;
    t_seen = Atomic.make 0;
    t_fired = Atomic.make false;
    t_victim = Atomic.make (-1);
  }

let verdict_tag = 0x8A  (* Wire.kind_of (Verdict _) *)
let accepted_tag = 0x82  (* Wire.kind_of (Accepted _) *)

(* Sever on the trigger's Nth Verdict frame, cluster-wide. *)
let kill_on_verdict trig ~id tag =
  let kill =
    tag = verdict_tag
    && Atomic.fetch_and_add trig.t_seen 1 + 1 >= trig.t_threshold
    && Atomic.compare_and_set trig.t_fired false true
  in
  if kill then Atomic.set trig.t_victim id;
  kill

(* A frame-level TCP proxy in front of a worker.  [on_frame tag] sees the
   kind byte of every worker -> coordinator frame before it is forwarded;
   it may block (holding the frame back) and returns [true] to sever the
   link instead, simulating kill -9 at a deterministic point.  The
   simulated oracle is so fast that killing a worker from the outside on
   a timer can land before the job starts or after it ends; severing on
   the trigger's Nth Verdict frame is mid-job by construction, on
   whichever worker actually runs the job, and the terminal Result frame
   can never slip through. *)
let proxy_worker ~on_frame upstream =
  let upstream_sa =
    match upstream with
    | Addr.Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
    | Addr.Unix_path p -> Unix.ADDR_UNIX p
  in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 16;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let severed = Atomic.make false in
  let fds_mutex = Mutex.create () in
  let fds = ref [ lsock ] in
  let track fd =
    Mutex.lock fds_mutex;
    fds := fd :: !fds;
    Mutex.unlock fds_mutex
  in
  (* shutdown, not close: a close from this thread neither wakes a peer
     thread blocked in read(2) on the same socket nor sends the FIN while
     that read still holds a reference — shutdown does both at once (and
     stops the listener).  Nor does it free the fd numbers, which the
     copy threads below still use after the link is cut: a closed number
     can already name the coordinator's retry connection. *)
  let hangup fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> () in
  let sever () =
    if not (Atomic.exchange severed true) then begin
      Mutex.lock fds_mutex;
      List.iter hangup !fds;
      Mutex.unlock fds_mutex
    end
  in
  (* coordinator -> worker: requests are tiny, plain byte copy is fine *)
  let copy_raw src dst =
    (try
       while not (Atomic.get severed) do
         let buf = Bytes.create 4096 in
         let n = Unix.read src buf 0 4096 in
         if n = 0 then raise Exit;
         really_write dst buf 0 n
       done
     with _ -> ());
    hangup src;
    hangup dst
  in
  (* worker -> coordinator: length-prefixed frames, inspected one by one *)
  let copy_frames src dst =
    let hdr = Bytes.create 4 in
    (try
       while not (Atomic.get severed) do
         really_read src hdr 0 4;
         let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
         let payload = Bytes.create len in
         really_read src payload 0 len;
         if len > 0 && on_frame (Char.code (Bytes.get payload 0)) then sever ()
         else begin
           really_write dst hdr 0 4;
           really_write dst payload 0 len
         end
       done
     with _ -> ());
    hangup src;
    hangup dst
  in
  let accept_loop () =
    try
      while true do
        let client, _ = Unix.accept lsock in
        let up = Unix.socket (Unix.domain_of_sockaddr upstream_sa) Unix.SOCK_STREAM 0 in
        Unix.connect up upstream_sa;
        track client;
        track up;
        ignore (Thread.create (fun () -> copy_raw client up) ());
        ignore (Thread.create (fun () -> copy_frames up client) ())
      done
    with _ -> ()
  in
  ignore (Thread.create accept_loop ());
  Addr.Tcp ("127.0.0.1", port)

let test_cluster_failover_byte_identical () =
  let seed = 21 in
  let ref_outcome, ref_bytes = reference_run ~classes:64 seed in
  let w0 = start_worker () and w1 = start_worker () in
  (* both workers sit behind killer proxies, so whichever worker ends up
     streaming the 5th verdict is the one that dies *)
  let trig = trigger 5 in
  let p0 = proxy_worker ~on_frame:(kill_on_verdict trig ~id:0) (Server.bound_addr w0) in
  let p1 = proxy_worker ~on_frame:(kill_on_verdict trig ~id:1) (Server.bound_addr w1) in
  let journal_dir = fresh_dir "coordjournal" in
  let coordinator =
    coordinator ~journal_dir
      ~cache_path:(Filename.concat journal_dir "verdicts.cache")
      [ p0; p1 ]
  in
  let col = collector () in
  let hits0 = counter_value "lbr_cluster_cache_hits_total" in
  let failovers0 = counter_value "lbr_cluster_failovers_total" in
  let spec = spec_of_seed ~classes:64 seed in
  let id = submit_ok coordinator col spec in
  await_done col 1;
  Alcotest.(check bool) "a worker was killed mid-job" true (Atomic.get trig.t_fired);
  (match Hashtbl.find_opt col.c_done id with
  | Some (Scheduler.Done (stats, bytes)) ->
      Alcotest.(check string) "failover result byte-identical to reference" ref_bytes bytes;
      Alcotest.(check int) "same total predicate runs as an uninterrupted run"
        ref_outcome.Lbr_harness.Experiment.predicate_runs stats.Wire.predicate_runs;
      Alcotest.(check bool) "cached verdicts replayed on the survivor" true
        (stats.Wire.replayed_runs > 0);
      Alcotest.(check bool) "strictly fewer fresh executions than a cold rerun" true
        (stats.Wire.predicate_runs - stats.Wire.replayed_runs
        < ref_outcome.Lbr_harness.Experiment.predicate_runs)
  | Some (Scheduler.Failed m) -> Alcotest.failf "job failed instead of failing over: %s" m
  | _ -> Alcotest.fail "job did not reach a terminal state");
  Alcotest.(check bool) "failover counted" true
    (counter_value "lbr_cluster_failovers_total" - failovers0 >= 1);
  Alcotest.(check bool) "cache hits counted" true
    (counter_value "lbr_cluster_cache_hits_total" - hits0 > 0);
  (* the coordinator recorded the worker's verdicts once: in its cache *)
  let job = Cache.job_key spec in
  let cached =
    Append_log.fold (Filename.concat journal_dir "verdicts.cache") ~init:0 ~f:(fun n line ->
        if String.starts_with ~prefix:(job ^ " ") line then n + 1 else n)
  in
  Alcotest.(check bool) "the cache file holds the job's verdicts" true (cached > 0);
  Alcotest.(check bool) "the coordinator journal has no preds.log" false
    (Sys.file_exists (Filename.concat (Filename.concat journal_dir id) "preds.log"));
  Coordinator.close coordinator;
  (* the killed link's worker process is still alive and finishes its
     orphaned job on its own, so both daemons stop gracefully *)
  Server.stop w0;
  Server.stop w1

(* A coordinator restarted on its journal alone, with no cache path: the
   verdicts its workers streamed before the crash are in
   [<journal>/verdicts.cache], and they seed the recovered job, which
   finishes byte-identical without paying for them again. *)
let test_cluster_restart_replays_journal_cache () =
  let seed = 21 in
  let ref_outcome, ref_bytes = reference_run ~classes:16 seed in
  let spec = spec_of_seed ~classes:16 seed in
  let w = start_worker () in
  (* Pay for the job's verdicts once, through a coordinator with a cache. *)
  let paid = Filename.concat (fresh_dir "paidcache") "verdicts.cache" in
  let c0 = coordinator ~cache_path:paid [ Server.bound_addr w ] in
  let col = collector () in
  ignore (submit_ok c0 col spec : string);
  await_done col 1;
  Coordinator.close c0;
  (* The crash state: the job journaled with no terminal marker, and the
     first half of its verdicts in the journal's cache file. *)
  let journal_dir = fresh_dir "restart" in
  let j = Journal.open_dir journal_dir in
  Journal.record_job j ~id:"job-000001" ~spec:(Wire.spec_to_string spec);
  Journal.close j;
  let lines = List.rev (Append_log.fold paid ~init:[] ~f:(fun acc l -> l :: acc)) in
  let log = Append_log.open_ (Filename.concat journal_dir "verdicts.cache") in
  List.iteri (fun i l -> if 2 * i < List.length lines then Append_log.append log l) lines;
  Append_log.close log;
  let coordinator = coordinator ~journal_dir [ Server.bound_addr w ] in
  Alcotest.(check int) "one job recovered" 1 (Coordinator.recovered coordinator);
  (match Scheduler.await (Coordinator.scheduler coordinator) "job-000001" with
  | Scheduler.Done (stats, bytes) ->
      Alcotest.(check string) "recovered result byte-identical to reference" ref_bytes bytes;
      Alcotest.(check int) "same total predicate runs as an uninterrupted run"
        ref_outcome.Lbr_harness.Experiment.predicate_runs stats.Wire.predicate_runs;
      Alcotest.(check bool) "the journal's cache seeded the recovered job" true
        (stats.Wire.replayed_runs > 0)
  | st -> Alcotest.failf "recovered job ended %s" (status_name (Some st)));
  Coordinator.close coordinator;
  Server.stop w

(* Cancel a delegated job mid-run.  After the worker's Accepted the
   coordinator knows the remote id and cancels it at once; before it
   (the worker's Accepted held back in a proxy) the cancel is parked
   until the remote id arrives.  Either way both sides end Cancelled. *)
let test_cluster_cancel_running ~hold_accepted () =
  let gate = Atomic.make false in
  let w, seen = stub_worker gate in
  let hold = Atomic.make hold_accepted in
  let on_frame tag =
    if tag = accepted_tag then
      while Atomic.get hold do
        Thread.delay 0.002
      done;
    false
  in
  let coordinator = coordinator [ proxy_worker ~on_frame (Server.bound_addr w) ] in
  let sched = Coordinator.scheduler coordinator in
  let col = collector () in
  let id = submit_ok coordinator col (blocking_spec 1) in
  wait_until "the worker runs the job" (fun () -> List.length (seen ()) = 1);
  if not hold_accepted then
    (* the stub's first Progress frame follows its Accepted *)
    wait_until "the coordinator relays progress" (fun () -> Atomic.get col.c_progress > 0);
  Alcotest.(check bool) "the coordinator's job is running" true
    (Scheduler.status sched id = Some Scheduler.Running);
  Alcotest.(check bool) "cancel finds the running job" true (Scheduler.cancel sched id);
  Atomic.set hold false;
  await_done ~timeout:30. col 1;
  let remote_id, _ = List.hd (seen ()) in
  Alcotest.(check string) "the worker's job ends cancelled" "cancelled"
    (status_name (Some (Scheduler.await (Server.scheduler w) remote_id)));
  Alcotest.(check string) "the coordinator's job ends cancelled" "cancelled"
    (status_name (finished col id));
  Coordinator.close coordinator;
  Server.stop w

(* A journaled spec cut just before its [frontend] field — the layout of
   a journal written before every spec field was always present.  The
   coordinator marks the job failed instead of re-admitting it, so it is
   not pending on the next restart either. *)
let test_cluster_recover_marks_corrupt_spec_failed () =
  let w = start_worker () in
  let journal_dir = fresh_dir "corruptspec" in
  let spec = spec_of_seed ~classes:6 1 in
  let bytes = Wire.spec_to_string spec in
  (* drop the frontend str16 and the absent-context byte *)
  let cut = String.length bytes - (2 + String.length spec.Wire.frontend + 1) in
  let j = Journal.open_dir journal_dir in
  Journal.record_job j ~id:"job-000001" ~spec:(String.sub bytes 0 cut);
  Journal.close j;
  let coordinator = coordinator ~journal_dir [ Server.bound_addr w ] in
  Alcotest.(check int) "nothing recovered" 0 (Coordinator.recovered coordinator);
  Coordinator.close coordinator;
  Server.stop w;
  let j = Journal.open_dir journal_dir in
  Alcotest.(check (list (pair string string))) "no longer pending" [] (Journal.pending j);
  Journal.close j;
  let reason =
    In_channel.with_open_bin
      (Filename.concat (Filename.concat journal_dir "job-000001") "failed")
      In_channel.input_all
  in
  Alcotest.(check bool) "failed marker names the corrupt spec" true
    (String.starts_with ~prefix:"corrupt journaled spec: " reason)

(* ------------------------------------------------------------------ *)
(* Dead cluster: a submission with no live workers must still complete
   the protocol — Accepted, then a terminal Job_failed — instead of
   leaving the client waiting forever.  Also pins table pruning:
   terminal jobs leave the coordinator's stats snapshot. *)

let test_cluster_no_live_workers_fails_cleanly () =
  let w = start_worker () in
  let coordinator = coordinator [ Server.bound_addr w ] in
  let front =
    Server.serve ~listen:(Addr.Tcp ("127.0.0.1", 0)) (Coordinator.scheduler coordinator)
  in
  (* kill -9 the only worker, then let a first submission discover the
     death (bounded connect retries, then failover gives up) *)
  Server.abort w;
  let col = collector () in
  let id1 = submit_ok coordinator col (spec_of_seed ~classes:6 1) in
  await_done ~timeout:30. col 1;
  (match Hashtbl.find_opt col.c_done id1 with
  | Some (Scheduler.Failed _) -> ()
  | _ -> Alcotest.failf "%s should fail once its only worker is dead" id1);
  (* over the socket: the submission must return, not hang *)
  (match Client.connect (Addr.to_string (Server.bound_addr front)) with
  | Error m -> Alcotest.failf "connect to coordinator front end: %s" m
  | Ok c ->
      let accepted = ref None in
      (match
         Client.submit_ex c
           ~on_accepted:(fun id -> accepted := Some id)
           (spec_of_seed ~classes:6 2)
       with
      | Error (`Job_failed reason) ->
          Alcotest.(check string) "failure names the dead cluster" "no live workers"
            reason
      | Ok _ -> Alcotest.fail "job cannot succeed on a dead cluster"
      | Error (`Rejected (r, _)) -> Alcotest.failf "rejected instead of failed: %s" r
      | Error (`Conn m) -> Alcotest.failf "connection died instead of Job_failed: %s" m);
      Alcotest.(check bool) "Accepted preceded the terminal frame" true
        (!accepted <> None);
      let stats =
        match Client.stats c with
        | Ok stats -> stats
        | Error m -> Alcotest.failf "stats from coordinator front end: %s" m
      in
      Alcotest.(check (list string)) "terminal jobs are pruned from stats" []
        (List.map (fun js -> js.Wire.js_id) stats.Wire.job_stats);
      Client.close c);
  Server.stop front;
  Coordinator.close coordinator

(* ------------------------------------------------------------------ *)
(* Trace merging: .tdump codec and cross-node flow arrows               *)

let tdump_gen =
  let open QCheck.Gen in
  let arg_gen =
    oneof
      [
        map (fun s -> Lbr_obs.Trace.Str s) (oneofl [ ""; "job-1"; "abc"; "span \"q\"" ]);
        map (fun n -> Lbr_obs.Trace.Int n) (int_range (-1000) 1000);
        map (fun f -> Lbr_obs.Trace.Float f) (float_range (-1e6) 1e6);
        map (fun b -> Lbr_obs.Trace.Bool b) bool;
      ]
  in
  let event_gen =
    map2
      (fun (name, ph, tid) (ts, dur, args) ->
        {
          Lbr_obs.Trace.ev_name = name;
          ev_ph = ph;
          ev_ts = ts;
          ev_dur = dur;
          ev_tid = tid;
          ev_args = args;
        })
      (triple
         (oneofl [ "coordinator.job"; "core.predicate"; "x" ])
         (oneofl [ 'X'; 'i' ])
         (int_range 0 7))
      (triple (float_range 0. 1e9) (float_range 0. 1e6)
         (list_size (int_range 0 3) (pair (oneofl [ "job"; "span_id"; "ctx.parent" ]) arg_gen)))
  in
  map2
    (fun (node, dropped) (epoch, server_now, events) ->
      {
        Trace_merge.nd_node = node;
        nd_epoch = epoch;
        nd_server_now = server_now;
        nd_client_mid = server_now +. 0.125;
        nd_dropped = dropped;
        nd_events = events;
      })
    (pair (oneofl [ "127.0.0.1:7000"; "w"; "a-very-long-node-label:65535" ]) (int_range 0 100000))
    (triple (float_range 0. 2e9) (float_range 0. 2e9) (list_size (int_range 0 12) event_gen))

let prop_tdump_roundtrip =
  QCheck.Test.make ~count:100 ~name:".tdump codec round-trips"
    (QCheck.make tdump_gen)
    (fun d -> Trace_merge.of_string (Trace_merge.to_string d) = Ok d)

let prop_tdump_decode_total =
  QCheck.Test.make ~count:200 ~name:".tdump decode is total on mangled input"
    (QCheck.make QCheck.Gen.(pair tdump_gen (pair (int_range 0 5000) (int_range 0 255))))
    (fun (d, (pos, byte)) ->
      let s = Trace_merge.to_string d in
      let trunc = String.sub s 0 (pos mod (String.length s + 1)) in
      let b = Bytes.of_string s in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      (match Trace_merge.of_string trunc with Ok _ | Error _ -> true)
      && (match Trace_merge.of_string (Bytes.to_string b) with Ok _ | Error _ -> true))

(* Two hand-built node dumps: the merged Chrome trace must give each node
   its own pid lane and draw a flow arrow from the coordinator's job span
   to the worker event naming it as ctx.parent. *)
let test_trace_merge_flow_arrows () =
  let ev name ph args =
    { Lbr_obs.Trace.ev_name = name; ev_ph = ph; ev_ts = 10.; ev_dur = 5.; ev_tid = 1; ev_args = args }
  in
  let coord =
    {
      Trace_merge.nd_node = "coord";
      nd_epoch = 1000.;
      nd_server_now = 1010.;
      nd_client_mid = 1010.;
      nd_dropped = 0;
      nd_events =
        [ ev "coordinator.job" 'X' [ ("span_id", Lbr_obs.Trace.Str "feedc0de00000001") ] ];
    }
  in
  let worker =
    {
      Trace_merge.nd_node = "w1";
      nd_epoch = 1000.5;
      nd_server_now = 1010.5;
      nd_client_mid = 1010.;  (* 0.5s of clock skew to correct away *)
      nd_dropped = 0;
      nd_events =
        [ ev "core.predicate" 'X' [ ("ctx.parent", Lbr_obs.Trace.Str "feedc0de00000001") ] ];
    }
  in
  let json = (Trace_merge.merge [ coord; worker ]).json in
  let contains sub =
    let n = String.length json and m = String.length sub in
    let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "coord lane named" true
    (contains {|"name":"process_name","pid":1,"args":{"name":"coord"}|});
  Alcotest.(check bool) "worker lane named" true
    (contains {|"name":"process_name","pid":2,"args":{"name":"w1"}|});
  Alcotest.(check bool) "flow start on the coordinator lane" true (contains {|"ph":"s"|});
  Alcotest.(check bool) "flow finish on the worker lane" true (contains {|"ph":"f"|});
  (* worker skew: epoch 1000.5 + (client_mid - server_now) = 1000.0 — same
     corrected timeline as the coordinator, so both lanes share ts 10.0 *)
  Alcotest.(check bool) "skew corrected" true (contains {|"ts":10.0|} || contains {|"ts":10.000|})

(* A live pull and an earlier capture of the same daemon share a lane
   label; the pre-kill capture's events repeat in the later dump.  The
   summary counts what the merged trace holds — one lane per label,
   each event once — not the dumps that went in. *)
let test_trace_merge_summary_counts_written () =
  let ev name ts =
    { Lbr_obs.Trace.ev_name = name; ev_ph = 'X'; ev_ts = ts; ev_dur = 1.; ev_tid = 1; ev_args = [] }
  in
  let dump node events =
    {
      Trace_merge.nd_node = node;
      nd_epoch = 1000.;
      nd_server_now = 1010.;
      nd_client_mid = 1010.;
      nd_dropped = 0;
      nd_events = events;
    }
  in
  let early = dump "w1" [ ev "a" 1.; ev "b" 2. ] in
  let late = dump "w1" [ ev "a" 1.; ev "b" 2.; ev "c" 3. ] in
  let coord = dump "coord" [ ev "coordinator.job" 0.5 ] in
  let merged = Trace_merge.merge [ early; coord; late ] in
  Alcotest.(check (list string)) "one lane per label, first appearance first"
    [ "w1"; "coord" ] merged.lanes;
  Alcotest.(check int) "duplicate events counted once" 4 merged.events;
  let count sub =
    let n = String.length merged.json and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc else go (i + 1) (if String.sub merged.json i m = sub then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "the JSON holds exactly the counted events" 4 (count {|"ph":"X"|})

(* ------------------------------------------------------------------ *)
(* Metrics federation: the coordinator's merged view is an exact sum    *)

(* The acceptance invariant behind [top --metrics]: for every counter,
   the cluster-merged value equals the coordinator's local registry
   plus the sum over the per-worker dumps — no sampling, no loss.  Stub
   workers serve this process's registry over the wire, which exercises
   the full pull-decode-merge path; the sum identity holds whatever the
   registries contain. *)
let test_cluster_federated_metrics_sum () =
  let gate = Atomic.make true in
  let w0, _ = stub_worker gate and w1, _ = stub_worker gate in
  let coordinator =
    coordinator ~queue_depth:16 [ Server.bound_addr w0; Server.bound_addr w1 ]
  in
  let col = collector () in
  let _ids = List.init 2 (fun i -> submit_ok coordinator col (spec_of_seed ~classes:6 (1 + i))) in
  await_done ~timeout:30. col 2;
  let views = Coordinator.metrics coordinator in
  let local = List.assoc "" views and merged = List.assoc "cluster" views in
  let per_worker = List.filter (fun (l, _) -> l <> "" && l <> "cluster") views in
  Alcotest.(check (list string)) "views: own, one per live worker, cluster"
    [ ""; "w0"; "w1"; "cluster" ] (List.map fst views);
  let counter_in dump name =
    match Lbr_obs.Metrics.find_in_dump dump name with
    | Some (Lbr_obs.Metrics.D_counter n) -> n
    | _ -> 0
  in
  let checked = ref 0 and nonzero = ref 0 in
  List.iter
    (fun (name, _, v) ->
      match v with
      | Lbr_obs.Metrics.D_counter n ->
          let expected =
            counter_in local name
            + List.fold_left (fun acc (_, d) -> acc + counter_in d name) 0 per_worker
          in
          incr checked;
          if n > 0 then incr nonzero;
          Alcotest.(check int) (name ^ " merges to the exact sum") expected n
      | _ -> ())
    merged;
  Alcotest.(check bool) "counters were compared" true (!checked > 0);
  Alcotest.(check bool) "some counter is non-zero" true (!nonzero > 0);
  Alcotest.(check bool) "federated prometheus text has worker labels" true
    (let s = Lbr_obs.Metrics.render_views views in
     let n = String.length s and m = String.length "{worker=\"cluster\"}" in
     let sub = "{worker=\"cluster\"}" in
     let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
     go 0);
  Coordinator.close coordinator;
  Server.stop w0;
  Server.stop w1

(* Worker registries are pulled when asked for: the very first
   [metrics] call after [create] already lists every worker. *)
let test_cluster_metrics_first_call () =
  let gate = Atomic.make true in
  let w0, _ = stub_worker gate and w1, _ = stub_worker gate in
  let coordinator = coordinator [ Server.bound_addr w0; Server.bound_addr w1 ] in
  Alcotest.(check (list string)) "views on the first call" [ ""; "w0"; "w1"; "cluster" ]
    (List.map fst (Coordinator.metrics coordinator));
  Coordinator.close coordinator;
  Server.stop w0;
  Server.stop w1

(* A worker that stops answering keeps its last good view: the merged
   counters never go backwards, and its heartbeat age keeps growing. *)
let test_cluster_stopped_worker_keeps_last_view () =
  let gate = Atomic.make true in
  let w0, _ = stub_worker gate and w1, _ = stub_worker gate in
  let coordinator = coordinator [ Server.bound_addr w0; Server.bound_addr w1 ] in
  let col = collector () in
  let _ids = List.init 2 (fun i -> submit_ok coordinator col (spec_of_seed ~classes:6 (1 + i))) in
  await_done ~timeout:30. col 2;
  let before = Coordinator.metrics coordinator in
  Server.stop w1;
  let first = Coordinator.metrics coordinator in
  Thread.delay 0.01;
  let second = Coordinator.metrics coordinator in
  let value views label name =
    match Lbr_obs.Metrics.find_in_dump (List.assoc label views) name with
    | Some (Lbr_obs.Metrics.D_counter n) -> float_of_int n
    | Some (Lbr_obs.Metrics.D_gauge g) -> g
    | _ -> Alcotest.failf "%s has no %s" label name
  in
  List.iter
    (fun views ->
      Alcotest.(check (list string)) "the stopped worker is still listed"
        [ ""; "w0"; "w1"; "cluster" ] (List.map fst views);
      Alcotest.(check bool) "its view is the last one pulled" true
        (List.assoc "w1" views = List.assoc "w1" before))
    [ first; second ];
  let age views = value views "" "lbr_cluster_w1_heartbeat_age_seconds" in
  Alcotest.(check bool) "its heartbeat age grows" true (age second > age first);
  let nonzero = ref 0 in
  List.iter
    (fun (name, _, v) ->
      match v with
      | Lbr_obs.Metrics.D_counter n ->
          if n > 0 then incr nonzero;
          List.iter
            (fun (later, views) ->
              let m = int_of_float (value views "cluster" name) in
              if m < n then Alcotest.failf "cluster %s dropped from %d to %d (%s)" name n m later)
            [ ("first call", first); ("second call", second) ]
      | _ -> ())
    (List.assoc "cluster" before);
  Alcotest.(check bool) "some cluster counter is non-zero" true (!nonzero > 0);
  Coordinator.close coordinator;
  Server.stop w0

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ( "cache",
        [
          Alcotest.test_case "store/find, first write wins" `Quick
            test_cache_store_find_first_wins;
          Alcotest.test_case "persists across restart, tolerates torn line" `Quick
            test_cache_persists_across_restart;
          Alcotest.test_case "job key is content-addressed" `Quick
            test_cache_job_key_content_addressing;
          Alcotest.test_case "malformed keys are skipped" `Quick test_cache_skips_malformed_keys;
          Alcotest.test_case "at most 6 words per verdict" `Quick test_cache_words_per_verdict;
        ] );
      qsuite "cache-prop"
        [
          prop_cache_hit_matches_recompute;
          prop_cache_survives_restart;
          prop_cache_seeds_first_store_order;
          prop_cache_seeds_survive_restart;
          prop_cache_malformed_keys_noop;
          prop_cache_loads_written_log;
        ];
      qsuite "trace-merge-prop" [ prop_tdump_roundtrip; prop_tdump_decode_total ];
      ( "trace-merge",
        [
          Alcotest.test_case "lanes, flow arrows, skew correction" `Quick
            test_trace_merge_flow_arrows;
          Alcotest.test_case "trace-merge summary counts what it wrote" `Quick
            test_trace_merge_summary_counts_written;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "a wedged worker does not hold up other work" `Slow
            test_cluster_wedged_worker;
          Alcotest.test_case "High job queued behind Normals dispatches first" `Quick
            test_cluster_high_priority_first;
          Alcotest.test_case "cancel queued: the worker never sees it" `Quick
            test_cluster_cancel_queued;
          Alcotest.test_case "cancel running, after the worker's Accepted" `Quick
            (test_cluster_cancel_running ~hold_accepted:false);
          Alcotest.test_case "cancel running, before the worker's Accepted" `Quick
            (test_cluster_cancel_running ~hold_accepted:true);
          Alcotest.test_case "malformed Verdict keys and seeds are skipped" `Quick
            test_cluster_malformed_keys_skipped;
          Alcotest.test_case "warm cache: resubmission replays everything" `Slow
            test_cluster_warm_cache_resubmission;
          Alcotest.test_case "failover after kill: byte-identical, fewer executions" `Slow
            test_cluster_failover_byte_identical;
          Alcotest.test_case "restart replays the journal's verdict cache" `Slow
            test_cluster_restart_replays_journal_cache;
          Alcotest.test_case "corrupt journaled spec marked failed" `Quick
            test_cluster_recover_marks_corrupt_spec_failed;
          Alcotest.test_case "dead cluster: Accepted then Job_failed, never a hang" `Quick
            test_cluster_no_live_workers_fails_cleanly;
          Alcotest.test_case "federated metrics merge to the exact sum" `Quick
            test_cluster_federated_metrics_sum;
          Alcotest.test_case "metrics list every worker on the first call" `Quick
            test_cluster_metrics_first_call;
          Alcotest.test_case "a stopped worker keeps its last view" `Quick
            test_cluster_stopped_worker_keeps_last_view;
        ] );
    ]
