(* Tests for the cluster layer: the content-addressed verdict cache
   (lookup semantics, disk persistence, qcheck properties), and the
   coordinator end to end against real worker daemons on loopback TCP —
   work stealing with stub workers, warm-cache resubmission, and the
   kill-a-worker-mid-job failover acceptance scenario. *)

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
  Alcotest.(check bool) "pool bytes change the key" true
    (k <> Cache.job_key { spec with pool_bytes = spec.pool_bytes ^ "x" });
  Alcotest.(check bool) "crash policy changes the key" true
    (k <> Cache.job_key { spec with crash_policy = Lbr_runtime.Oracle.Crash_fails })

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

(* ------------------------------------------------------------------ *)
(* Coordinator plumbing helpers                                        *)

(* Collect per-job terminal states delivered through a backend's event
   stream, with a blocking wait. *)
type collector = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  c_done : (string, Scheduler.status) Hashtbl.t;
  c_verdicts : int Atomic.t;
}

let collector () =
  {
    c_mutex = Mutex.create ();
    c_cond = Condition.create ();
    c_done = Hashtbl.create 8;
    c_verdicts = Atomic.make 0;
  }

let collect col id (ev : Scheduler.event) =
  match ev with
  | Scheduler.Evaluated _ -> Atomic.incr col.c_verdicts
  | Scheduler.Finished ((Scheduler.Done _ | Scheduler.Failed _ | Scheduler.Cancelled) as st)
    ->
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

let submit_ok backend col spec =
  match backend.Server.b_submit ~on_event:(collect col) ~seeds:[] spec with
  | Ok id -> id
  | Error `Draining -> Alcotest.fail "coordinator draining"
  | Error (`Queue_full _) -> Alcotest.fail "coordinator queue full"

let start_worker () =
  Server.start
    {
      Server.listen = Addr.Tcp ("127.0.0.1", 0);
      jobs = 1;
      queue_depth = 8;
      journal_dir = None;
    }

(* ------------------------------------------------------------------ *)
(* Work stealing, against stub workers whose job duration we control    *)

let zero_stats =
  {
    Wire.queued_jobs = 0;
    running_jobs = 0;
    job_stats = [];
    oracle_queries = 0;
    oracle_memo_hits = 0;
    uptime = 0.;
    metrics_text = "";
  }

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

(* A wire-complete worker daemon whose "reduction" echoes the pool back.
   Jobs whose spec carries [retries = 99] block until [gate] opens —
   the knob the stealing test uses to wedge one worker. *)
let stub_worker gate =
  let seq = ref 0 in
  let backend =
    {
      Server.b_submit =
        (fun ~on_event ~seeds:_ spec ->
          incr seq;
          let id = Printf.sprintf "job-%06d" !seq in
          ignore
            (Thread.create
               (fun () ->
                 Thread.delay 0.01;
                 if spec.Wire.retries = 99 then begin
                   let m, c, open_ = gate in
                   Mutex.lock m;
                   while not !open_ do
                     Condition.wait c m
                   done;
                   Mutex.unlock m
                 end;
                 on_event id
                   (Scheduler.Finished (Scheduler.Done (stub_result_stats, spec.Wire.pool_bytes))))
               ());
          Ok id);
      b_cancel = (fun _ -> false);
      b_stats = (fun () -> zero_stats);
      b_drain = (fun () -> ());
    }
  in
  Server.start_backend ~listen:(Addr.Tcp ("127.0.0.1", 0)) backend

let test_cluster_work_stealing () =
  let gate = (Mutex.create (), Condition.create (), ref false) in
  let w0 = stub_worker gate and w1 = stub_worker gate in
  let steals0 = counter_value "lbr_cluster_steals_total" in
  let coordinator =
    Coordinator.create
      {
        Coordinator.workers = [ Server.bound_addr w0; Server.bound_addr w1 ];
        lanes = 1;
        queue_depth = 16;
        cache_path = None;
        journal_dir = None;
        poll_interval = 0.;
      }
  in
  let backend = Coordinator.backend coordinator in
  let col = collector () in
  (* Round-robin puts the blocking job and one fast job on w0; w1 must
     finish its own two and steal w0's queued fast job. *)
  let blocked = submit_ok backend col { (spec_of_seed ~classes:6 1) with retries = 99 } in
  let fast = List.init 3 (fun i -> submit_ok backend col (spec_of_seed ~classes:6 (2 + i))) in
  await_done ~timeout:30. col 3;
  Alcotest.(check bool) "steals happened" true
    (counter_value "lbr_cluster_steals_total" - steals0 >= 1);
  (* open the gate; the wedged job finishes too *)
  let m, c, open_ = gate in
  Mutex.lock m;
  open_ := true;
  Condition.broadcast c;
  Mutex.unlock m;
  await_done ~timeout:30. col 4;
  List.iter
    (fun id ->
      match Hashtbl.find_opt col.c_done id with
      | Some (Scheduler.Done (_, bytes)) ->
          Alcotest.(check bool) (id ^ " echoes its pool") true (String.length bytes > 0)
      | other ->
          Alcotest.failf "%s: unexpected terminal state %s" id
            (match other with
            | Some (Scheduler.Failed m) -> "failed: " ^ m
            | Some Scheduler.Cancelled -> "cancelled"
            | _ -> "missing"))
    (blocked :: fast);
  (* queue-depth gauges are registered and rendered *)
  let prom = Lbr_obs.Metrics.render_prometheus () in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "w0 queue-depth gauge exported" true
    (contains prom "lbr_cluster_w0_queue_depth");
  Alcotest.(check bool) "w1 queue-depth gauge exported" true
    (contains prom "lbr_cluster_w1_queue_depth");
  backend.Server.b_drain ();
  Server.stop w0;
  Server.stop w1

(* ------------------------------------------------------------------ *)
(* Warm cache: an identical resubmission replays every verdict          *)

let test_cluster_warm_cache_resubmission () =
  let seed = 21 in
  let _, ref_bytes = reference_run ~classes:16 seed in
  let w = start_worker () in
  let coordinator =
    Coordinator.create
      {
        Coordinator.workers = [ Server.bound_addr w ];
        lanes = 1;
        queue_depth = 8;
        cache_path = None;
        journal_dir = None;
        poll_interval = 0.;
      }
  in
  let backend = Coordinator.backend coordinator in
  let col = collector () in
  let id1 = submit_ok backend col (spec_of_seed ~classes:16 seed) in
  await_done col 1;
  let hits0 = counter_value "lbr_cluster_cache_hits_total" in
  let id2 = submit_ok backend col (spec_of_seed ~classes:16 seed) in
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
  backend.Server.b_drain ();
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

(* A one-shot kill switch shared by the proxies below: whichever proxy
   streams the Nth Verdict frame severs ITS worker's connections, exactly
   once cluster-wide.  [t_victim] records which worker died. *)
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

(* A frame-level TCP proxy in front of a worker, simulating kill -9 at a
   deterministic point.  The simulated oracle is so fast — and work
   stealing makes placement so racy — that killing a worker from the
   outside on a timer can land before the job starts or after it ends.
   Instead the proxy itself watches the worker's frames and severs the
   link the moment it would forward the trigger's Nth Verdict frame:
   mid-job by construction, on whichever worker actually runs the job,
   and the terminal Result frame can never slip through. *)
let proxy_worker trig ~id upstream =
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
     that read still holds a reference — shutdown does both at once *)
  let hangup fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> () in
  let sever () =
    if not (Atomic.exchange severed true) then begin
      Mutex.lock fds_mutex;
      List.iter
        (fun fd ->
          hangup fd;
          try Unix.close fd with _ -> ())
        !fds;
      fds := [];
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
         let kill =
           len > 0
           && Char.code (Bytes.get payload 0) = verdict_tag
           && Atomic.fetch_and_add trig.t_seen 1 + 1 >= trig.t_threshold
           && Atomic.compare_and_set trig.t_fired false true
         in
         if kill then begin
           Atomic.set trig.t_victim id;
           sever ()
         end
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
  (* both workers sit behind killer proxies: work stealing makes the
     job's placement racy, so whichever worker ends up streaming the 5th
     verdict is the one that dies *)
  let trig = trigger 5 in
  let p0 = proxy_worker trig ~id:0 (Server.bound_addr w0) in
  let p1 = proxy_worker trig ~id:1 (Server.bound_addr w1) in
  let journal_dir = fresh_dir "coordjournal" in
  let coordinator =
    Coordinator.create
      {
        Coordinator.workers = [ p0; p1 ];
        lanes = 1;
        queue_depth = 8;
        cache_path = Some (Filename.concat journal_dir "verdicts.cache");
        journal_dir = Some journal_dir;
        poll_interval = 0.;
      }
  in
  let backend = Coordinator.backend coordinator in
  let col = collector () in
  let hits0 = counter_value "lbr_cluster_cache_hits_total" in
  let failovers0 = counter_value "lbr_cluster_failovers_total" in
  let id = submit_ok backend col (spec_of_seed ~classes:64 seed) in
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
  (* the coordinator journal mirrored the worker's verdicts *)
  let journal = Journal.open_dir journal_dir in
  let mirrored = Journal.verdicts journal ~id in
  Journal.close journal;
  Alcotest.(check bool) "coordinator journal holds mirrored verdicts" true
    (List.length mirrored > 0);
  backend.Server.b_drain ();
  (* the killed link's worker process is still alive and finishes its
     orphaned job on its own, so both daemons stop gracefully *)
  Server.stop w0;
  Server.stop w1

(* ------------------------------------------------------------------ *)
(* Dead cluster: a submission with no live workers must still complete
   the protocol — Accepted, then a terminal Job_failed — instead of the
   coordinator's synchronous finalize relocking the connection's write
   mutex and leaving the client waiting forever.  Also pins table
   pruning: terminal jobs leave the coordinator's stats snapshot. *)

let test_cluster_no_live_workers_fails_cleanly () =
  let w = start_worker () in
  let coordinator =
    Coordinator.create
      {
        Coordinator.workers = [ Server.bound_addr w ];
        lanes = 1;
        queue_depth = 8;
        cache_path = None;
        journal_dir = None;
        poll_interval = 0.;
      }
  in
  let backend = Coordinator.backend coordinator in
  let front = Server.start_backend ~listen:(Addr.Tcp ("127.0.0.1", 0)) backend in
  (* kill -9 the only worker, then let a first submission discover the
     death (bounded connect retries, then failover gives up) *)
  Server.abort w;
  let col = collector () in
  let id1 = submit_ok backend col (spec_of_seed ~classes:6 1) in
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
      Client.close c);
  let stats = backend.Server.b_stats () in
  Alcotest.(check (list string)) "terminal jobs are pruned from stats" []
    (List.map (fun js -> js.Wire.js_id) stats.Wire.job_stats);
  Server.stop front

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
  let json = Trace_merge.merge [ coord; worker ] in
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

(* ------------------------------------------------------------------ *)
(* Metrics federation: the coordinator's merged view is an exact sum    *)

(* The acceptance invariant behind [top --metrics]: for every counter,
   the cluster-merged value equals the coordinator's local registry
   plus the sum over the per-worker dumps — no sampling, no loss.  Stub
   workers serve this process's registry over the wire, which exercises
   the full pull-decode-merge path; the sum identity holds whatever the
   registries contain. *)
let test_cluster_federated_metrics_sum () =
  let gate = (Mutex.create (), Condition.create (), ref true) in
  let w0 = stub_worker gate and w1 = stub_worker gate in
  let coordinator =
    Coordinator.create
      {
        Coordinator.workers = [ Server.bound_addr w0; Server.bound_addr w1 ];
        lanes = 1;
        queue_depth = 16;
        cache_path = None;
        journal_dir = None;
        poll_interval = 0.;
      }
  in
  let backend = Coordinator.backend coordinator in
  let col = collector () in
  let _ids = List.init 2 (fun i -> submit_ok backend col (spec_of_seed ~classes:6 (1 + i))) in
  await_done ~timeout:30. col 2;
  (* poll_interval 0 disables the background loop; pull synchronously *)
  Coordinator.poll_workers coordinator;
  let local = Lbr_obs.Metrics.dump () in
  let per_worker, merged = Coordinator.federated coordinator in
  Alcotest.(check int) "one dump per live worker" 2 (List.length per_worker);
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
  (* per-worker heartbeat gauges got refreshed by the poll *)
  let prom = backend.Server.b_stats () in
  Alcotest.(check bool) "federated prometheus text has worker labels" true
    (let s = prom.Wire.metrics_text in
     let n = String.length s and m = String.length "{worker=\"cluster\"}" in
     let sub = "{worker=\"cluster\"}" in
     let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
     go 0);
  backend.Server.b_drain ();
  Server.stop w0;
  Server.stop w1

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
        ] );
      qsuite "cache-prop" [ prop_cache_hit_matches_recompute; prop_cache_survives_restart ];
      qsuite "trace-merge-prop" [ prop_tdump_roundtrip; prop_tdump_decode_total ];
      ( "trace-merge",
        [
          Alcotest.test_case "lanes, flow arrows, skew correction" `Quick
            test_trace_merge_flow_arrows;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "work stealing drains the wedged worker's queue" `Slow
            test_cluster_work_stealing;
          Alcotest.test_case "warm cache: resubmission replays everything" `Slow
            test_cluster_warm_cache_resubmission;
          Alcotest.test_case "failover after kill: byte-identical, fewer executions" `Slow
            test_cluster_failover_byte_identical;
          Alcotest.test_case "dead cluster: Accepted then Job_failed, never a hang" `Quick
            test_cluster_no_live_workers_fails_cleanly;
          Alcotest.test_case "federated metrics merge to the exact sum" `Quick
            test_cluster_federated_metrics_sum;
        ] );
    ]
