module Addr = Lbr_server.Addr
module Wire = Lbr_server.Wire
module Client = Lbr_server.Client
module Journal = Lbr_server.Journal
module Scheduler = Lbr_server.Scheduler
module Metrics = Lbr_obs.Metrics
module Trace = Lbr_obs.Trace

type config = {
  workers : Addr.t list;
  lanes : int;
  queue_depth : int;
  cache_path : string option;
  journal_dir : string option;
}

type worker = {
  w_id : int;
  w_addr : Addr.t;
  mutable w_alive : bool;  (* under [fleet.mutex] *)
  mutable w_inflight : int;  (* delegated jobs, at most [fleet.lanes]; under [fleet.mutex] *)
  w_hb_gauge : Metrics.gauge;  (* seconds since the last successful pull *)
  mutable w_pulled : float;  (* when [w_dump] was pulled; under [t.pull_mutex] *)
  mutable w_dump : Metrics.dump option;  (* its last good [""] view; under [t.pull_mutex] *)
}

(* What the remote runner needs: the workers and their lanes, and the
   shared verdict cache. *)
type fleet = {
  mutex : Mutex.t;
  lane_free : Condition.t;  (* broadcast when a lane frees up or a worker dies *)
  workers : worker array;
  lanes : int;
  vcache : Cache.t;
  m_failovers : Metrics.counter;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  g_alive : Metrics.gauge;
  g_entries : Metrics.gauge;
}

type t = {
  fleet : fleet;
  scheduler : Scheduler.t;
  journal : Journal.t option;
  recovered : int;
  pull_mutex : Mutex.t;  (* one federation pull at a time *)
}

let scheduler t = t.scheduler
let recovered t = t.recovered

let set_entries f = Metrics.set_gauge f.g_entries (float_of_int (Cache.entries f.vcache))

(* ------------------------------------------------------------------ *)
(* Lanes                                                               *)

(* The live worker with the fewest delegated jobs, once it has a free
   lane; [None] when no worker is alive. *)
let claim_lane f =
  Mutex.protect f.mutex (fun () ->
      let rec claim () =
        let least =
          Array.fold_left
            (fun best w ->
              match best with
              | _ when not w.w_alive -> best
              | Some b when b.w_inflight <= w.w_inflight -> best
              | _ -> Some w)
            None f.workers
        in
        match least with
        | Some w when w.w_inflight < f.lanes ->
            w.w_inflight <- w.w_inflight + 1;
            Some w
        | Some _ ->
            Condition.wait f.lane_free f.mutex;
            claim ()
        | None -> None
      in
      claim ())

let release_lane f w =
  Mutex.protect f.mutex (fun () ->
      w.w_inflight <- w.w_inflight - 1;
      Condition.broadcast f.lane_free)

let mark_dead f w =
  Mutex.protect f.mutex (fun () ->
      if w.w_alive then begin
        w.w_alive <- false;
        let alive = Array.fold_left (fun n w -> if w.w_alive then n + 1 else n) 0 f.workers in
        Metrics.set_gauge f.g_alive (float_of_int alive)
      end;
      Condition.broadcast f.lane_free)

(* ------------------------------------------------------------------ *)
(* The remote runner                                                   *)

(* Fire-and-forget remote cancel of a delegated job. *)
let remote_cancel w remote_id =
  match Client.connect (Addr.to_string w.w_addr) with
  | Error _ -> ()
  | Ok c ->
      ignore (Client.cancel c remote_id);
      Client.close c

(* A single failed connect is not a death certificate — a full accept
   backlog or a momentary network blip refuses transiently, and treating
   it as fatal would monotonically shrink the cluster.  Probe a few
   times with backoff before giving up on the worker. *)
let connect_worker w =
  let rec go attempt delay =
    match Client.connect (Addr.to_string w.w_addr) with
    | Ok _ as ok -> ok
    | Error _ as e ->
        if attempt >= 3 then e
        else begin
          Thread.delay delay;
          go (attempt + 1) (delay *. 2.)
        end
  in
  go 1 0.05

(* One attempt on worker [w], seeded with every cached verdict for the
   job's content digest [job]. *)
let delegate f (ctx : Scheduler.runner_ctx) ~job w spec =
  match connect_worker w with
  | Error m -> Error (`Conn m)
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.submit_ex c ~seeds:(Cache.seeds f.vcache ~job)
        ~on_progress:(fun (p : Client.progress) -> ctx.progress p.sim_time p.classes p.bytes)
        ~on_verdict:(fun ~key ~ok ->
          (* The one place a coordinator records a paid verdict: failover
             and restart seeds come from here. *)
          Cache.store f.vcache ~job ~key ok;
          set_entries f)
        ~on_accepted:(fun remote_id -> ctx.on_cancel (fun () -> remote_cancel w remote_id))
        spec

(* Run the job on a free lane, failing over to another live worker when
   the one running it dies.  Every verdict a dead worker streamed is
   already in the cache, so the retry replays them instead of paying
   again. *)
let run_remote f (ctx : Scheduler.runner_ctx) ~job ~attempts spec =
  let rec attempt () =
    if ctx.should_stop () then raise Lbr_frontend.Run.Cancelled;
    match claim_lane f with
    | None -> Error "no live workers"
    | Some w -> (
        let dispatched = Trace.now () in
        Trace.instant "coordinator.dispatch"
          ~args:(fun () -> [ ("job", Trace.Str ctx.job_id); ("worker", Trace.Int w.w_id) ]);
        match
          Fun.protect ~finally:(fun () -> release_lane f w) (fun () -> delegate f ctx ~job w spec)
        with
        | Ok (_, stats, pool_bytes) ->
            Metrics.add f.m_hits stats.Wire.replayed_runs;
            (* Fresh verdicts: every oracle execution that was not a retry. *)
            Metrics.add f.m_misses (stats.Wire.tool_executions - stats.Wire.oracle_retries);
            Ok (stats, pool_bytes)
        | Error (`Job_failed _) when ctx.should_stop () -> raise Lbr_frontend.Run.Cancelled
        | Error (`Job_failed reason) -> Error reason
        | Error (`Rejected (_, retry_after)) ->
            (* Transient backpressure on the worker, not a death. *)
            Thread.delay (Float.min (Float.max retry_after 0.05) 1.0);
            attempt ()
        | Error (`Conn _) ->
            (* The worker died under us (kill -9, reset, EOF mid-stream). *)
            mark_dead f w;
            incr attempts;
            Metrics.incr f.m_failovers;
            Trace.span_between "cluster.failover" ~start:dispatched ~finish:(Trace.now ())
              ~args:(fun () ->
                [
                  ("job", Trace.Str ctx.job_id);
                  ("dead_worker", Trace.Int w.w_id);
                  ("attempt", Trace.Int !attempts);
                ]);
            if ctx.should_stop () then raise Lbr_frontend.Run.Cancelled
            else if !attempts >= Array.length f.workers then
              Error (Printf.sprintf "gave up after %d worker failures" !attempts)
            else attempt ())
  in
  attempt ()

let runner f (ctx : Scheduler.runner_ctx) (spec : Wire.spec) =
  let job = Cache.job_key spec in
  (* Client seeds warm the shared cache: any worker that later runs this
     content digest replays them.  (A recovered job's paid verdicts are
     in the cache already.) *)
  Hashtbl.iter (fun key ok -> Cache.store f.vcache ~job ~key ok) ctx.replay;
  set_entries f;
  (* The job span: a fresh coordinator-side span id forwarded to workers
     as the parent of every span they record for this job (the client's
     own parent, if any, stays visible on its side of the trace).  The
     spec carries a context iff the client sent one or tracing is live
     here — the scheduler minted it at admission. *)
  let fwd =
    Option.map
      (fun (c : Trace.Context.t) -> { c with parent_span = Trace.Context.fresh_span_id () })
      spec.trace_ctx
  in
  let started = Trace.now () and attempts = ref 0 in
  let outcome =
    Trace.with_context fwd @@ fun () ->
    match run_remote f ctx ~job ~attempts { spec with trace_ctx = fwd } with
    | result -> Ok result
    | exception e -> Error e
  in
  Option.iter
    (fun (c : Trace.Context.t) ->
      (* Its [span_id] arg is the merge key for cross-node parenting. *)
      Trace.span_between "coordinator.job" ~start:started ~finish:(Trace.now ())
        ~args:(fun () ->
          [
            ("job", Trace.Str ctx.job_id);
            ("span_id", Trace.Str c.parent_span);
            ("ctx.trace", Trace.Str c.trace_id);
            ( "state",
              Trace.Str
                (match outcome with
                | Ok (Ok _) -> "done"
                | Ok (Error _) -> "failed"
                | Error Lbr_frontend.Run.Cancelled -> "cancelled"
                | Error _ -> "failed") );
            ("attempts", Trace.Int !attempts);
          ]))
    fwd;
  match outcome with Ok result -> result | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Metrics federation                                                  *)

let worker_label w = Printf.sprintf "w%d" w.w_id

(* Pull worker [w]'s own registry view.  A failed pull keeps the last
   good dump (and lets the heartbeat age grow): dropping it would send
   the merged counters backwards. *)
let pull w =
  match Client.connect (Addr.to_string w.w_addr) with
  | Error _ -> ()
  | Ok c ->
      (match Client.metrics_dump c with
      | Ok (_node, dump) ->
          w.w_dump <- Some dump;
          w.w_pulled <- Unix.gettimeofday ()
      | Error _ -> ());
      Client.close c

(* Pull every live worker on the calling thread, refresh the
   heartbeat-age gauges, then list the coordinator's own registry, each
   pulled worker's last good dump under its ["wN"] label, and
   ["cluster"]: the exact merge of all of them ({!Metrics.merge_dumps} —
   counters and gauges sum, histograms merge bucket-wise).  Pulls are
   serialized, so each worker's stored dump only moves forward. *)
let metrics t =
  let per_worker =
    Mutex.protect t.pull_mutex (fun () ->
        Array.iter (fun w -> if w.w_alive then pull w) t.fleet.workers;
        let now = Unix.gettimeofday () in
        Array.to_list t.fleet.workers
        |> List.filter_map (fun w ->
               Metrics.set_gauge w.w_hb_gauge (now -. w.w_pulled);
               Option.map (fun d -> (worker_label w, d)) w.w_dump))
  in
  let own = Metrics.dump () in
  (("", own) :: per_worker)
  @ [ ("cluster", Metrics.merge_dumps (own :: List.map snd per_worker)) ]

(* ------------------------------------------------------------------ *)

let ping_worker addr =
  match Client.connect (Addr.to_string addr) with
  | Error m ->
      failwith (Printf.sprintf "worker %s unreachable: %s" (Addr.to_string addr) m)
  | Ok c -> Client.close c

let create (config : config) =
  if config.workers = [] then invalid_arg "Coordinator.create: no workers";
  if config.lanes < 1 then invalid_arg "Coordinator.create: lanes < 1";
  List.iter ping_worker config.workers;
  let workers =
    Array.of_list config.workers
    |> Array.mapi (fun i addr ->
           {
             w_id = i;
             w_addr = addr;
             w_alive = true;
             w_inflight = 0;
             w_hb_gauge =
               Metrics.gauge
                 ~help:
                   (Printf.sprintf
                      "seconds since worker %d's registry was last pulled" i)
                 (Printf.sprintf "lbr_cluster_w%d_heartbeat_age_seconds" i);
             w_pulled = Unix.gettimeofday ();
             w_dump = None;
           })
  in
  let journal = Option.map Journal.open_dir config.journal_dir in
  (* A journaled coordinator keeps its verdicts next to its jobs unless
     told otherwise: a restart then seeds recovered jobs from them. *)
  let cache_path =
    match (config.cache_path, journal) with
    | (Some _ as path), _ -> path
    | None, Some j -> Some (Filename.concat (Journal.dir j) "verdicts.cache")
    | None, None -> None
  in
  let fleet =
    {
      mutex = Mutex.create ();
      lane_free = Condition.create ();
      workers;
      lanes = config.lanes;
      vcache = Cache.create ?path:cache_path ();
      m_failovers = Metrics.counter ~help:"in-flight jobs resubmitted after a worker death" "lbr_cluster_failovers_total";
      m_hits = Metrics.counter ~help:"predicate verdicts answered by the cluster cache" "lbr_cluster_cache_hits_total";
      m_misses = Metrics.counter ~help:"predicate verdicts that had to execute" "lbr_cluster_cache_misses_total";
      g_alive = Metrics.gauge ~help:"live workers" "lbr_cluster_workers_alive";
      g_entries = Metrics.gauge ~help:"verdicts in the cluster cache" "lbr_cluster_cache_entries";
    }
  in
  Metrics.set_gauge fleet.g_alive (float_of_int (Array.length workers));
  set_entries fleet;
  (* One dispatch lane per worker slot: a free lane pulls the next job
     off the scheduler's priority queue.  Lanes only wait on sockets, so
     they are threads: as domains they cost ~10% job latency on a 2-vCPU
     host. *)
  let scheduler =
    Scheduler.create ~threads:true ~runner:(runner fleet)
      ~jobs:(config.lanes * Array.length workers)
      ~queue_depth:(max 1 config.queue_depth) ?journal ()
  in
  {
    fleet;
    scheduler;
    journal;
    recovered = Scheduler.recover scheduler;
    pull_mutex = Mutex.create ();
  }

let close t =
  Scheduler.shutdown t.scheduler;
  Cache.close t.fleet.vcache;
  Option.iter Journal.close t.journal
