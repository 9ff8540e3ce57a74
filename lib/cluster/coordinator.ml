module Addr = Lbr_server.Addr
module Wire = Lbr_server.Wire
module Client = Lbr_server.Client
module Journal = Lbr_server.Journal
module Scheduler = Lbr_server.Scheduler
module Server = Lbr_server.Server
module Metrics = Lbr_obs.Metrics
module Trace = Lbr_obs.Trace
module Flight = Lbr_obs.Flight

type config = {
  workers : Addr.t list;
  lanes : int;
  queue_depth : int;
  cache_path : string option;
  journal_dir : string option;
  poll_interval : float;
      (* seconds between federation sweeps over the workers; <= 0 disables
         the background thread (tests call [poll_workers] directly) *)
}

type cjob = {
  cj_id : string;
  cj_spec : Wire.spec;
  cj_key : string;  (* content digest — the cache's job key *)
  cj_ctx : Trace.Context.t option;
      (* forwarded to workers: trace id (client's or minted here) and the
         coordinator's per-job span id as the parent, so every worker-side
         span the job records parents under this coordinator's span *)
  cj_on_event : Scheduler.event -> unit;  (* never raises *)
  cj_cancelled : bool Atomic.t;
  cj_submitted : float;  (* Trace.now at admission — the job span's start *)
  mutable cj_queued_at : float;  (* last time it entered a worker queue *)
  mutable cj_started : bool;  (* Started already emitted (failover re-runs don't repeat it) *)
  mutable cj_attempts : int;  (* failover resubmissions so far *)
  mutable cj_best : (float * int * int) option;
  mutable cj_status : Scheduler.status;
  mutable cj_remote : (int * string) option;  (* worker id, worker-side job id *)
}

type worker = {
  w_id : int;
  w_addr : Addr.t;
  w_queue : cjob Queue.t;
  mutable w_alive : bool;
  w_gauge : Metrics.gauge;
  w_hb_gauge : Metrics.gauge;  (* seconds since the last successful poll *)
  mutable w_last_poll : float;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* work available / drain progress; broadcast on every transition *)
  workers : worker array;
  lanes : int;
  queue_depth : int;
  vcache : Cache.t;
  journal : Journal.t option;
  table : (string, cjob) Hashtbl.t;
  mutable seq : int;
  mutable queued : int;
  mutable running : int;
  mutable draining : bool;
  mutable pumps : Thread.t list;
  mutable rr : int;  (* round-robin shard pointer *)
  started_at : float;
  mutable recovered : int;
  poll_interval : float;
  fed_mutex : Mutex.t;  (* guards fed_dumps; never taken under [mutex] held
                           by someone who also wants [fed_mutex] first *)
  fed_dumps : Metrics.dump option array;  (* last pull, indexed by worker id *)
  fed_stop : bool Atomic.t;
  mutable fed_thread : Thread.t option;
  m_steals : Metrics.counter;
  m_failovers : Metrics.counter;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_submitted : Metrics.counter;
  m_done : Metrics.counter;
  m_failed : Metrics.counter;
  g_alive : Metrics.gauge;
  g_entries : Metrics.gauge;
  g_waste : Metrics.gauge;
}

let recovered t = t.recovered
let cache t = t.vcache

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let set_depth w = Metrics.set_gauge w.w_gauge (float_of_int (Queue.length w.w_queue))

let alive_count t =
  Array.fold_left (fun n w -> if w.w_alive then n + 1 else n) 0 t.workers

(* Shortest live queue — where redistributed jobs land. *)
let shortest_live t =
  Array.fold_left
    (fun best w ->
      if not w.w_alive then best
      else
        match best with
        | Some b when Queue.length b.w_queue <= Queue.length w.w_queue -> best
        | _ -> Some w)
    None t.workers

(* Longest non-empty live queue other than [self] — who to steal from. *)
let steal_victim t self =
  Array.fold_left
    (fun best w ->
      if (not w.w_alive) || w.w_id = self.w_id || Queue.is_empty w.w_queue then
        best
      else
        match best with
        | Some b when Queue.length b.w_queue >= Queue.length w.w_queue -> best
        | _ -> Some w)
    None t.workers

let journal_marker t j (status : Scheduler.status) =
  match t.journal with
  | None -> ()
  | Some jr -> (
      match status with
      | Done _ -> Journal.mark_done jr ~id:j.cj_id
      | Failed reason -> Journal.mark_failed jr ~id:j.cj_id ~reason
      | Cancelled -> Journal.mark_cancelled jr ~id:j.cj_id
      | Queued | Running -> ())

(* Must hold the lock.  Moves [j] to a terminal state, accounts, journals,
   and delivers the Finished event before anyone can observe the state
   change (same discipline as the scheduler: a finished drain implies
   every handler ran). *)
let finalize t j status =
  (match j.cj_status with
  | Running -> t.running <- t.running - 1
  | Queued -> t.queued <- t.queued - 1
  | Done _ | Failed _ | Cancelled -> ());
  j.cj_status <- status;
  j.cj_remote <- None;
  (match status with
  | Done _ -> Metrics.incr t.m_done
  | Failed _ -> Metrics.incr t.m_failed
  | _ -> ());
  let state_name =
    match status with
    | Scheduler.Done _ -> "done"
    | Scheduler.Failed _ -> "failed"
    | Scheduler.Cancelled -> "cancelled"
    | Scheduler.Queued -> "queued"
    | Scheduler.Running -> "running"
  in
  Flight.transition ~job:j.cj_id ~state:state_name;
  (* The coordinator's job span: admission to terminal state.  Its
     [span_id] arg is the span id every worker-side span for this job
     carries as [ctx.parent] — the merge key for cross-node parenting. *)
  (match j.cj_ctx with
  | None -> ()
  | Some ctx ->
      Trace.span_between "coordinator.job" ~start:j.cj_submitted
        ~finish:(Trace.now ())
        ~args:(fun () ->
          [
            ("job", Trace.Str j.cj_id);
            ("span_id", Trace.Str ctx.Trace.Context.parent_span);
            ("ctx.trace", Trace.Str ctx.Trace.Context.trace_id);
            ("state", Trace.Str state_name);
            ("attempts", Trace.Int j.cj_attempts);
          ]));
  journal_marker t j status;
  (* Terminal jobs leave the table — it indexes cancellable work, and an
     unpruned table would both grow without bound and make [stats] list
     every historical job forever. *)
  Hashtbl.remove t.table j.cj_id;
  j.cj_on_event (Scheduler.Finished status);
  Condition.broadcast t.cond

(* Must hold the lock.  Mark [w] dead and move its queue — plus the
   in-flight job [inflight], if any — onto survivors.  With no survivors
   left everything fails. *)
let worker_dead t w inflight =
  if w.w_alive then begin
    w.w_alive <- false;
    Metrics.set_gauge t.g_alive (float_of_int (alive_count t))
  end;
  let orphans = Queue.fold (fun acc j -> j :: acc) [] w.w_queue in
  Queue.clear w.w_queue;
  set_depth w;
  let orphans = List.rev orphans in
  let requeue from_running j =
    if from_running then begin
      j.cj_attempts <- j.cj_attempts + 1;
      Metrics.incr t.m_failovers;
      (* One edge per reseed: from the dispatch that died to the moment
         the coordinator re-queued the job elsewhere. *)
      Trace.span_between "cluster.failover" ~start:j.cj_queued_at
        ~finish:(Trace.now ())
        ~args:(fun () ->
          [
            ("job", Trace.Str j.cj_id);
            ("dead_worker", Trace.Int w.w_id);
            ("attempt", Trace.Int j.cj_attempts);
          ])
    end;
    if Atomic.get j.cj_cancelled then finalize t j Cancelled
    else if from_running && j.cj_attempts >= Array.length t.workers then
      finalize t j
        (Failed
           (Printf.sprintf "gave up after %d worker failures" j.cj_attempts))
    else
      match shortest_live t with
      | None -> finalize t j (Failed "no live workers")
      | Some target ->
          if from_running then begin
            t.running <- t.running - 1;
            t.queued <- t.queued + 1;
            j.cj_status <- Scheduler.Queued;
            j.cj_remote <- None
          end;
          j.cj_queued_at <- Trace.now ();
          Queue.push j target.w_queue;
          set_depth target
  in
  List.iter (requeue false) orphans;
  Option.iter (requeue true) inflight;
  Condition.broadcast t.cond

(* Fire-and-forget remote cancel of a delegated job. *)
let remote_cancel t wid remote_id =
  let w = t.workers.(wid) in
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

(* Run one job on worker [w].  Called from a pump thread, lock NOT held.
   Runs under the job's trace context so every span and instant the
   dispatch records carries the job's trace id and parent span. *)
let run_one t w j =
  Trace.with_context j.cj_ctx @@ fun () ->
  let seeds = Cache.seeds t.vcache ~job:j.cj_key in
  if not j.cj_started then begin
    j.cj_started <- true;
    j.cj_on_event Scheduler.Started
  end;
  Trace.instant "coordinator.dispatch"
    ~args:(fun () ->
      [ ("job", Trace.Str j.cj_id); ("worker", Trace.Int w.w_id) ]);
  match connect_worker w with
  | Error _ -> locked t (fun () -> worker_dead t w (Some j))
  | Ok c ->
      let on_progress (p : Client.progress) =
        j.cj_best <- Some (p.sim_time, p.classes, p.bytes);
        j.cj_on_event
          (Scheduler.Progress
             { sim_time = p.sim_time; classes = p.classes; bytes = p.bytes })
      in
      let on_verdict ~key ~ok =
        (* Mirror the worker's WAL before anything downstream can observe
           the verdict: cache first (failover seeds come from here), then
           our own journal, then the event stream. *)
        Cache.store t.vcache ~job:j.cj_key ~key ok;
        Metrics.set_gauge t.g_entries (float_of_int (Cache.entries t.vcache));
        (match t.journal with
        | Some jr -> Journal.append_pred jr ~id:j.cj_id ~key ok
        | None -> ());
        j.cj_on_event (Scheduler.Evaluated { key; ok; ctx = j.cj_ctx })
      in
      let on_accepted remote_id =
        let cancel_now =
          locked t (fun () ->
              j.cj_remote <- Some (w.w_id, remote_id);
              Atomic.get j.cj_cancelled)
        in
        (* A cancel that raced the handoff could not reach the worker; it
           parked the flag — honour it now that the remote id is known. *)
        if cancel_now then remote_cancel t w.w_id remote_id
      in
      let result =
        Client.submit_ex c ~on_progress ~on_verdict ~on_accepted ~seeds
          j.cj_spec
      in
      Client.close c;
      match result with
      | Ok (_, stats, pool_bytes) ->
          Metrics.add t.m_hits stats.Wire.replayed_runs;
          (* Fresh verdicts: every oracle execution that was not a retry. *)
          Metrics.add t.m_misses (stats.Wire.tool_executions - stats.Wire.oracle_retries);
          locked t (fun () -> finalize t j (Done (stats, pool_bytes)))
      | Error (`Job_failed reason) ->
          locked t (fun () ->
              if Atomic.get j.cj_cancelled then finalize t j Cancelled
              else finalize t j (Failed reason))
      | Error (`Rejected (_, retry_after)) ->
          (* Transient backpressure on the worker, not a death: park the
             job back on a queue and let the pumps breathe. *)
          locked t (fun () ->
              t.running <- t.running - 1;
              t.queued <- t.queued + 1;
              j.cj_status <- Scheduler.Queued;
              (match shortest_live t with
              | Some target -> Queue.push j target.w_queue; set_depth target
              | None -> finalize t j (Failed "no live workers"));
              Condition.broadcast t.cond);
          Thread.delay (Float.min (Float.max retry_after 0.05) 1.0)
      | Error (`Conn _) ->
          (* The worker died under us (kill -9, reset, EOF mid-stream).
             Every verdict it streamed before dying is already in the
             cache, so the resubmission replays them instead of paying
             again. *)
          locked t (fun () -> worker_dead t w (Some j))

(* Pump thread: drive worker [w], stealing when its queue runs dry. *)
let pump t w () =
  let rec next () =
    Mutex.lock t.mutex;
    let rec acquire () =
      if not w.w_alive then None
      else if not (Queue.is_empty w.w_queue) then Some (Queue.pop w.w_queue, w)
      else
        match steal_victim t w with
        | Some victim ->
            Metrics.incr t.m_steals;
            let j = Queue.pop victim.w_queue in
            (* The steal edge: how long the job sat on the victim's queue
               before this pump carried it across. *)
            Trace.span_between "cluster.steal" ~start:j.cj_queued_at
              ~finish:(Trace.now ())
              ~args:(fun () ->
                [
                  ("job", Trace.Str j.cj_id);
                  ("from_worker", Trace.Int victim.w_id);
                  ("to_worker", Trace.Int w.w_id);
                ]);
            Some (j, victim)
        | None ->
            if t.draining && t.queued = 0 && t.running = 0 then None
            else begin
              Condition.wait t.cond t.mutex;
              acquire ()
            end
    in
    let job = acquire () in
    (match job with
    | Some (j, from) ->
        set_depth from;
        t.queued <- t.queued - 1;
        t.running <- t.running + 1;
        j.cj_status <- Scheduler.Running;
        Flight.transition ~job:j.cj_id ~state:"running"
    | None -> ());
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some (j, _) ->
        if Atomic.get j.cj_cancelled then
          locked t (fun () -> finalize t j Cancelled)
        else run_one t w j;
        next ()
  in
  next ()

let ping_worker addr =
  match Client.connect (Addr.to_string addr) with
  | Error m ->
      failwith (Printf.sprintf "worker %s unreachable: %s" (Addr.to_string addr) m)
  | Ok c ->
      let v = Client.negotiated_version c in
      Client.close c;
      if v < 3 then
        failwith
          (Printf.sprintf "worker %s speaks protocol v%d; the cluster needs v3"
             (Addr.to_string addr) v)

let next_id t =
  t.seq <- t.seq + 1;
  Printf.sprintf "job-%06d" t.seq

(* Must hold the lock.  Round-robin shard of a fresh job, starting at
   worker 0 and skipping the dead.  The job counts as queued from here on
   either way: finalize balances the count on the no-workers path. *)
let shard t j =
  t.queued <- t.queued + 1;
  match shortest_live t with
  | None -> finalize t j (Failed "no live workers")
  | Some _ ->
      let n = Array.length t.workers in
      let rec pick i =
        let w = t.workers.((t.rr + i) mod n) in
        if w.w_alive then begin
          t.rr <- (t.rr + i + 1) mod n;
          w
        end
        else pick (i + 1)
      in
      let w = pick 0 in
      j.cj_queued_at <- Trace.now ();
      Queue.push j w.w_queue;
      set_depth w;
      Condition.broadcast t.cond

(* ------------------------------------------------------------------ *)
(* Metrics federation                                                  *)

let worker_label w = Printf.sprintf "w%d" w.w_id

(* Per-worker dumps (workers that have been polled at least once) plus
   the exact merge of the coordinator's own registry with all of them —
   the "cluster" view.  Merge semantics are {!Metrics.merge_dumps}:
   counters and gauges sum, histograms merge bucket-wise. *)
let federated t =
  Mutex.lock t.fed_mutex;
  let per_worker =
    Array.to_list t.workers
    |> List.filter_map (fun w ->
           Option.map (fun d -> (worker_label w, d)) t.fed_dumps.(w.w_id))
  in
  Mutex.unlock t.fed_mutex;
  let merged = Metrics.merge_dumps (Metrics.dump () :: List.map snd per_worker) in
  (per_worker, merged)

(* One federation sweep: pull every live worker's registry over
   [Metrics_dump_request], refresh heartbeat-age gauges, and recompute
   the cluster-wide speculation waste ratio from the merged view.  All
   network I/O happens outside both locks; a failed pull leaves the
   previous dump in place (and the heartbeat age growing). *)
let poll_workers t =
  Array.iter
    (fun w ->
      if w.w_alive then
        match Client.connect (Addr.to_string w.w_addr) with
        | Error _ -> ()
        | Ok c ->
            (match Client.metrics_dump c with
            | Ok (_node, dump) ->
                Mutex.lock t.fed_mutex;
                t.fed_dumps.(w.w_id) <- Some dump;
                w.w_last_poll <- Unix.gettimeofday ();
                Mutex.unlock t.fed_mutex
            | Error _ -> ());
            Client.close c)
    t.workers;
  let now = Unix.gettimeofday () in
  Array.iter
    (fun w -> Metrics.set_gauge w.w_hb_gauge (now -. w.w_last_poll))
    t.workers;
  let _, merged = federated t in
  let cval name =
    match Metrics.find_in_dump merged name with
    | Some (Metrics.D_counter n) -> n
    | _ -> 0
  in
  let launched = cval "lbr_spec_launched_total" in
  let cancelled = cval "lbr_spec_cancelled_total" in
  if launched > 0 then
    Metrics.set_gauge t.g_waste (float_of_int cancelled /. float_of_int launched)

let fed_loop t () =
  while not (Atomic.get t.fed_stop) do
    poll_workers t;
    (* Sleep in slices so drain never waits out a full interval. *)
    let rec sleep remaining =
      if remaining > 0. && not (Atomic.get t.fed_stop) then begin
        Thread.delay (Float.min 0.1 remaining);
        sleep (remaining -. 0.1)
      end
    in
    sleep t.poll_interval
  done

let create (config : config) =
  if config.workers = [] then invalid_arg "Coordinator.create: no workers";
  if config.lanes < 1 then invalid_arg "Coordinator.create: lanes < 1";
  List.iter ping_worker config.workers;
  let vcache = Cache.create ?path:config.cache_path () in
  let journal = Option.map Journal.open_dir config.journal_dir in
  let workers =
    Array.of_list config.workers
    |> Array.mapi (fun i addr ->
           {
             w_id = i;
             w_addr = addr;
             w_queue = Queue.create ();
             w_alive = true;
             w_gauge =
               Metrics.gauge
                 ~help:(Printf.sprintf "jobs queued for worker %d" i)
                 (Printf.sprintf "lbr_cluster_w%d_queue_depth" i);
             w_hb_gauge =
               Metrics.gauge
                 ~help:
                   (Printf.sprintf
                      "seconds since worker %d's registry was last pulled" i)
                 (Printf.sprintf "lbr_cluster_w%d_heartbeat_age_seconds" i);
             w_last_poll = Unix.gettimeofday ();
           })
  in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      workers;
      lanes = config.lanes;
      queue_depth = max 1 config.queue_depth;
      vcache;
      journal;
      table = Hashtbl.create 64;
      seq = (match journal with Some j -> Journal.max_job_number j | None -> 0);
      queued = 0;
      running = 0;
      draining = false;
      pumps = [];
      rr = 0;
      started_at = Unix.gettimeofday ();
      recovered = 0;
      poll_interval = config.poll_interval;
      fed_mutex = Mutex.create ();
      fed_dumps = Array.make (Array.length workers) None;
      fed_stop = Atomic.make false;
      fed_thread = None;
      m_steals = Metrics.counter ~help:"jobs stolen between worker queues" "lbr_cluster_steals_total";
      m_failovers = Metrics.counter ~help:"in-flight jobs resubmitted after a worker death" "lbr_cluster_failovers_total";
      m_hits = Metrics.counter ~help:"predicate verdicts answered by the cluster cache" "lbr_cluster_cache_hits_total";
      m_misses = Metrics.counter ~help:"predicate verdicts that had to execute" "lbr_cluster_cache_misses_total";
      m_submitted = Metrics.counter ~help:"jobs admitted by the coordinator" "lbr_cluster_jobs_submitted_total";
      m_done = Metrics.counter ~help:"delegated jobs completed" "lbr_cluster_jobs_done_total";
      m_failed = Metrics.counter ~help:"delegated jobs failed" "lbr_cluster_jobs_failed_total";
      g_alive = Metrics.gauge ~help:"live workers" "lbr_cluster_workers_alive";
      g_entries = Metrics.gauge ~help:"verdicts in the cluster cache" "lbr_cluster_cache_entries";
      g_waste = Metrics.gauge ~help:"cluster-wide speculation waste: cancelled launches / all launches" "lbr_cluster_spec_waste_ratio";
    }
  in
  Metrics.set_gauge t.g_alive (float_of_int (Array.length workers));
  Metrics.set_gauge t.g_entries (float_of_int (Cache.entries vcache));
  (* Re-admit journaled jobs that never reached a terminal marker, folding
     their paid verdicts into the cache so the re-run replays them. *)
  let recovered_n =
    match journal with
    | None -> 0
    | Some jr ->
        List.fold_left
          (fun n (id, spec_bytes) ->
            match Wire.spec_of_string spec_bytes with
            | Error _ -> n
            | Ok spec ->
                let key = Cache.job_key spec in
                Hashtbl.iter
                  (fun k ok -> Cache.store t.vcache ~job:key ~key:k ok)
                  (Journal.replay jr ~id);
                let j =
                  {
                    cj_id = id;
                    cj_spec = spec;
                    cj_key = key;
                    (* The persisted spec carries the original forwarded
                       context, so a recovered job keeps its trace id and
                       its coordinator span id across the restart. *)
                    cj_ctx = spec.Wire.trace_ctx;
                    cj_on_event = ignore;
                    cj_cancelled = Atomic.make false;
                    cj_submitted = Trace.now ();
                    cj_queued_at = Trace.now ();
                    cj_started = false;
                    cj_attempts = 0;
                    cj_best = None;
                    cj_status = Scheduler.Queued;
                    cj_remote = None;
                  }
                in
                Hashtbl.replace t.table id j;
                locked t (fun () -> shard t j);
                n + 1)
          0 (Journal.pending jr)
  in
  Metrics.set_gauge t.g_entries (float_of_int (Cache.entries vcache));
  t.recovered <- recovered_n;
  t.pumps <-
    List.concat_map
      (fun w ->
        List.init t.lanes (fun _ -> Thread.create (pump t w) ()))
      (Array.to_list workers);
  if config.poll_interval > 0. then
    t.fed_thread <- Some (Thread.create (fed_loop t) ());
  t

let submit t ~on_event ~seeds spec =
  Mutex.lock t.mutex;
  let outcome =
    if t.draining then Error `Draining
    else if t.queued >= t.queue_depth then
      Error (`Queue_full (Float.max 0.1 (0.05 *. float_of_int t.queued)))
    else begin
      let id = next_id t in
      let safe_event ev = try on_event id ev with _ -> () in
      let key = Cache.job_key spec in
      (* Distributed trace identity: keep the client's trace id when it
         sent one (the trace started there), mint one when tracing is
         live here, stay context-free otherwise so untraced journals are
         byte-identical to v4.  Either way the parent span forwarded to
         workers is a fresh coordinator-side job span id — worker spans
         parent under the coordinator, and the client's own parent (if
         any) stays visible on its side of the trace. *)
      let ctx =
        match spec.Wire.trace_ctx with
        | Some c ->
            Some
              {
                Trace.Context.trace_id = c.Trace.Context.trace_id;
                parent_span = Trace.Context.fresh_span_id ();
              }
        | None -> if Trace.enabled () then Some (Trace.Context.mint ()) else None
      in
      let spec =
        match ctx with None -> spec | Some _ -> { spec with Wire.trace_ctx = ctx }
      in
      (* Client-supplied seeds pre-warm the shared cache: any worker that
         later picks up this content digest replays them. *)
      List.iter (fun (k, ok) -> Cache.store t.vcache ~job:key ~key:k ok) seeds;
      (match t.journal with
      | Some jr -> Journal.record_job jr ~id ~spec:(Wire.spec_to_string spec)
      | None -> ());
      let j =
        {
          cj_id = id;
          cj_spec = spec;
          cj_key = key;
          cj_ctx = ctx;
          cj_on_event = safe_event;
          cj_cancelled = Atomic.make false;
          cj_submitted = Trace.now ();
          cj_queued_at = Trace.now ();
          cj_started = false;
          cj_attempts = 0;
          cj_best = None;
          cj_status = Scheduler.Queued;
          cj_remote = None;
        }
      in
      Hashtbl.replace t.table id j;
      Metrics.incr t.m_submitted;
      Flight.transition ~job:id ~state:"queued";
      shard t j;
      Ok id
    end
  in
  Mutex.unlock t.mutex;
  outcome

let cancel t id =
  let found, remote =
    locked t (fun () ->
        match Hashtbl.find_opt t.table id with
        | None -> (false, None)
        | Some j -> (
            match j.cj_status with
            | Done _ | Failed _ | Cancelled -> (false, None)
            | Queued | Running ->
                Atomic.set j.cj_cancelled true;
                Condition.broadcast t.cond;
                (true, j.cj_remote)))
  in
  (match remote with
  | Some (wid, remote_id) -> remote_cancel t wid remote_id
  | None -> ());
  found

let stats t =
  locked t (fun () ->
      (* Non-terminal jobs only, like [Scheduler.snapshot] — finalize
         prunes the table, so the filter is just the same invariant
         stated twice. *)
      let job_stats =
        Hashtbl.fold
          (fun _ j acc ->
            match j.cj_status with
            | Scheduler.Queued | Scheduler.Running ->
                {
                  Wire.js_id = j.cj_id;
                  js_running = (j.cj_status = Scheduler.Running);
                  js_best = j.cj_best;
                }
                :: acc
            | Scheduler.Done _ | Scheduler.Failed _ | Scheduler.Cancelled -> acc)
          t.table []
        |> List.sort (fun a b -> compare a.Wire.js_id b.Wire.js_id)
      in
      {
        Wire.queued_jobs = t.queued;
        running_jobs = t.running;
        job_stats;
        (* For a coordinator the "oracle" is the cluster cache: queries =
           every predicate verdict observed, memo hits = the cached ones. *)
        oracle_queries =
          Metrics.counter_value t.m_hits + Metrics.counter_value t.m_misses;
        oracle_memo_hits = Metrics.counter_value t.m_hits;
        uptime = Unix.gettimeofday () -. t.started_at;
        metrics_text =
          (* Local registry first, then each worker's last-pulled dump
             under a [worker="wN"] label, then the exact merge of all of
             them as [worker="cluster"] — one text payload, three views. *)
          (let per_worker, merged = federated t in
           String.concat ""
             ((Metrics.render_prometheus ()
              :: List.map
                   (fun (lbl, d) ->
                     Metrics.render_prometheus_dump ~label:("worker", lbl) d)
                   per_worker)
             @ [ Metrics.render_prometheus_dump ~label:("worker", "cluster") merged ]));
      })

let drain t =
  Mutex.lock t.mutex;
  t.draining <- true;
  Condition.broadcast t.cond;
  while t.queued + t.running > 0 do
    Condition.wait t.cond t.mutex
  done;
  let pumps = t.pumps in
  t.pumps <- [];
  Mutex.unlock t.mutex;
  List.iter Thread.join pumps;
  Atomic.set t.fed_stop true;
  (match t.fed_thread with Some th -> Thread.join th | None -> ());
  t.fed_thread <- None;
  Cache.close t.vcache;
  Option.iter Journal.close t.journal

let backend t =
  {
    Server.b_submit = (fun ~on_event ~seeds spec -> submit t ~on_event ~seeds spec);
    b_cancel = cancel t;
    b_stats = (fun () -> stats t);
    b_drain = (fun () -> drain t);
  }
