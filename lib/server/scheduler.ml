module Pool = Lbr_runtime.Pool

type status =
  | Queued
  | Running
  | Done of Wire.stats * string
  | Failed of string
  | Cancelled

type event =
  | Started
  | Progress of { sim_time : float; classes : int; bytes : int }
  | Evaluated of { key : string; ok : bool; ctx : Lbr_obs.Trace.Context.t option }
  | Finished of status

type runner_ctx = {
  job_id : string;
  should_stop : unit -> bool;
  on_cancel : (unit -> unit) -> unit;
  progress : float -> int -> int -> unit;
  replay : (string, bool) Hashtbl.t;
  record : key:string -> ?latency:float -> ?retries:int -> bool -> unit;
}

type runner = runner_ctx -> Wire.spec -> (Wire.stats * string, string) result

type job = {
  id : string;
  spec : Wire.spec;
  on_event : event -> unit;
  replay_table : (string, bool) Hashtbl.t;
  cancel_requested : bool Atomic.t;
  submitted_at : float;
  mutable state : status;
  (* Latest improvement reported through the progress event stream —
     (sim_time, classes, bytes) — mirrored here (under the scheduler
     lock) so a Stats snapshot never has to ask the job itself. *)
  mutable best : (float * int * int) option;
  mutable cancel_hook : unit -> unit;  (* the runner's [on_cancel]; under the lock *)
}

type job_info = {
  info_id : string;
  info_running : bool;
  info_best : (float * int * int) option;
}

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* broadcast on any job state change *)
  pool : Pool.t;
  runner : runner;
  journal : Journal.t option;
  queue_depth : int;
  high : job Queue.t;
  normal : job Queue.t;
  table : (string, job) Hashtbl.t;  (* queued and running jobs *)
  finished : (string, status) Hashtbl.t;
      (* terminal states, for [status]/[await]: a finished job's spec,
         replay table and event handler are garbage *)
  mutable next_id : int;
  mutable queued_count : int;
  mutable running_count : int;  (* includes jobs being finalized *)
  mutable draining : bool;
  mutable shut : bool;
  (* Scheduler metrics: queue/running gauges track every transition
     under the scheduler lock; histograms record queue wait (admission →
     claim) and submitted pool sizes.  Registered by [create], not
     lazily: pool domains would race to force a lazy, and the loser
     raises [Lazy.Undefined]. *)
  m_submitted : Lbr_obs.Metrics.counter;
  m_rejected : Lbr_obs.Metrics.counter;
  m_done : Lbr_obs.Metrics.counter;
  m_failed : Lbr_obs.Metrics.counter;
  m_cancelled : Lbr_obs.Metrics.counter;
  m_queue_depth : Lbr_obs.Metrics.gauge;
  m_running : Lbr_obs.Metrics.gauge;
  m_queue_wait : Lbr_obs.Metrics.histogram;
  m_job_bytes : Lbr_obs.Metrics.histogram;
}

let create ?threads ~runner ~jobs ~queue_depth ?journal () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs must be >= 1";
  if queue_depth < 1 then invalid_arg "Scheduler.create: queue_depth must be >= 1";
  let next_id =
    match journal with Some j -> Journal.max_job_number j + 1 | None -> 1
  in
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    pool = Pool.create ?threads ~jobs ();
    runner;
    journal;
    queue_depth;
    high = Queue.create ();
    normal = Queue.create ();
    table = Hashtbl.create 64;
    finished = Hashtbl.create 64;
    next_id;
    queued_count = 0;
    running_count = 0;
    draining = false;
    shut = false;
    m_submitted = Lbr_obs.Metrics.counter ~help:"Jobs admitted." "lbr_jobs_submitted_total";
    m_rejected =
      Lbr_obs.Metrics.counter ~help:"Jobs rejected by backpressure." "lbr_jobs_rejected_total";
    m_done = Lbr_obs.Metrics.counter ~help:"Jobs completed successfully." "lbr_jobs_done_total";
    m_failed = Lbr_obs.Metrics.counter ~help:"Jobs that failed." "lbr_jobs_failed_total";
    m_cancelled = Lbr_obs.Metrics.counter ~help:"Jobs cancelled." "lbr_jobs_cancelled_total";
    m_queue_depth = Lbr_obs.Metrics.gauge ~help:"Jobs waiting in the queue." "lbr_queue_depth";
    m_running = Lbr_obs.Metrics.gauge ~help:"Jobs currently running." "lbr_running_jobs";
    m_queue_wait =
      Lbr_obs.Metrics.histogram ~help:"Seconds between admission and dispatch."
        "lbr_queue_wait_seconds";
    m_job_bytes =
      Lbr_obs.Metrics.histogram ~help:"Submitted pool size in bytes." ~lo:64. ~growth:4.0
        ~buckets:16 "lbr_job_pool_bytes";
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Journal marker, terminal event, then state change + wake-up.  The
   event is delivered while the job still counts as running and before
   [await]/[drain] can observe the terminal state — so a drain returning
   means every Result/Job_failed frame has already been handed to its
   connection.  The event runs outside the scheduler lock (handlers write
   to sockets) and its exceptions are contained. *)
let finalize t job status =
  (match t.journal with
  | None -> ()
  | Some j -> (
      match status with
      | Done _ -> Journal.mark_done j ~id:job.id
      | Cancelled -> Journal.mark_cancelled j ~id:job.id
      | Failed reason -> Journal.mark_failed j ~id:job.id ~reason
      | Queued | Running -> ()));
  Lbr_obs.Flight.transition ~job:job.id
    ~state:
      (match status with
      | Done _ -> "done"
      | Failed _ -> "failed"
      | Cancelled -> "cancelled"
      | Queued -> "queued"
      | Running -> "running");
  (try job.on_event (Finished status) with _ -> ());
  (match status with
  | Done _ -> Lbr_obs.Metrics.incr t.m_done
  | Failed _ -> Lbr_obs.Metrics.incr t.m_failed
  | Cancelled -> Lbr_obs.Metrics.incr t.m_cancelled
  | Queued | Running -> ());
  locked t (fun () ->
      Hashtbl.remove t.table job.id;
      Hashtbl.replace t.finished job.id status;
      t.running_count <- t.running_count - 1;
      Lbr_obs.Metrics.set_gauge t.m_running (float_of_int t.running_count);
      Condition.broadcast t.cond)

let run_hook hook = try hook () with _ -> ()

let run_job t job =
  job.on_event Started;
  let ctx =
    {
      job_id = job.id;
      should_stop = (fun () -> Atomic.get job.cancel_requested);
      on_cancel =
        (fun hook ->
          (* Registration and [cancel] meet under the lock, so a cancel
             that races the registration reaches the hook exactly once:
             either [cancel] finds it stored, or it runs here. *)
          let cancelled =
            locked t (fun () ->
                let cancelled = Atomic.get job.cancel_requested in
                if not cancelled then job.cancel_hook <- hook;
                cancelled)
          in
          if cancelled then run_hook hook);
      progress =
        (fun sim_time classes bytes ->
          (* Mirror the improvement for Stats snapshots before forwarding
             it — introspection rides the existing event stream, nothing
             polls the job. *)
          locked t (fun () -> job.best <- Some (sim_time, classes, bytes));
          job.on_event (Progress { sim_time; classes; bytes }));
      replay = job.replay_table;
      record =
        (fun ~key ?latency ?retries ok ->
          (* WAL first, then stream: a Verdict frame must never name an
             evaluation the journal could still lose. *)
          (match t.journal with
          | Some j -> Journal.append_pred j ~id:job.id ~key ?latency ?retries ok
          | None -> ());
          try job.on_event (Evaluated { key; ok; ctx = job.spec.Wire.trace_ctx })
          with _ -> ());
    }
  in
  (* A job runs as one pool task on one domain, so the domain-local counter
     delta is exactly this job's phase timing.  (Jobs on [~threads:true]
     share a domain, but that runner — the coordinator's — times no
     phases, and an empty delta writes no file.) *)
  let counters_before = Lbr_logic.Perf.snapshot_local () in
  let status =
    (* The job's trace context is installed for the whole run: every span
       the runner (and anything it calls — oracle, frontends, speculative
       workers) records on this domain carries the job's trace id and the
       admitting node's job span as parent. *)
    Lbr_obs.Trace.with_context job.spec.Wire.trace_ctx @@ fun () ->
    Lbr_obs.Trace.with_span "scheduler.job"
      ~args:(fun () -> [ ("job", Lbr_obs.Trace.Str job.id) ])
    @@ fun () ->
    match t.runner ctx job.spec with
    | Ok (stats, pool_bytes) -> Done (stats, pool_bytes)
    | Error reason -> Failed reason
    | exception Lbr_frontend.Run.Cancelled -> Cancelled
    | exception exn -> Failed (Printexc.to_string exn)
  in
  (match t.journal with
  | None -> ()
  | Some j ->
      let rows =
        Lbr_logic.Perf.since ~before:counters_before
          ~after:(Lbr_logic.Perf.snapshot_local ())
      in
      if rows <> [] then
        Journal.record_counters j ~id:job.id
          ~contents:(Lbr_logic.Perf.serialize rows));
  finalize t job status

(* One dispatch token is pool-submitted per admission; each token claims
   the best-priority job waiting at execution time.  Jobs cancelled while
   queued are finalized here (cheaply, without running), and the token
   moves on — token count stays equal to admission count, so every queued
   job is eventually claimed and no token is ever short a job. *)
let rec dispatch t () =
  let claim () =
    let q =
      if not (Queue.is_empty t.high) then Some t.high
      else if not (Queue.is_empty t.normal) then Some t.normal
      else None
    in
    match q with
    | None -> None
    | Some q ->
        let job = Queue.pop q in
        t.queued_count <- t.queued_count - 1;
        t.running_count <- t.running_count + 1;
        Lbr_obs.Metrics.set_gauge t.m_queue_depth (float_of_int t.queued_count);
        Lbr_obs.Metrics.set_gauge t.m_running (float_of_int t.running_count);
        if Atomic.get job.cancel_requested then Some (job, `Discard)
        else begin
          job.state <- Running;
          Some (job, `Run)
        end
  in
  match locked t claim with
  | None -> ()
  | Some (job, `Discard) ->
      finalize t job Cancelled;
      dispatch t ()
  | Some (job, `Run) ->
      let claimed_at = Lbr_obs.Trace.now () in
      Lbr_obs.Flight.transition ~job:job.id ~state:"running";
      Lbr_obs.Metrics.observe t.m_queue_wait (claimed_at -. job.submitted_at);
      Lbr_obs.Trace.span_between "scheduler.queue-wait" ~start:job.submitted_at
        ~finish:claimed_at
        ~args:(fun () -> [ ("job", Lbr_obs.Trace.Str job.id) ]);
      run_job t job

let enqueue_locked t job =
  Hashtbl.replace t.table job.id job;
  Queue.push job (match job.spec.Wire.priority with High -> t.high | Normal -> t.normal);
  t.queued_count <- t.queued_count + 1;
  Lbr_obs.Metrics.set_gauge t.m_queue_depth (float_of_int t.queued_count)

let retry_after t = 1.0 +. (float_of_int t.queued_count /. float_of_int (Pool.jobs t.pool))

let submit t ?(on_event = fun (_ : string) (_ : event) -> ()) ?(seeds = []) spec =
  (* First admitting node mints the job's trace context (the coordinator
     did it already for delegated jobs).  Only when tracing is live: an
     untraced job records no spans for a context to parent. *)
  let spec =
    if spec.Wire.trace_ctx = None && Lbr_obs.Trace.enabled () then
      { spec with Wire.trace_ctx = Some (Lbr_obs.Trace.Context.mint ()) }
    else spec
  in
  let admitted =
    locked t (fun () ->
        if t.draining || t.shut then Error `Draining
        else if t.queued_count >= t.queue_depth then begin
          Lbr_obs.Metrics.incr t.m_rejected;
          Error (`Queue_full (retry_after t))
        end
        else begin
          let id = Printf.sprintf "job-%06d" t.next_id in
          t.next_id <- t.next_id + 1;
          (* Seeds land in the same replay table journal recovery fills:
             the runner cannot tell a journal-replayed verdict from a
             cluster-cache one, which is exactly the point. *)
          let replay_table = Hashtbl.create (max 16 (List.length seeds)) in
          List.iter (fun (key, ok) -> Hashtbl.replace replay_table key ok) seeds;
          let job =
            {
              id;
              spec;
              on_event = (fun ev -> on_event id ev);
              replay_table;
              cancel_requested = Atomic.make false;
              submitted_at = Lbr_obs.Trace.now ();
              state = Queued;
              best = None;
              cancel_hook = ignore;
            }
          in
          Lbr_obs.Metrics.incr t.m_submitted;
          Lbr_obs.Metrics.observe t.m_job_bytes
            (float_of_int (String.length spec.Wire.pool_bytes));
          (* WAL before the job becomes claimable: the spec must be on
             disk (and its journal directory exist, for [append_pred])
             before any dispatch token can start running it. *)
          (match t.journal with
          | Some j -> Journal.record_job j ~id ~spec:(Wire.spec_to_string spec)
          | None -> ());
          Lbr_obs.Flight.transition ~job:id ~state:"queued";
          enqueue_locked t job;
          Ok id
        end)
  in
  match admitted with
  | Error _ as e -> e
  | Ok id ->
      ignore (Pool.submit t.pool (dispatch t) : unit Pool.future);
      Ok id

let cancel t id =
  let hook =
    locked t (fun () ->
        Option.map
          (fun job ->
            Atomic.set job.cancel_requested true;
            job.cancel_hook)
          (Hashtbl.find_opt t.table id))
  in
  (* Outside the lock: a hook may do network I/O (the coordinator's
     remote cancel). *)
  Option.iter run_hook hook;
  Option.is_some hook

let status t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.table id with
      | Some job -> Some job.state
      | None -> Hashtbl.find_opt t.finished id)

let await t id =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let rec loop () =
        match Hashtbl.find_opt t.finished id with
        | Some s -> s
        | None ->
            if not (Hashtbl.mem t.table id) then
              invalid_arg ("Scheduler.await: unknown job " ^ id);
            Condition.wait t.cond t.mutex;
            loop ()
      in
      loop ())

let recover t =
  match t.journal with
  | None -> 0
  | Some j ->
      let resumed =
        List.filter_map
          (fun (id, spec_bytes) ->
            match Wire.spec_of_string spec_bytes with
            | Error reason ->
                Journal.mark_failed j ~id ~reason:("corrupt journaled spec: " ^ reason);
                None
            | Ok spec ->
                let replay_table = Journal.replay j ~id in
                let job =
                  {
                    id;
                    spec;
                    on_event = (fun _ -> ());
                    replay_table;
                    cancel_requested = Atomic.make false;
                    submitted_at = Lbr_obs.Trace.now ();
                    state = Queued;
                    best = None;
                    cancel_hook = ignore;
                  }
                in
                Some job)
          (Journal.pending j)
      in
      locked t (fun () -> List.iter (enqueue_locked t) resumed);
      List.iter (fun _ -> ignore (Pool.submit t.pool (dispatch t) : unit Pool.future)) resumed;
      List.length resumed

let queued t = locked t (fun () -> t.queued_count)
let running t = locked t (fun () -> t.running_count)

(* Every non-terminal job, in id order.  Consistent under the scheduler
   lock: a job is either here or has delivered its terminal event. *)
let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ job acc ->
          { info_id = job.id; info_running = job.state = Running; info_best = job.best } :: acc)
        t.table [])
  |> List.sort (fun a b -> String.compare a.info_id b.info_id)

let drain t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      t.draining <- true;
      while t.queued_count + t.running_count > 0 do
        Condition.wait t.cond t.mutex
      done)

let shutdown t =
  drain t;
  let already = locked t (fun () -> let s = t.shut in t.shut <- true; s) in
  if not already then Pool.shutdown t.pool
