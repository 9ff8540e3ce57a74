(* The daemon front end is split from what it fronts: a [backend] is
   anything that can admit, cancel and introspect jobs — the scheduler
   (lbr-serve) or the cluster coordinator (lbr-reduce coordinate).  The
   accept loop, per-connection protocol and lifecycle are identical for
   both. *)

type backend = {
  b_submit :
    on_event:(string -> Scheduler.event -> unit) ->
    seeds:(string * bool) list ->
    Wire.spec ->
    (string, [ `Queue_full of float | `Draining ]) result;
  b_cancel : string -> bool;
  b_stats : unit -> Wire.daemon_stats;
  b_drain : unit -> unit;
}

type config = {
  listen : Addr.t;
  jobs : int;
  queue_depth : int;
  journal_dir : string option;
}

type t = {
  listen_addr : Addr.t;
  backend : backend;
  scheduler : Scheduler.t option;  (* Some for scheduler-backed daemons *)
  journal : Journal.t option;
  listen_fd : Unix.file_descr;
  recovered : int;
  started_at : float;
  stop_flag : bool Atomic.t;
  stopped : bool Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : Unix.file_descr list;  (* live connection fds *)
  mutable accept_thread : Thread.t option;
}

let scheduler t =
  match t.scheduler with
  | Some s -> s
  | None -> invalid_arg "Server.scheduler: backend-served daemon has no scheduler"

let recovered t = t.recovered

(* The address the kernel actually bound — differs from the configured
   one only for TCP port 0, where it carries the chosen port. *)
let bound_addr t =
  match t.listen_addr with
  | Addr.Unix_path _ as a -> a
  | Addr.Tcp (host, _) -> Addr.Tcp (host, Addr.bound_port t.listen_fd)

(* One consistent introspection snapshot: scheduler view under its lock
   and the full metric registry rendered as Prometheus text.  Built
   entirely from state the event stream already maintains — nothing
   reaches into running jobs. *)
let scheduler_stats scheduler started_at () =
  let jobs = Scheduler.snapshot scheduler in
  {
    Wire.queued_jobs = List.length (List.filter (fun j -> not j.Scheduler.info_running) jobs);
    running_jobs = List.length (List.filter (fun j -> j.Scheduler.info_running) jobs);
    job_stats =
      List.map
        (fun (j : Scheduler.job_info) ->
          { Wire.js_id = j.info_id; js_running = j.info_running; js_best = j.info_best })
        jobs;
    uptime = Unix.gettimeofday () -. started_at;
    metrics_text = Lbr_obs.Metrics.render_prometheus ();
  }

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping                                              *)

let register_conn t fd =
  Mutex.lock t.conns_mutex;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.conns_mutex

(* Whoever removes the fd from the registry closes it — exactly once,
   whether that is the handler thread (peer closed / protocol error) or
   {!stop} sweeping all live connections. *)
let forget_conn t fd =
  Mutex.lock t.conns_mutex;
  let present = List.memq fd t.conns in
  if present then t.conns <- List.filter (fun fd' -> fd' != fd) t.conns;
  Mutex.unlock t.conns_mutex;
  if present then begin
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Per-connection protocol                                             *)

(* All frames on one connection — synchronous replies from this thread,
   streamed job events from worker domains — go through [send], serialized
   by a per-connection mutex.  A write failure (peer gone) is swallowed;
   the read loop will see the close. *)
let handle_connection t fd =
  let write_mutex = Mutex.create () in
  let send msg =
    Mutex.lock write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock write_mutex)
      (fun () -> try Wire.write_message fd msg with Unix.Unix_error _ | Sys_error _ -> ())
  in
  let fatal reason =
    send (Wire.Protocol_error reason);
    forget_conn t fd
  in
  (* The handshake first: anything else is a protocol error. *)
  match Wire.read_message fd with
  | Error `Closed -> forget_conn t fd
  | Error (`Malformed m) -> fatal ("malformed hello: " ^ m)
  | Ok (Wire.Hello v) when v = Wire.protocol_version ->
      send (Wire.Hello_ok v);
      let on_event job_id (ev : Scheduler.event) =
        match ev with
        | Scheduler.Started -> ()
        | Scheduler.Progress { sim_time; classes; bytes } ->
            send (Wire.Progress { job_id; sim_time; classes; bytes })
        | Scheduler.Evaluated { key; ok; ctx } -> send (Wire.Verdict { job_id; key; ok; ctx })
        | Scheduler.Finished (Scheduler.Done (stats, pool_bytes)) ->
            send (Wire.Result { job_id; stats; pool_bytes })
        | Scheduler.Finished (Scheduler.Failed reason) ->
            send (Wire.Job_failed { job_id; reason })
        | Scheduler.Finished Scheduler.Cancelled ->
            send (Wire.Job_failed { job_id; reason = "cancelled" })
        | Scheduler.Finished (Scheduler.Queued | Scheduler.Running) -> ()
      in
      let admit spec seeds =
        (* The admission reply must reach the wire before any event
           frame for the new job: a worker can run a small job to
           completion before this thread regains the CPU, and its
           [Result] would otherwise overtake [Accepted].  Events for
           the new job are therefore parked behind a per-admission gate
           that opens only once the reply is written.  The write lock
           is deliberately NOT held across [b_submit]: backends deliver
           events under their own locks, so holding it here orders the
           two locks against each other — and a backend that finalizes
           synchronously from submission (the coordinator with no live
           workers) would relock [write_mutex] on this very thread.
           Such same-thread deliveries are buffered and flushed, in
           order, right after the reply. *)
        let gate = Mutex.create () in
        let gate_cond = Condition.create () in
        let replied = ref false in
        let parked = ref [] in  (* same-thread events, reversed *)
        let submitter = Thread.id (Thread.self ()) in
        let gated_on_event job_id ev =
          let deliver =
            Mutex.lock gate;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock gate)
              (fun () ->
                if !replied then true
                else if Thread.id (Thread.self ()) = submitter then begin
                  parked := (job_id, ev) :: !parked;
                  false
                end
                else begin
                  while not !replied do
                    Condition.wait gate_cond gate
                  done;
                  true
                end)
          in
          if deliver then on_event job_id ev
        in
        Fun.protect
          ~finally:(fun () ->
            (* Flush while holding the gate so a concurrent waiter
               cannot overtake a parked (necessarily terminal) event;
               open it even if [b_submit] raised, or waiters leak. *)
            Mutex.lock gate;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock gate)
              (fun () ->
                List.iter (fun (job_id, ev) -> on_event job_id ev) (List.rev !parked);
                parked := [];
                replied := true;
                Condition.broadcast gate_cond))
          (fun () ->
            let reply =
              match t.backend.b_submit ~on_event:gated_on_event ~seeds spec with
              | Ok id -> Wire.Accepted id
              | Error (`Queue_full retry_after) ->
                  Wire.Rejected { reason = "queue full"; retry_after }
              | Error `Draining -> Wire.Rejected { reason = "draining"; retry_after = 0. }
            in
            send reply)
      in
      let rec loop () =
        match Wire.read_message fd with
        | Error `Closed -> forget_conn t fd
        | Error (`Malformed m) -> fatal ("malformed frame: " ^ m)
        | Ok (Wire.Submit spec) ->
            admit spec [];
            loop ()
        | Ok (Wire.Submit_seeded { spec; seeds }) ->
            admit spec seeds;
            loop ()
        | Ok (Wire.Cancel job_id) ->
            send (Wire.Cancel_ok { job_id; found = t.backend.b_cancel job_id });
            loop ()
        | Ok Wire.Stats_request ->
            send (Wire.Stats_reply (t.backend.b_stats ()));
            loop ()
        | Ok Wire.Trace_dump_request ->
            send
              (Wire.Trace_dump_reply
                 {
                   Wire.node = Addr.to_string (bound_addr t);
                   epoch = Lbr_obs.Trace.epoch_seconds ();
                   server_now = Unix.gettimeofday ();
                   dropped = Lbr_obs.Trace.dropped ();
                   events = Lbr_obs.Trace.events ();
                 });
            loop ()
        | Ok Wire.Metrics_dump_request ->
            send
              (Wire.Metrics_dump_reply
                 {
                   node = Addr.to_string (bound_addr t);
                   dump = Lbr_obs.Metrics.dump ();
                 });
            loop ()
        | Ok (Wire.Hello _) -> fatal "duplicate hello"
        | Ok _ -> fatal "unexpected server-side message kind"
      in
      loop ()
  | Ok (Wire.Hello v) ->
      fatal
        (Printf.sprintf "unsupported protocol version %d (this server speaks %d)" v
           Wire.protocol_version)
  | Ok _ -> fatal "expected hello"

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              register_conn t fd;
              ignore
                (Thread.create
                   (fun () ->
                     try handle_connection t fd with _ -> forget_conn t fd)
                   ()
                  : Thread.t)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)

let start_backend ?scheduler ?journal ?(recovered = 0) ~listen backend =
  (* A client closing mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Addr.listen listen in
  let t =
    {
      listen_addr = listen;
      backend;
      scheduler;
      journal;
      listen_fd;
      recovered;
      started_at = Unix.gettimeofday ();
      stop_flag = Atomic.make false;
      stopped = Atomic.make false;
      conns_mutex = Mutex.create ();
      conns = [];
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let start config =
  let journal = Option.map Journal.open_dir config.journal_dir in
  let scheduler =
    Scheduler.create ~runner:Runner.reduce ~jobs:config.jobs
      ~queue_depth:config.queue_depth ?journal ()
  in
  let recovered = Scheduler.recover scheduler in
  let started_at = Unix.gettimeofday () in
  let backend =
    {
      b_submit =
        (fun ~on_event ~seeds spec -> Scheduler.submit scheduler ~on_event ~seeds spec);
      b_cancel = Scheduler.cancel scheduler;
      b_stats = scheduler_stats scheduler started_at;
      b_drain = (fun () -> Scheduler.shutdown scheduler);
    }
  in
  match start_backend ~scheduler ?journal ~recovered ~listen:config.listen backend with
  | t -> t
  | exception e ->
      Scheduler.shutdown scheduler;
      (match journal with Some j -> Journal.close j | None -> ());
      raise e

let close_all_conns t =
  Mutex.lock t.conns_mutex;
  let conns = t.conns in
  t.conns <- [];
  Mutex.unlock t.conns_mutex;
  List.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    conns

let unlink_unix_path t =
  match t.listen_addr with
  | Addr.Unix_path p -> (
      try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | Addr.Tcp _ -> ()

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stop_flag true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    unlink_unix_path t;
    (* Every in-flight job finishes and its terminal frame is written
       (finalize delivers events before drain can observe completion). *)
    t.backend.b_drain ();
    close_all_conns t;
    match t.journal with Some j -> Journal.close j | None -> ()
  end

(* The opposite of a graceful [stop]: drop everything on the floor, the
   way kill -9 would.  Jobs already running on worker domains keep
   running detached (domains cannot be killed from OCaml) — their event
   frames land on closed sockets and are swallowed — but no new frame
   leaves this daemon and no drain happens.  Tests use this to exercise
   the coordinator's failover without forking a process to kill. *)
let abort t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stop_flag true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    unlink_unix_path t;
    close_all_conns t
  end

let run ?shutdown config =
  let shutdown = match shutdown with Some s -> s | None -> Shutdown.install () in
  let t = start config in
  Shutdown.on_drain shutdown (fun () -> stop t);
  while not (Shutdown.requested shutdown) do
    Thread.delay 0.1
  done;
  Shutdown.run_drain shutdown
