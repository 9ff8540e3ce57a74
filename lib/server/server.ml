(* The daemon front end serves one {!Scheduler}: the daemon's
   (lbr-reduce serve) with the local runner, or the cluster coordinator's
   (lbr-reduce coordinate) with its remote one.  The accept loop,
   per-connection protocol and lifecycle are identical for both; only the
   metric views in [Stats_reply] differ, and the caller supplies them. *)

type config = {
  listen : Addr.t;
  jobs : int;
  queue_depth : int;
  journal_dir : string option;
}

type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  mutable closed : bool;  (* under [write_mutex] *)
}

type t = {
  listen_addr : Addr.t;
  scheduler : Scheduler.t;
  metrics : unit -> (string * Lbr_obs.Metrics.dump) list;
  journal : Journal.t option;  (* owned: closed by [stop] *)
  listen_fd : Unix.file_descr;
  recovered : int;
  started_at : float;
  stop_flag : bool Atomic.t;
  stopped : bool Atomic.t;
  conns_mutex : Mutex.t;
  mutable conns : conn list;  (* live connections *)
  mutable accept_thread : Thread.t option;
}

let scheduler t = t.scheduler
let recovered t = t.recovered
let metrics t = t.metrics ()

(* The address the kernel actually bound — differs from the configured
   one only for TCP port 0, where it carries the chosen port. *)
let bound_addr t =
  match t.listen_addr with
  | Addr.Unix_path _ as a -> a
  | Addr.Tcp (host, _) -> Addr.Tcp (host, Addr.bound_port t.listen_fd)

(* One consistent introspection snapshot: scheduler view under its lock
   and the metric views.  Built entirely from state the event stream
   already maintains — nothing reaches into running jobs. *)
let stats t =
  let jobs = Scheduler.snapshot t.scheduler in
  {
    Wire.queued_jobs = List.length (List.filter (fun j -> not j.Scheduler.info_running) jobs);
    running_jobs = List.length (List.filter (fun j -> j.Scheduler.info_running) jobs);
    job_stats =
      List.map
        (fun (j : Scheduler.job_info) ->
          { Wire.js_id = j.info_id; js_running = j.info_running; js_best = j.info_best })
        jobs;
    uptime = Unix.gettimeofday () -. t.started_at;
    node = Addr.to_string (bound_addr t);
    metrics = metrics t;
  }

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping                                              *)

(* A connection's fd is closed only by its handler thread, after its
   last read, and under the write lock: [stop] and [abort] just shut it
   down, which wakes that read.  Job events can outlive the connection
   (a job keeps running when its client goes away), so [send] checks
   [closed] under the same lock — a late frame is dropped instead of
   landing on whatever socket has reused the fd number. *)
let hang_up c = try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send c msg =
  Mutex.protect c.write_mutex (fun () ->
      if not c.closed then
        try Wire.write_message c.fd msg with Unix.Unix_error _ | Sys_error _ -> ())

let close_conn t c =
  Mutex.protect t.conns_mutex (fun () -> t.conns <- List.filter (fun c' -> c' != c) t.conns);
  Mutex.protect c.write_mutex (fun () ->
      if not c.closed then begin
        c.closed <- true;
        hang_up c;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end)

(* ------------------------------------------------------------------ *)
(* Per-connection protocol                                             *)

(* All frames on one connection — synchronous replies from this thread,
   streamed job events from worker domains — go through [send], serialized
   by the connection's write lock.  A write failure (peer gone) is
   swallowed; the read loop will see the close.  Returning ends the
   connection (the caller closes it). *)
let handle_connection t c =
  let fd = c.fd in
  let send = send c in
  let fatal reason = send (Wire.Protocol_error reason) in
  (* The handshake first: anything else is a protocol error. *)
  match Wire.read_message fd with
  | Error `Closed -> ()
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
      in
      let admit spec seeds =
        (* The admission reply must reach the wire before any event
           frame for the new job: a pool domain can run a small job to
           completion before this thread regains the CPU, and its
           [Result] would otherwise overtake [Accepted].  Events for the
           new job therefore wait behind a per-admission gate that opens
           once the reply is written.  [Scheduler.submit] never delivers
           an event on the submitting thread, so nothing can wait on the
           gate from here. *)
        let gate = Mutex.create () in
        let gate_cond = Condition.create () in
        let replied = ref false in
        let gated_on_event job_id ev =
          Mutex.protect gate (fun () ->
              while not !replied do
                Condition.wait gate_cond gate
              done);
          on_event job_id ev
        in
        Fun.protect
          ~finally:(fun () ->
            (* open it even if [submit] raised, or waiters leak *)
            Mutex.protect gate (fun () ->
                replied := true;
                Condition.broadcast gate_cond))
          (fun () ->
            let reply =
              match Scheduler.submit t.scheduler ~on_event:gated_on_event ~seeds spec with
              | Ok id -> Wire.Accepted id
              | Error (`Queue_full retry_after) ->
                  Wire.Rejected { reason = "queue full"; retry_after }
              | Error `Draining -> Wire.Rejected { reason = "draining"; retry_after = 0. }
            in
            send reply)
      in
      let rec loop () =
        match Wire.read_message fd with
        | Error `Closed -> ()
        | Error (`Malformed m) -> fatal ("malformed frame: " ^ m)
        | Ok (Wire.Submit spec) ->
            admit spec [];
            loop ()
        | Ok (Wire.Submit_seeded { spec; seeds }) ->
            admit spec seeds;
            loop ()
        | Ok (Wire.Cancel job_id) ->
            send (Wire.Cancel_ok { job_id; found = Scheduler.cancel t.scheduler job_id });
            loop ()
        | Ok Wire.Stats_request ->
            send (Wire.Stats_reply (stats t));
            loop ()
        | Ok Wire.Trace_dump_request ->
            send
              (let now = Unix.gettimeofday () in
               Wire.Trace_dump_reply
                 {
                   Lbr_obs.Tdump.nd_node = Addr.to_string (bound_addr t);
                   nd_epoch = Lbr_obs.Trace.epoch_seconds ();
                   nd_server_now = now;
                   nd_client_mid = now;
                   nd_dropped = Lbr_obs.Trace.dropped ();
                   nd_events = Lbr_obs.Trace.events ();
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
          match Addr.accept t.listen_fd with
          | fd ->
              let c = { fd; write_mutex = Mutex.create (); closed = false } in
              Mutex.protect t.conns_mutex (fun () -> t.conns <- c :: t.conns);
              ignore
                (Thread.create
                   (fun () ->
                     (try handle_connection t c with _ -> ());
                     close_conn t c)
                   ()
                  : Thread.t)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)

let listen_on ?journal ?(recovered = 0)
    ?(metrics = fun () -> [ ("", Lbr_obs.Metrics.dump ()) ]) ~listen scheduler =
  (* A client closing mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Addr.listen listen in
  let t =
    {
      listen_addr = listen;
      scheduler;
      metrics;
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

let serve ?metrics ~listen scheduler = listen_on ?metrics ~listen scheduler

let start config =
  let journal = Option.map Journal.open_dir config.journal_dir in
  let scheduler =
    Scheduler.create ~runner:Runner.reduce ~jobs:config.jobs
      ~queue_depth:config.queue_depth ?journal ()
  in
  let recovered = Scheduler.recover scheduler in
  match listen_on ?journal ~recovered ~listen:config.listen scheduler with
  | t -> t
  | exception e ->
      Scheduler.shutdown scheduler;
      (match journal with Some j -> Journal.close j | None -> ());
      raise e

let hang_up_all t = List.iter hang_up (Mutex.protect t.conns_mutex (fun () -> t.conns))

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
    Scheduler.shutdown t.scheduler;
    hang_up_all t;
    match t.journal with Some j -> Journal.close j | None -> ()
  end

(* The opposite of a graceful [stop]: drop everything on the floor, the
   way kill -9 would.  Jobs already running on worker domains keep
   running detached (domains cannot be killed from OCaml) — their event
   frames are dropped (see [send]) — but no new frame
   leaves this daemon and no drain happens.  Tests use this to exercise
   the coordinator's failover without forking a process to kill. *)
let abort t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stop_flag true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    unlink_unix_path t;
    hang_up_all t
  end
