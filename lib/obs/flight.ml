(* Crash flight recorder: an always-on bounded ring of the most recent
   spans plus the last K job state transitions, dumped to the journal
   directory when the process dies badly (SIGSEGV, uncaught exception)
   or is asked to stop (the daemons call [dump] from their SIGTERM drain
   hook).  A dump is a .tdump capture plus a metric dump, so `lbr-reduce
   report` and `trace-merge` read it with the codecs they already use.

   Span capture rides {!Trace.set_flight_hook}: while armed, every span
   and instant is mirrored here, timed from the arm instant, even when
   classic tracing is off — so a crash of an untraced production daemon
   still leaves the last window of evidence.  The hook path is a mutex +
   two array stores; the rings are small by design (the point is the
   last few hundred events, not a full trace). *)

type ring = {
  buf : Trace.event array;
  mutable first : int;
  mutable count : int;
  mutable dropped : int;  (* events overwritten because the ring was full *)
}

type t = {
  mutex : Mutex.t;
  node : string;
  dir : string;
  epoch : float;  (* arm time: the capture's ts = 0 *)
  spans : ring;
  transitions : ring;  (* job.state instants *)
}

(* Single armed recorder per process, like the metrics registry. *)
let current : t option ref = ref None
let armed () = !current <> None

let push t ring ev =
  Mutex.lock t.mutex;
  let cap = Array.length ring.buf in
  if ring.count = cap then begin
    ring.buf.(ring.first) <- ev;
    ring.first <- (ring.first + 1) mod cap;
    ring.dropped <- ring.dropped + 1
  end
  else begin
    ring.buf.((ring.first + ring.count) mod cap) <- ev;
    ring.count <- ring.count + 1
  end;
  Mutex.unlock t.mutex

let contents ring =
  List.init ring.count (fun i -> ring.buf.((ring.first + i) mod Array.length ring.buf))

let event t ~name ~ph ~t0 ~t1 ~args =
  {
    Trace.ev_name = name;
    ev_ph = ph;
    ev_ts = (t0 -. t.epoch) *. 1e6;
    ev_dur = (t1 -. t0) *. 1e6;
    ev_tid = (Domain.self () :> int);
    ev_args = args;
  }

let instant t name ~at args = event t ~name ~ph:'i' ~t0:at ~t1:at ~args

let transition ~job ~state =
  match !current with
  | None -> ()
  | Some t ->
      push t t.transitions
        (instant t "job.state" ~at:(Unix.gettimeofday ())
           [ ("job", Trace.Str job); ("state", Trace.Str state) ])

let capture t ~reason =
  let now = Unix.gettimeofday () in
  Mutex.lock t.mutex;
  let spans = contents t.spans and transitions = contents t.transitions in
  let dropped = t.spans.dropped + t.transitions.dropped in
  Mutex.unlock t.mutex;
  {
    Tdump.nd_node = t.node;
    nd_epoch = t.epoch;
    nd_server_now = now;
    nd_client_mid = now;
    nd_dropped = dropped;
    nd_events =
      spans @ transitions
      @ [
          instant t "flight.dump" ~at:now
            [ ("reason", Trace.Str reason); ("pid", Trace.Int (Unix.getpid ())) ];
        ];
  }

let metrics_file path = Filename.remove_extension path ^ ".metrics"

(* tmp + rename: a process killed mid-dump leaves no torn file. *)
let write_atomic path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc data;
      close_out oc);
  Sys.rename tmp path

(* The metric dump lands first, so a .tdump never names a missing one. *)
let dump_t t ~reason =
  let path =
    Filename.concat t.dir (Printf.sprintf "flight-%d-%s.tdump" (Unix.getpid ()) reason)
  in
  write_atomic (metrics_file path) (Metrics.encode_dump (Metrics.dump ()));
  write_atomic path (Tdump.to_string (capture t ~reason));
  path

let dump ~reason =
  match !current with
  | None -> None
  | Some t -> ( try Some (dump_t t ~reason) with _ -> None)

let read path =
  Result.bind (Tdump.read_file path) (fun capture ->
      match In_channel.with_open_bin (metrics_file path) In_channel.input_all with
      | exception Sys_error m -> Error m
      | data -> (
          match Metrics.decode_dump data with
          | Ok metrics -> Ok (capture, metrics)
          | Error m -> Error ("metric dump: " ^ m)))

let install_crash_handlers () =
  (* SIGSEGV delivery after real memory corruption may not survive long
     enough to write the dump — this is strictly best-effort, and the
     common OCaml case (stack overflow mapped to sigsegv) does work. *)
  (try
     Sys.set_signal Sys.sigsegv
       (Sys.Signal_handle
          (fun _ ->
            ignore (dump ~reason:"sigsegv");
            exit 139))
   with Invalid_argument _ | Sys_error _ -> ());
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      ignore (dump ~reason:"uncaught-exn");
      Printexc.default_uncaught_exception_handler exn bt)

let arm ?(node = Printf.sprintf "pid-%d" (Unix.getpid ())) ?(spans = 512)
    ?(transitions = 256) ~dir () =
  if spans < 1 || transitions < 1 then invalid_arg "Flight.arm: capacities must be >= 1";
  (match Sys.is_directory dir with
  | true -> ()
  | false -> invalid_arg (Printf.sprintf "Flight.arm: %s is not a directory" dir)
  | exception Sys_error _ -> Unix.mkdir dir 0o755);
  let ring capacity =
    {
      buf =
        Array.make capacity
          Trace.{ ev_name = ""; ev_ph = 'i'; ev_ts = 0.; ev_dur = 0.; ev_tid = 0; ev_args = [] };
      first = 0;
      count = 0;
      dropped = 0;
    }
  in
  let t =
    {
      mutex = Mutex.create ();
      node;
      dir;
      epoch = Unix.gettimeofday ();
      spans = ring spans;
      transitions = ring transitions;
    }
  in
  current := Some t;
  Trace.set_flight_hook
    (Some (fun ~name ~ph ~t0 ~t1 ~args -> push t t.spans (event t ~name ~ph ~t0 ~t1 ~args)));
  install_crash_handlers ()

let disarm () =
  Trace.set_flight_hook None;
  current := None
