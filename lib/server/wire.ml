(* Frame layouts are documented in wire.mli.  Every field is always
   written; any layout change bumps [protocol_version], and the
   handshake refuses a peer on any other version. *)
open Lbr_codec.Codec

let protocol_version = 8
let max_frame = 64 * 1024 * 1024

type priority = Normal | High

type spec = {
  tool : string;
  strategy : Lbr_frontend.Run.strategy;
  priority : priority;
  crash_policy : Lbr_runtime.Oracle.crash_policy;
  retries : int;
  pool_bytes : string;
  frontend : string;
  trace_ctx : Lbr_obs.Trace.Context.t option;
}

type stats = {
  ok : bool;
  predicate_runs : int;
  replayed_runs : int;
  tool_executions : int;
  oracle_retries : int;
  oracle_crashes : int;
  sim_time : float;
  wall_time : float;
  classes0 : int;
  classes1 : int;
  bytes0 : int;
  bytes1 : int;
}

type job_stat = {
  js_id : string;
  js_running : bool;
  js_best : (float * int * int) option;
}

type daemon_stats = {
  queued_jobs : int;
  running_jobs : int;
  job_stats : job_stat list;
  uptime : float;
  node : string;
  metrics : (string * Lbr_obs.Metrics.dump) list;
}

type message =
  | Hello of int
  | Hello_ok of int
  | Submit of spec
  | Submit_seeded of { spec : spec; seeds : (string * bool) list }
  | Accepted of string
  | Rejected of { reason : string; retry_after : float }
  | Cancel of string
  | Cancel_ok of { job_id : string; found : bool }
  | Progress of { job_id : string; sim_time : float; classes : int; bytes : int }
  | Result of { job_id : string; stats : stats; pool_bytes : string }
  | Job_failed of { job_id : string; reason : string }
  | Protocol_error of string
  | Stats_request
  | Stats_reply of daemon_stats
  | Verdict of {
      job_id : string;
      key : string;
      ok : bool;
      ctx : Lbr_obs.Trace.Context.t option;
    }
  | Trace_dump_request
  | Trace_dump_reply of Lbr_obs.Tdump.node_dump

(* ------------------------------------------------------------------ *)
(* Enums                                                               *)

let strategy_code : Lbr_frontend.Run.strategy -> int = function
  | Jreduce -> 0
  | Lossy_first -> 1
  | Lossy_last -> 2
  | Gbr -> 3

let strategy_of_code : int -> Lbr_frontend.Run.strategy = function
  | 0 -> Jreduce
  | 1 -> Lossy_first
  | 2 -> Lossy_last
  | 3 -> Gbr
  | n -> fail "bad strategy %d" n

let priority_code = function Normal -> 0 | High -> 1

let priority_of_code = function
  | 0 -> Normal
  | 1 -> High
  | n -> fail "bad priority %d" n

let crash_policy_code : Lbr_runtime.Oracle.crash_policy -> int = function
  | Crash_fails -> 0
  | Crash_passes -> 1
  | Crash_raises -> 2

let crash_policy_of_code : int -> Lbr_runtime.Oracle.crash_policy = function
  | 0 -> Crash_fails
  | 1 -> Crash_passes
  | 2 -> Crash_raises
  | n -> fail "bad crash policy %d" n

(* ------------------------------------------------------------------ *)
(* Trace context — shared by the spec and the Verdict frame            *)

let w_ctx b = function
  | None -> w_bool b false
  | Some { Lbr_obs.Trace.Context.trace_id; parent_span } ->
      w_bool b true;
      w_str16 b trace_id;
      w_str16 b parent_span

let r_ctx r =
  if r_bool r then
    let trace_id = r_str16 r in
    Some { Lbr_obs.Trace.Context.trace_id; parent_span = r_str16 r }
  else None

(* ------------------------------------------------------------------ *)
(* Spec — shared by the Submit frames and the journal                  *)

let w_spec b spec =
  w_str16 b spec.tool;
  w_u8 b (strategy_code spec.strategy);
  w_u8 b (priority_code spec.priority);
  w_u8 b (crash_policy_code spec.crash_policy);
  w_u16 b spec.retries;
  w_bytes32 b spec.pool_bytes;
  w_str16 b spec.frontend;
  w_ctx b spec.trace_ctx

let r_spec r =
  let tool = r_str16 r in
  let strategy = strategy_of_code (r_u8 r) in
  let priority = priority_of_code (r_u8 r) in
  let crash_policy = crash_policy_of_code (r_u8 r) in
  let retries = r_u16 r in
  let pool_bytes = r_bytes32 r in
  let frontend = r_str16 r in
  let trace_ctx = r_ctx r in
  { tool; strategy; priority; crash_policy; retries; pool_bytes; frontend; trace_ctx }

let spec_to_string spec =
  let b = Buffer.create (String.length spec.pool_bytes + 32) in
  w_spec b spec;
  Buffer.contents b

let spec_of_string data = read data r_spec

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let w_stats b s =
  w_bool b s.ok;
  w_u32 b s.predicate_runs;
  w_u32 b s.replayed_runs;
  w_u32 b s.tool_executions;
  w_u32 b s.oracle_retries;
  w_u32 b s.oracle_crashes;
  w_f64 b s.sim_time;
  w_f64 b s.wall_time;
  w_u32 b s.classes0;
  w_u32 b s.classes1;
  w_u32 b s.bytes0;
  w_u32 b s.bytes1

let r_stats r =
  let ok = r_bool r in
  let predicate_runs = r_u32 r in
  let replayed_runs = r_u32 r in
  let tool_executions = r_u32 r in
  let oracle_retries = r_u32 r in
  let oracle_crashes = r_u32 r in
  let sim_time = r_f64 r in
  let wall_time = r_f64 r in
  let classes0 = r_u32 r in
  let classes1 = r_u32 r in
  let bytes0 = r_u32 r in
  let bytes1 = r_u32 r in
  {
    ok;
    predicate_runs;
    replayed_runs;
    tool_executions;
    oracle_retries;
    oracle_crashes;
    sim_time;
    wall_time;
    classes0;
    classes1;
    bytes0;
    bytes1;
  }

(* ------------------------------------------------------------------ *)
(* Daemon stats                                                        *)

let w_job_stat b js =
  w_str16 b js.js_id;
  w_bool b js.js_running;
  (match js.js_best with
  | None ->
      w_bool b false;
      w_f64 b 0.;
      w_u32 b 0;
      w_u32 b 0
  | Some (sim_time, classes, bytes) ->
      w_bool b true;
      w_f64 b sim_time;
      w_u32 b classes;
      w_u32 b bytes)

let r_job_stat r =
  let js_id = r_str16 r in
  let js_running = r_bool r in
  let has_best = r_bool r in
  let sim_time = r_f64 r in
  let classes = r_u32 r in
  let bytes = r_u32 r in
  { js_id; js_running; js_best = (if has_best then Some (sim_time, classes, bytes) else None) }

let w_daemon_stats b s =
  w_u32 b s.queued_jobs;
  w_u32 b s.running_jobs;
  w_u16 b (List.length s.job_stats);
  List.iter (w_job_stat b) s.job_stats;
  w_f64 b s.uptime;
  w_str16 b s.node;
  w_u16 b (List.length s.metrics);
  List.iter
    (fun (label, dump) ->
      w_str16 b label;
      w_bytes32 b (Lbr_obs.Metrics.encode_dump dump))
    s.metrics

let r_daemon_stats r =
  let queued_jobs = r_u32 r in
  let running_jobs = r_u32 r in
  let n = r_u16 r in
  let job_stats = List.init n (fun _ -> r_job_stat r) in
  let uptime = r_f64 r in
  let node = r_str16 r in
  let metrics =
    List.init (r_u16 r) (fun _ ->
        let label = r_str16 r in
        match Lbr_obs.Metrics.decode_dump (r_bytes32 r) with
        | Ok dump -> (label, dump)
        | Error m -> fail "bad metrics dump %S: %s" label m)
  in
  { queued_jobs; running_jobs; job_stats; uptime; node; metrics }

(* ------------------------------------------------------------------ *)
(* Seed tables — pre-paid verdicts shipped with a submission           *)

let w_seeds b seeds =
  w_u32 b (List.length seeds);
  List.iter
    (fun (key, ok) ->
      w_str16 b key;
      w_bool b ok)
    seeds

let r_seeds r =
  List.init (r_count r (r_u32 r)) (fun _ ->
      let key = r_str16 r in
      let ok = r_bool r in
      (key, ok))

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)

let kind_of = function
  | Hello _ -> 0x01
  | Submit _ -> 0x02
  | Cancel _ -> 0x03
  | Stats_request -> 0x04
  | Submit_seeded _ -> 0x05
  | Hello_ok _ -> 0x81
  | Accepted _ -> 0x82
  | Rejected _ -> 0x83
  | Cancel_ok _ -> 0x84
  | Progress _ -> 0x85
  | Result _ -> 0x86
  | Job_failed _ -> 0x87
  | Protocol_error _ -> 0x88
  | Stats_reply _ -> 0x89
  | Verdict _ -> 0x8A
  | Trace_dump_request -> 0x06
  | Trace_dump_reply _ -> 0x8B

let encode_payload msg =
  let b = Buffer.create 64 in
  w_u8 b (kind_of msg);
  (match msg with
  | Hello v | Hello_ok v -> w_u16 b v
  | Submit spec -> w_spec b spec
  | Submit_seeded { spec; seeds } ->
      w_spec b spec;
      w_seeds b seeds
  | Verdict { job_id; key; ok; ctx } ->
      w_str16 b job_id;
      w_str16 b key;
      w_bool b ok;
      w_ctx b ctx
  | Accepted id | Cancel id -> w_str16 b id
  | Rejected { reason; retry_after } ->
      w_str16 b reason;
      w_f64 b retry_after
  | Cancel_ok { job_id; found } ->
      w_str16 b job_id;
      w_bool b found
  | Progress { job_id; sim_time; classes; bytes } ->
      w_str16 b job_id;
      w_f64 b sim_time;
      w_u32 b classes;
      w_u32 b bytes
  | Result { job_id; stats; pool_bytes } ->
      w_str16 b job_id;
      w_stats b stats;
      w_bytes32 b pool_bytes
  | Job_failed { job_id; reason } ->
      w_str16 b job_id;
      w_str16 b reason
  | Protocol_error m -> w_str16 b m
  | Stats_request -> ()
  | Stats_reply s -> w_daemon_stats b s
  | Trace_dump_request -> ()
  | Trace_dump_reply d ->
      (* [nd_client_mid] is the requester's to stamp: never sent. *)
      w_str16 b d.nd_node;
      w_f64 b d.nd_epoch;
      w_f64 b d.nd_server_now;
      w_u32 b d.nd_dropped;
      Lbr_obs.Tdump.w_trace_events b d.nd_events);
  Buffer.contents b

let encode msg =
  let payload = encode_payload msg in
  let b = Buffer.create (String.length payload + 4) in
  w_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let decode_payload data =
  read data (fun r ->
      match r_u8 r with
      | 0x01 -> Hello (r_u16 r)
      | 0x81 -> Hello_ok (r_u16 r)
      | 0x02 -> Submit (r_spec r)
      | 0x82 -> Accepted (r_str16 r)
      | 0x03 -> Cancel (r_str16 r)
      | 0x83 ->
          let reason = r_str16 r in
          Rejected { reason; retry_after = r_f64 r }
      | 0x84 ->
          let job_id = r_str16 r in
          Cancel_ok { job_id; found = r_bool r }
      | 0x85 ->
          let job_id = r_str16 r in
          let sim_time = r_f64 r in
          let classes = r_u32 r in
          Progress { job_id; sim_time; classes; bytes = r_u32 r }
      | 0x86 ->
          let job_id = r_str16 r in
          let stats = r_stats r in
          Result { job_id; stats; pool_bytes = r_bytes32 r }
      | 0x87 ->
          let job_id = r_str16 r in
          Job_failed { job_id; reason = r_str16 r }
      | 0x88 -> Protocol_error (r_str16 r)
      | 0x04 -> Stats_request
      | 0x89 -> Stats_reply (r_daemon_stats r)
      | 0x05 ->
          let spec = r_spec r in
          Submit_seeded { spec; seeds = r_seeds r }
      | 0x8A ->
          let job_id = r_str16 r in
          let key = r_str16 r in
          let ok = r_bool r in
          Verdict { job_id; key; ok; ctx = r_ctx r }
      | 0x06 -> Trace_dump_request
      | 0x8B ->
          let nd_node = r_str16 r in
          let nd_epoch = r_f64 r in
          let nd_server_now = r_f64 r in
          let nd_dropped = r_u32 r in
          let nd_events = Lbr_obs.Tdump.r_trace_events r in
          Trace_dump_reply
            {
              nd_node;
              nd_epoch;
              nd_server_now;
              nd_client_mid = nd_server_now;
              nd_dropped;
              nd_events;
            }
      | k -> fail "unknown message kind 0x%02x" k)

(* ------------------------------------------------------------------ *)
(* Socket IO                                                           *)

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

let write_message fd msg = write_all fd (encode msg)

(* Read exactly [n] bytes; [`Closed] only if EOF hits before the first
   byte (a clean close between frames), [`Short] otherwise. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then `Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then `Closed else `Short
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_message fd =
  match read_exact fd 4 with
  | `Closed -> Error `Closed
  | `Short -> Error (`Malformed "truncated length prefix")
  | `Ok header -> (
      match read header r_u32 with
      | Error m -> Error (`Malformed m)
      | Ok 0 -> Error (`Malformed "empty frame")
      | Ok len when len > max_frame ->
          Error (`Malformed (Printf.sprintf "frame of %d bytes exceeds %d limit" len max_frame))
      | Ok len -> (
          match read_exact fd len with
          | `Closed | `Short -> Error (`Malformed "truncated frame body")
          | `Ok payload -> (
              match decode_payload payload with
              | Ok msg -> Ok msg
              | Error m -> Error (`Malformed m))))
