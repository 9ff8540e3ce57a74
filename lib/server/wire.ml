(* Frame layouts are documented in wire.mli.  Every field is always
   written; any layout change bumps [protocol_version], and the
   handshake refuses a peer on any other version. *)
let protocol_version = 7
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
  metrics_text : string;
}

type trace_dump = {
  node : string;
  epoch : float;
  server_now : float;
  dropped : int;
  events : Lbr_obs.Trace.event list;
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
  | Trace_dump_reply of trace_dump
  | Metrics_dump_request
  | Metrics_dump_reply of { node : string; dump : Lbr_obs.Metrics.dump }

(* ------------------------------------------------------------------ *)
(* Writer primitives                                                   *)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

let w_u16 b n =
  if n < 0 || n > 0xFFFF then invalid_arg "Wire: u16 overflow";
  w_u8 b (n lsr 8);
  w_u8 b n

let w_u32 b n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Wire: u32 overflow";
  w_u8 b (n lsr 24);
  w_u8 b (n lsr 16);
  w_u8 b (n lsr 8);
  w_u8 b n

let w_f64 b f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    w_u8 b (Int64.to_int (Int64.shift_right_logical bits (i * 8)))
  done

let w_str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Wire: string too long";
  w_u16 b (String.length s);
  Buffer.add_string b s

let w_bytes32 b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_bool b v = w_u8 b (if v then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Reader primitives — total, they only raise the local [Malformed]    *)

type reader = { data : string; mutable pos : int }

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let r_u8 r =
  if r.pos >= String.length r.data then fail "truncated (u8 at %d)" r.pos;
  let n = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  n

let r_u16 r =
  let hi = r_u8 r in
  (hi lsl 8) lor r_u8 r

let r_u32 r =
  let hi = r_u16 r in
  (hi lsl 16) lor r_u16 r

let r_f64 r =
  let bits = ref 0L in
  for _ = 1 to 8 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (r_u8 r))
  done;
  Int64.float_of_bits !bits

let r_bytes r n =
  if n < 0 || r.pos + n > String.length r.data then fail "truncated (%d bytes at %d)" n r.pos;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_str16 r = r_bytes r (r_u16 r)

let r_bytes32 r =
  let n = r_u32 r in
  if n > max_frame then fail "bytes32 length %d exceeds frame limit" n;
  r_bytes r n

let r_bool r = match r_u8 r with 0 -> false | 1 -> true | n -> fail "bad bool %d" n

let r_end r = if r.pos <> String.length r.data then fail "trailing garbage at %d" r.pos

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

let spec_of_string data =
  let r = { data; pos = 0 } in
  match
    let spec = r_spec r in
    r_end r;
    spec
  with
  | spec -> Ok spec
  | exception Malformed m -> Error m

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
  w_bytes32 b s.metrics_text

let r_daemon_stats r =
  let queued_jobs = r_u32 r in
  let running_jobs = r_u32 r in
  let n = r_u16 r in
  let job_stats = List.init n (fun _ -> r_job_stat r) in
  let uptime = r_f64 r in
  let metrics_text = r_bytes32 r in
  { queued_jobs; running_jobs; job_stats; uptime; metrics_text }

(* ------------------------------------------------------------------ *)
(* Seed tables — pre-paid verdicts shipped with a submission           *)

let w_seeds b seeds =
  let n = List.length seeds in
  if n > 0xFFFFFFFF then invalid_arg "Wire: too many seeds";
  w_u32 b n;
  List.iter
    (fun (key, ok) ->
      w_str16 b key;
      w_bool b ok)
    seeds

let r_seeds r =
  let n = r_u32 r in
  (* each seed is at least 3 bytes on the wire; bound before allocating *)
  if n > String.length r.data then fail "seed count %d exceeds frame" n;
  List.init n (fun _ ->
      let key = r_str16 r in
      let ok = r_bool r in
      (key, ok))

(* ------------------------------------------------------------------ *)
(* Trace events — the Trace_dump_reply payload                        *)

let w_i64 b v =
  let bits = Int64.of_int v in
  for i = 7 downto 0 do
    w_u8 b (Int64.to_int (Int64.shift_right_logical bits (i * 8)))
  done

let r_i64 r =
  let bits = ref 0L in
  for _ = 1 to 8 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (r_u8 r))
  done;
  Int64.to_int !bits

let w_trace_arg b : Lbr_obs.Trace.arg -> unit = function
  | Str s ->
      w_u8 b 0;
      w_str16 b s
  | Int i ->
      w_u8 b 1;
      w_i64 b i
  | Float f ->
      w_u8 b 2;
      w_f64 b f
  | Bool v ->
      w_u8 b 3;
      w_bool b v

let r_trace_arg r : Lbr_obs.Trace.arg =
  match r_u8 r with
  | 0 -> Str (r_str16 r)
  | 1 -> Int (r_i64 r)
  | 2 -> Float (r_f64 r)
  | 3 -> Bool (r_bool r)
  | t -> fail "bad trace arg tag %d" t

let w_trace_event b (e : Lbr_obs.Trace.event) =
  w_str16 b e.ev_name;
  w_u8 b (Char.code e.ev_ph);
  w_f64 b e.ev_ts;
  w_f64 b e.ev_dur;
  w_u32 b e.ev_tid;
  w_u16 b (List.length e.ev_args);
  List.iter
    (fun (k, v) ->
      w_str16 b k;
      w_trace_arg b v)
    e.ev_args

let r_trace_event r : Lbr_obs.Trace.event =
  let ev_name = r_str16 r in
  let ev_ph = Char.chr (r_u8 r) in
  let ev_ts = r_f64 r in
  let ev_dur = r_f64 r in
  let ev_tid = r_u32 r in
  let n_args = r_u16 r in
  let ev_args =
    List.init n_args (fun _ ->
        let k = r_str16 r in
        (k, r_trace_arg r))
  in
  { ev_name; ev_ph; ev_ts; ev_dur; ev_tid; ev_args }

let w_trace_events b events =
  w_u32 b (List.length events);
  List.iter (w_trace_event b) events

let r_trace_events r =
  let n = r_u32 r in
  (* each event is at least ~25 bytes on the wire; bound before allocating *)
  if n > String.length r.data then fail "event count %d exceeds frame" n;
  List.init n (fun _ -> r_trace_event r)

(* Standalone event-list serialization — the same bytes as inside a
   [Trace_dump_reply], reused by trace-merge's .tdump files. *)
let trace_events_to_string events =
  let b = Buffer.create 4096 in
  w_trace_events b events;
  Buffer.contents b

let trace_events_of_string data =
  let r = { data; pos = 0 } in
  match r_trace_events r with
  | events ->
      if r.pos <> String.length data then Error "trailing garbage after events"
      else Ok events
  | exception Malformed m -> Error m

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
  | Metrics_dump_request -> 0x07
  | Metrics_dump_reply _ -> 0x8C

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
      w_str16 b d.node;
      w_f64 b d.epoch;
      w_f64 b d.server_now;
      w_u32 b d.dropped;
      w_trace_events b d.events
  | Metrics_dump_request -> ()
  | Metrics_dump_reply { node; dump } ->
      w_str16 b node;
      w_bytes32 b (Lbr_obs.Metrics.encode_dump dump));
  Buffer.contents b

let encode msg =
  let payload = encode_payload msg in
  let b = Buffer.create (String.length payload + 4) in
  w_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let decode_payload data =
  let r = { data; pos = 0 } in
  match
    let msg =
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
          let node = r_str16 r in
          let epoch = r_f64 r in
          let server_now = r_f64 r in
          let dropped = r_u32 r in
          let events = r_trace_events r in
          Trace_dump_reply { node; epoch; server_now; dropped; events }
      | 0x07 -> Metrics_dump_request
      | 0x8C ->
          let node = r_str16 r in
          let dump =
            match Lbr_obs.Metrics.decode_dump (r_bytes32 r) with
            | Ok d -> d
            | Error m -> fail "bad metrics dump: %s" m
          in
          Metrics_dump_reply { node; dump }
      | k -> fail "unknown message kind 0x%02x" k
    in
    r_end r;
    msg
  with
  | msg -> Ok msg
  | exception Malformed m -> Error m

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
      let len =
        (Char.code header.[0] lsl 24)
        lor (Char.code header.[1] lsl 16)
        lor (Char.code header.[2] lsl 8)
        lor Char.code header.[3]
      in
      if len = 0 then Error (`Malformed "empty frame")
      else if len > max_frame then
        Error (`Malformed (Printf.sprintf "frame of %d bytes exceeds %d limit" len max_frame))
      else
        match read_exact fd len with
        | `Closed | `Short -> Error (`Malformed "truncated frame body")
        | `Ok payload -> (
            match decode_payload payload with
            | Ok msg -> Ok msg
            | Error m -> Error (`Malformed m)))
