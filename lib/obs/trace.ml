type arg = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ev_name : string;
  ev_ph : char;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_args : (string * arg) list;
}

(* Per-domain ring buffer.  Only its owning domain writes; readers accept
   the quiescence caveat documented in the interface. *)
type ring = {
  mutable buf : event array;
  mutable first : int;  (* index of the oldest event *)
  mutable count : int;
  mutable dropped : int;
}

let none_event =
  { ev_name = ""; ev_ph = 'i'; ev_ts = 0.; ev_dur = 0.; ev_tid = 0; ev_args = [] }

let default_capacity = 65536
let ring_capacity = Atomic.make default_capacity

(* The only state a disabled call site reads: a bitmask so the flight
   recorder (bit 1) can observe spans without a second atomic on the hot
   path.  Bit 0 is classic tracing; 0 means every span is free. *)
let trace_bit = 1
let flight_bit = 2
let state = Atomic.make 0
let epoch = Atomic.make 0.0

(* Armed by {!Flight}; receives every span/instant with absolute
   timestamps (seconds) while [flight_bit] is set.  Must never raise. *)
let flight_hook :
    (name:string -> ph:char -> t0:float -> t1:float -> args:(string * arg) list -> unit)
    option
    ref =
  ref None

let registry : ring list ref = ref []
let registry_mutex = Mutex.create ()

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r = { buf = [||]; first = 0; count = 0; dropped = 0 } in
      Mutex.lock registry_mutex;
      registry := r :: !registry;
      Mutex.unlock registry_mutex;
      r)

let push ev =
  let r = Domain.DLS.get ring_key in
  let cap = Atomic.get ring_capacity in
  (* Storage is allocated on first use after [start], so idle domains and
     disabled runs never pay for the ring. *)
  if Array.length r.buf <> cap then begin
    r.buf <- Array.make cap none_event;
    r.first <- 0;
    r.count <- 0
  end;
  if r.count = cap then begin
    r.buf.(r.first) <- ev;
    r.first <- (r.first + 1) mod cap;
    r.dropped <- r.dropped + 1
  end
  else begin
    r.buf.((r.first + r.count) mod cap) <- ev;
    r.count <- r.count + 1
  end

let enabled () = Atomic.get state land trace_bit <> 0

let set_bit bit on =
  let rec go () =
    let s = Atomic.get state in
    let s' = if on then s lor bit else s land lnot bit in
    if not (Atomic.compare_and_set state s s') then go ()
  in
  go ()

(* Span durations feed a metrics histogram so `bench --json` and the
   Prometheus dump can summarize where traced time went without parsing
   the trace itself.  Only touched while tracing is enabled, and
   forced by [start]: domains racing to force a lazy would raise
   [Lazy.Undefined]. *)
let span_hist =
  lazy
    (Metrics.histogram ~help:"Traced span durations (tracing enabled only)."
       ~lo:1e-6 ~growth:4.0 ~buckets:24 "lbr_span_duration_seconds")

let start ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.start: capacity must be >= 1";
  Mutex.lock registry_mutex;
  List.iter
    (fun r ->
      r.buf <- [||];
      r.first <- 0;
      r.count <- 0;
      r.dropped <- 0)
    !registry;
  Mutex.unlock registry_mutex;
  Atomic.set ring_capacity capacity;
  Atomic.set epoch (Unix.gettimeofday ());
  ignore (Lazy.force span_hist);
  set_bit trace_bit true

let stop () = set_bit trace_bit false
let now () = Unix.gettimeofday ()
let epoch_seconds () = Atomic.get epoch

(* ------------------------------------------------------------------ *)
(* Trace contexts: the causal identity a job carries across processes.  *)

module Context = struct
  type t = { trace_id : string; parent_span : string }

  (* Ids are 16 hex chars: a process-unique seed hashed with a counter.
     Uniqueness across a cluster comes from pid + wall clock in the seed;
     no global coordination needed.  Computed at startup, not lazily: any
     domain may mint an id, and domains racing to force a lazy would
     raise [Lazy.Undefined]. *)
  let seed =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%d.%.9f.%d" (Unix.getpid ()) (Unix.gettimeofday ())
            (Hashtbl.hash Sys.executable_name)))

  let counter = Atomic.make 0

  let fresh_span_id () =
    let n = Atomic.fetch_and_add counter 1 in
    String.sub
      (Digest.to_hex (Digest.string (Printf.sprintf "%s-%d" seed n)))
      0 16

  let mint () = { trace_id = fresh_span_id (); parent_span = fresh_span_id () }
end

let ctx_key : Context.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_context () = !(Domain.DLS.get ctx_key)

let with_context ctx f =
  let cell = Domain.DLS.get ctx_key in
  let saved = !cell in
  cell := ctx;
  Fun.protect f ~finally:(fun () -> cell := saved)

(* ------------------------------------------------------------------ *)

(* A raising thunk poisons only its own span's args: the span is kept,
   its args replaced by a marker, so instrumentation bugs show up in the
   trace instead of silently erasing evidence. *)
let eval_args = function
  | None -> []
  | Some f -> ( try f () with _ -> [ ("args", Str "<error>") ])

let ctx_args () =
  match current_context () with
  | None -> []
  | Some { Context.trace_id; parent_span } ->
      [ ("ctx.trace", Str trace_id); ("ctx.parent", Str parent_span) ]

let record ?args name ~t0 ~t1 ~ph =
  let s = Atomic.get state in
  if s <> 0 then begin
    let args = eval_args args @ ctx_args () in
    if s land trace_bit <> 0 then begin
      let e = Atomic.get epoch in
      push
        {
          ev_name = name;
          ev_ph = ph;
          ev_ts = (t0 -. e) *. 1e6;
          ev_dur = (t1 -. t0) *. 1e6;
          ev_tid = (Domain.self () :> int);
          ev_args = args;
        };
      if ph = 'X' then Metrics.observe (Lazy.force span_hist) (t1 -. t0)
    end;
    if s land flight_bit <> 0 then
      match !flight_hook with
      | None -> ()
      | Some hook -> ( try hook ~name ~ph ~t0 ~t1 ~args with _ -> ())
  end

let with_span ?args name f =
  if Atomic.get state = 0 then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        record ?args name ~t0 ~t1:(Unix.gettimeofday ()) ~ph:'X')
  end

let instant ?args name =
  if Atomic.get state <> 0 then begin
    let t = Unix.gettimeofday () in
    record ?args name ~t0:t ~t1:t ~ph:'i'
  end

let span_between ?args name ~start ~finish =
  if Atomic.get state <> 0 then record ?args name ~t0:start ~t1:finish ~ph:'X'

let set_flight_hook hook =
  flight_hook := hook;
  set_bit flight_bit (hook <> None)

let rings () =
  Mutex.lock registry_mutex;
  let rs = !registry in
  Mutex.unlock registry_mutex;
  rs

let events () =
  let collect r =
    let len = Array.length r.buf in
    if len = 0 then []
    else List.init r.count (fun i -> r.buf.((r.first + i) mod len))
  in
  List.concat_map collect (rings ())
  |> List.sort (fun a b -> Float.compare a.ev_ts b.ev_ts)

let dropped () = List.fold_left (fun acc r -> acc + r.dropped) 0 (rings ())

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v = if Float.is_nan v then "0" else Printf.sprintf "%.3f" v

let arg_json = function
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Int i -> string_of_int i
  | Float f -> if Float.is_nan f || Float.abs f = infinity then "null" else Printf.sprintf "%.6g" f
  | Bool b -> if b then "true" else "false"

let event_json ?(pid = 1) buf ev =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"lbr\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%s"
       (json_escape ev.ev_name) ev.ev_ph pid ev.ev_tid (json_float ev.ev_ts));
  if ev.ev_ph = 'X' then Buffer.add_string buf (Printf.sprintf ",\"dur\":%s" (json_float ev.ev_dur))
  else if ev.ev_ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"";
  (match ev.ev_args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) (arg_json v)))
        args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let str_arg ev key =
  List.find_map (function k, Str v when k = key -> Some v | _ -> None) ev.ev_args

let event_json_string ?pid ev =
  let buf = Buffer.create 128 in
  event_json ?pid buf ev;
  Buffer.contents buf

let to_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"epochSeconds\":%.6f,\"traceEvents\":[" (Atomic.get epoch));
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      event_json buf ev)
    (events ());
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    (fun () -> output_string oc (to_json ()))
    ~finally:(fun () -> close_out oc)
