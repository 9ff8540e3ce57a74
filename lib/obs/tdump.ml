(* The .tdump capture: one node's span events plus the clock readings a
   merger needs to place them on a shared timeline (see Trace_merge).
   The events section is the same bytes as a Trace_dump_reply payload. *)

type node_dump = {
  nd_node : string;  (* lane label *)
  nd_epoch : float;  (* node-clock second its ts = 0 maps to *)
  nd_server_now : float;  (* node clock at dump time *)
  nd_client_mid : float;  (* dumper clock at (roughly) the same instant *)
  nd_dropped : int;
  nd_events : Trace.event list;
}

open Lbr_codec.Codec

(* ------------------------------------------------------------------ *)
(* Trace events                                                        *)

let w_trace_arg b : Trace.arg -> unit = function
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

let r_trace_arg r : Trace.arg =
  match r_u8 r with
  | 0 -> Str (r_str16 r)
  | 1 -> Int (r_i64 r)
  | 2 -> Float (r_f64 r)
  | 3 -> Bool (r_bool r)
  | t -> fail "bad trace arg tag %d" t

let w_trace_event b (e : Trace.event) =
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

let r_trace_event r : Trace.event =
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

let r_trace_events r = List.init (r_count r (r_u32 r)) (fun _ -> r_trace_event r)

(* ------------------------------------------------------------------ *)
(* Captures                                                            *)

let magic = "LBRTD1"

let to_string d =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  w_str16 b d.nd_node;
  w_f64 b d.nd_epoch;
  w_f64 b d.nd_server_now;
  w_f64 b d.nd_client_mid;
  w_u32 b d.nd_dropped;
  w_trace_events b d.nd_events;
  Buffer.contents b

let of_string data =
  read data (fun r ->
      r_magic r magic;
      let nd_node = r_str16 r in
      let nd_epoch = r_f64 r in
      let nd_server_now = r_f64 r in
      let nd_client_mid = r_f64 r in
      let nd_dropped = r_u32 r in
      let nd_events = r_trace_events r in
      { nd_node; nd_epoch; nd_server_now; nd_client_mid; nd_dropped; nd_events })

let write_file path d =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string d))

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> of_string data
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error (path ^ ": truncated")
