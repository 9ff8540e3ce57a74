(* Merging per-node trace dumps into one Chrome trace.

   Every node records spans against its own monotonic-ish clock (µs since
   its [Trace.start]) and ships, with each dump, the absolute second that
   zero maps to ([epoch]) plus its wall clock at dump time ([server_now]).
   The dumper brackets the request with its own clock ([client_mid] = the
   midpoint of send/receive) — the classic NTP half-RTT estimate — so the
   merger can place every node on the dumper's timeline:

     absolute(ev) = epoch + ev_ts/1e6 + (client_mid - server_now)

   The merged trace uses the earliest corrected epoch as its zero and one
   Chrome [pid] lane per node name.  Dumps sharing a node name (a live
   pull plus an earlier pre-kill .tdump of the same daemon) collapse into
   one lane, deduplicating byte-identical events — the surviving-worker
   case, where the pre-kill capture is a prefix of the final dump. *)

module Client = Lbr_server.Client
module Trace = Lbr_obs.Trace
include Lbr_obs.Tdump

let skew d = d.nd_client_mid -. d.nd_server_now

(* ------------------------------------------------------------------ *)
(* Live capture                                                        *)

let fetch addr =
  match Client.connect addr with
  | Error m -> Error m
  | Ok c ->
      let result = Client.trace_dump c in
      Client.close c;
      result

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

(* Same-lane dedup key: the raw (pre-correction) event identity.  Two
   dumps of the same process share an epoch, so identical events collide
   exactly. *)
let event_key (e : Trace.event) =
  (e.ev_name, e.ev_ph, e.ev_ts, e.ev_dur, e.ev_tid)

(* Group dumps by node name, dedup within each group, correct each
   node's events onto the dumper timeline, and render one Chrome trace
   with a [pid] lane (plus a [process_name] metadata record) per node
   and a flow arrow from every [coordinator.job] span to the first
   worker-side event that names it as [ctx.parent]. *)
type merged = { json : string; lanes : string list; events : int }

let merge dumps =
  (* Lane order = first appearance; later same-name dumps fold in. *)
  let lanes = ref [] in
  List.iter
    (fun d ->
      match List.assoc_opt d.nd_node !lanes with
      | Some group -> group := d :: !group
      | None -> lanes := !lanes @ [ (d.nd_node, ref [ d ]) ])
    dumps;
  let lanes =
    List.mapi
      (fun i (node, group) -> (i + 1, node, List.rev !group))
      !lanes
  in
  (* Per lane: skew from its first dump, events deduped across dumps. *)
  let corrected =
    List.map
      (fun (pid, node, group) ->
        let first = List.hd group in
        let offset = first.nd_epoch +. skew first in
        let seen = Hashtbl.create 256 in
        let events =
          List.concat_map (fun d -> d.nd_events) group
          |> List.filter (fun e ->
                 let k = event_key e in
                 if Hashtbl.mem seen k then false
                 else begin
                   Hashtbl.add seen k ();
                   true
                 end)
        in
        let dropped = List.fold_left (fun n d -> n + d.nd_dropped) 0 group in
        (pid, node, offset, dropped, events))
      lanes
  in
  (* The merged timeline's zero: the earliest corrected epoch. *)
  let ref_epoch =
    List.fold_left
      (fun acc (_, _, offset, _, _) -> Float.min acc offset)
      infinity corrected
  in
  let ref_epoch = if ref_epoch = infinity then 0. else ref_epoch in
  let shifted =
    List.map
      (fun (pid, node, offset, dropped, events) ->
        let delta = (offset -. ref_epoch) *. 1e6 in
        ( pid,
          node,
          dropped,
          List.map (fun e -> { e with Trace.ev_ts = e.Trace.ev_ts +. delta }) events
        ))
      corrected
  in
  (* Cross-node flows: coordinator job span -> first event on another
     lane carrying that span id as its ctx.parent. *)
  let job_spans =
    List.concat_map
      (fun (pid, _, _, events) ->
        List.filter_map
          (fun e ->
            if e.Trace.ev_name = "coordinator.job" then
              Option.map (fun id -> (id, pid, e)) (Trace.str_arg e "span_id")
            else None)
          events)
      shifted
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"epochSeconds\":";
  Buffer.add_string buf (Printf.sprintf "%.6f" ref_epoch);
  Buffer.add_string buf ",\"traceEvents\":[";
  let first_ev = ref true in
  let emit json =
    if not !first_ev then Buffer.add_char buf ',';
    first_ev := false;
    Buffer.add_string buf json
  in
  List.iter
    (fun (pid, node, _, _) ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
           pid (Trace.json_escape node)))
    shifted;
  List.iter
    (fun (pid, _, _, events) ->
      List.iter (fun e -> emit (Trace.event_json_string ~pid e)) events)
    shifted;
  (* Flow arrows, one per (job span, foreign lane) pair. *)
  let flow_seq = ref 0 in
  List.iter
    (fun (span_id, coord_pid, coord_ev) ->
      let linked = Hashtbl.create 4 in
      List.iter
        (fun (pid, _, _, events) ->
          if pid <> coord_pid && not (Hashtbl.mem linked pid) then
            match
              List.find_opt (fun e -> Trace.str_arg e "ctx.parent" = Some span_id) events
            with
            | None -> ()
            | Some target ->
                Hashtbl.add linked pid ();
                incr flow_seq;
                let id = !flow_seq in
                emit
                  (Printf.sprintf
                     "{\"ph\":\"s\",\"name\":\"job\",\"cat\":\"job\",\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%.3f}"
                     id coord_pid coord_ev.Trace.ev_tid coord_ev.Trace.ev_ts);
                emit
                  (Printf.sprintf
                     "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"job\",\"cat\":\"job\",\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%.3f}"
                     id pid target.Trace.ev_tid target.Trace.ev_ts))
        shifted)
    job_spans;
  Buffer.add_string buf "]}";
  {
    json = Buffer.contents buf;
    lanes = List.map (fun (_, node, _, _) -> node) shifted;
    events = List.fold_left (fun n (_, _, _, events) -> n + List.length events) 0 shifted;
  }
