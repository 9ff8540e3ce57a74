(* Bench-side spans, recorded around the benchmark's calls into each layer
   during a traced run, kept in memory and written as Chrome trace JSON
   when the run ends.  Ids are allocated when a span opens, so children can
   name a parent that has not closed yet. *)

type span = {
  name : string;
  t0 : float;
  t1 : float;
  id : int;
  parent : int;
  lane : int;  (** a client connection, for cluster workloads *)
  input : string;
}

let enabled = ref false
let lock = Mutex.create ()
let next_id = ref 0
let recorded : span list ref = ref []

let fresh_id () =
  Mutex.protect lock (fun () ->
      incr next_id;
      !next_id)

let record ?(lane = 0) ~name ~id ~parent ~input t0 t1 =
  if !enabled then
    Mutex.protect lock (fun () ->
        recorded := { name; t0; t1; id; parent; lane; input } :: !recorded)

let write path ~epoch =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Lbr_obs.Trace.event_json_string
           {
             Lbr_obs.Trace.ev_name = s.name;
             ev_ph = 'X';
             ev_ts = (s.t0 -. epoch) *. 1e6;
             ev_dur = (s.t1 -. s.t0) *. 1e6;
             ev_tid = s.lane;
             ev_args = [ ("id", Int s.id); ("parent", Int s.parent); ("input", Str s.input) ];
           }))
    (List.rev !recorded);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n"
