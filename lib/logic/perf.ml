(* Phase-level performance counters.

   Each domain owns a private hash table (no locking, no contention on the
   hot path); a global registry keeps every table ever created so process
   totals can be summed after parallel runs — tables of terminated pool
   domains stay registered and keep contributing to the totals. *)

type totals = {
  mutable calls : int;
  mutable seconds : float;
  mutable minor_words : float;
}

type row = { name : string; calls : int; seconds : float; minor_words : float }

let registry : (string, totals) Hashtbl.t list ref = ref []
let registry_mutex = Mutex.create ()

let table_key =
  Domain.DLS.new_key (fun () ->
      let table : (string, totals) Hashtbl.t = Hashtbl.create 16 in
      Mutex.lock registry_mutex;
      registry := table :: !registry;
      Mutex.unlock registry_mutex;
      table)

let totals_for table name =
  match Hashtbl.find_opt table name with
  | Some c -> c
  | None ->
      let c = { calls = 0; seconds = 0.; minor_words = 0. } in
      Hashtbl.replace table name c;
      c

let add name n =
  let c = totals_for (Domain.DLS.get table_key) name in
  c.calls <- c.calls + n

let time name f =
  let c = totals_for (Domain.DLS.get table_key) name in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  Fun.protect f ~finally:(fun () ->
      c.calls <- c.calls + 1;
      c.seconds <- c.seconds +. (Unix.gettimeofday () -. t0);
      c.minor_words <- c.minor_words +. (Gc.minor_words () -. w0))

let rows_of_table table =
  Hashtbl.fold
    (fun name (c : totals) acc ->
      { name; calls = c.calls; seconds = c.seconds; minor_words = c.minor_words }
      :: acc)
    table []

let merge rows =
  let m : (string, row) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt m r.name with
      | None -> Hashtbl.replace m r.name r
      | Some p ->
          Hashtbl.replace m r.name
            {
              r with
              calls = p.calls + r.calls;
              seconds = p.seconds +. r.seconds;
              minor_words = p.minor_words +. r.minor_words;
            })
    rows;
  Hashtbl.fold (fun _ r acc -> r :: acc) m []
  |> List.sort (fun a b -> String.compare a.name b.name)

let snapshot_local () = merge (rows_of_table (Domain.DLS.get table_key))

let aggregate () =
  Mutex.lock registry_mutex;
  let tables = !registry in
  Mutex.unlock registry_mutex;
  merge (List.concat_map rows_of_table tables)

let since ~before ~after =
  let b : (string, row) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (r : row) -> Hashtbl.replace b r.name r) before;
  List.filter_map
    (fun (a : row) ->
      let calls, seconds, minor_words =
        match Hashtbl.find_opt b a.name with
        | None -> (a.calls, a.seconds, a.minor_words)
        | Some p ->
            (a.calls - p.calls, a.seconds -. p.seconds, a.minor_words -. p.minor_words)
      in
      if calls = 0 then None else Some { a with calls; seconds; minor_words })
    after

let reset () =
  Mutex.lock registry_mutex;
  let tables = !registry in
  Mutex.unlock registry_mutex;
  List.iter Hashtbl.reset tables

let report rows =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %10s %12s %16s\n" "phase" "calls" "seconds" "minor words");
  List.iter
    (fun (r : row) ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %10d %12.4f %16.0f\n" r.name r.calls r.seconds
           r.minor_words))
    rows;
  Buffer.contents b

(* One phase per line, space-separated: grep/awk-friendly and stable, for
   the serve journal. *)
let serialize rows =
  String.concat ""
    (List.map
       (fun (r : row) ->
         Printf.sprintf "%s %d %.6f %.0f\n" r.name r.calls r.seconds r.minor_words)
       rows)
