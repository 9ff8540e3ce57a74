open Lbr_logic

module AMap = Map.Make (struct
  type t = Assignment.t

  let compare = Assignment.compare
end)

type t = {
  name : string;
  black_box : Assignment.t -> bool;
  mutex : Mutex.t;
  mutable memo : bool AMap.t;
  mutable runs : int;
  mutable queries : int;
}

let make ?(name = "predicate") black_box =
  { name; black_box; mutex = Mutex.create (); memo = AMap.empty; runs = 0; queries = 0 }

let name t = t.name

(* Registered eagerly: domains racing to force a lazy would raise
   [Lazy.Undefined] in the loser. *)
let latency_hist =
  Lbr_obs.Metrics.histogram ~help:"Black-box predicate execution latency."
    "lbr_predicate_latency_seconds"

(* The black box runs outside the lock: holding it would serialize every
   concurrent caller on the slowest predicate execution.  A black box that
   raises is still timed. *)
let execute t input =
  let t0 = Lbr_obs.Trace.now () in
  let finish () =
    let t1 = Lbr_obs.Trace.now () in
    Lbr_obs.Trace.span_between "core.predicate" ~start:t0 ~finish:t1;
    Lbr_obs.Metrics.observe latency_hist (t1 -. t0)
  in
  match Perf.time "core.predicate" (fun () -> t.black_box input) with
  | outcome ->
      finish ();
      outcome
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt

(* A miss counts its run in the same critical section as its query, so a
   hit takes the lock once and an execution twice. *)
let run t input =
  let cached =
    Mutex.protect t.mutex (fun () ->
        t.queries <- t.queries + 1;
        let found = AMap.find_opt input t.memo in
        if Option.is_none found then t.runs <- t.runs + 1;
        found)
  in
  match cached with
  | Some outcome -> outcome
  | None ->
      let outcome = execute t input in
      Mutex.protect t.mutex (fun () -> t.memo <- AMap.add input outcome t.memo);
      outcome

let runs t = Mutex.protect t.mutex (fun () -> t.runs)

let queries t = Mutex.protect t.mutex (fun () -> t.queries)
