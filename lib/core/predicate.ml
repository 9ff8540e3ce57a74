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

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Registered eagerly: domains racing to force a lazy would raise
   [Lazy.Undefined] in the loser. *)
let latency_hist =
  Lbr_obs.Metrics.histogram ~help:"Black-box predicate execution latency."
    "lbr_predicate_latency_seconds"

(* The black box runs outside the lock: holding it would serialize every
   concurrent caller on the slowest predicate execution. *)
let execute t input =
  locked t (fun () -> t.runs <- t.runs + 1);
  let t0 = Lbr_obs.Trace.now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Lbr_obs.Trace.now () in
      Lbr_obs.Trace.span_between "core.predicate" ~start:t0 ~finish:t1;
      Lbr_obs.Metrics.observe latency_hist (t1 -. t0))
    (fun () -> Perf.time "core.predicate" (fun () -> t.black_box input))

let run t input =
  let cached =
    locked t (fun () ->
        t.queries <- t.queries + 1;
        AMap.find_opt input t.memo)
  in
  match cached with
  | Some outcome -> outcome
  | None ->
      let outcome = execute t input in
      locked t (fun () -> t.memo <- AMap.add input outcome t.memo);
      outcome

let runs t = locked t (fun () -> t.runs)

let queries t = locked t (fun () -> t.queries)
