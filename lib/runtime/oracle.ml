type crash_policy = Crash_fails | Crash_passes | Crash_raises

type config = { retries : int; crash_policy : crash_policy; transient : exn -> bool }

let default_config = { retries = 0; crash_policy = Crash_raises; transient = (fun _ -> false) }

exception Crashed of { oracle : string; attempts : int; reason : string }

type t = {
  name : string;
  config : config;
  mutex : Mutex.t;
  mutable executions : int;
  mutable retries_used : int;
  mutable crashes : int;
}

let make ?(config = default_config) ?(name = "oracle") () =
  if config.retries < 0 then invalid_arg "Oracle.make: retries must be >= 0";
  { name; config; mutex = Mutex.create (); executions = 0; retries_used = 0; crashes = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Process-wide oracle metrics: oracles are short-lived (one per job in
   the daemon), so counts are only meaningful aggregated across
   instances. *)
let m_executions =
  lazy (Lbr_obs.Metrics.counter ~help:"Black-box attempts, including retries." "lbr_oracle_executions_total")

let m_retries = lazy (Lbr_obs.Metrics.counter ~help:"Retried attempts." "lbr_oracle_retries_total")
let m_crashes = lazy (Lbr_obs.Metrics.counter ~help:"Runs whose every attempt failed." "lbr_oracle_crashes_total")

let m_attempt_latency =
  lazy
    (Lbr_obs.Metrics.histogram ~help:"Oracle black-box attempt latency."
       "lbr_oracle_attempt_latency_seconds")

(* One attempt.  [Ok b] is a usable outcome; [Error reason] is a failed
   attempt with [`Transient] worth retrying and [`Crash] not.
   [attempt_no] is 1 for the first try; the trace span records it plus
   how the attempt was classified. *)
let attempt t black_box ~attempt_no =
  locked t (fun () -> t.executions <- t.executions + 1);
  Lbr_obs.Metrics.incr (Lazy.force m_executions);
  let classification = ref "ok" in
  Lbr_obs.Trace.with_span "oracle.attempt"
    ~args:(fun () ->
      [
        ("oracle", Lbr_obs.Trace.Str t.name);
        ("attempt", Lbr_obs.Trace.Int attempt_no);
        ("retry", Lbr_obs.Trace.Int (attempt_no - 1));
        ("classification", Lbr_obs.Trace.Str !classification);
      ])
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish r =
    Lbr_obs.Metrics.observe (Lazy.force m_attempt_latency) (Unix.gettimeofday () -. t0);
    r
  in
  match black_box () with
  | outcome ->
      classification := if outcome then "pass" else "fail";
      finish (Ok outcome)
  | exception e when t.config.transient e ->
      classification := "transient";
      finish (Error (`Transient, "transient failure: " ^ Printexc.to_string e))
  | exception e ->
      classification := "crash";
      finish (Error (`Crash, "crash: " ^ Printexc.to_string e))

let run t black_box =
  let max_attempts = t.config.retries + 1 in
  let rec go k =
    match attempt t black_box ~attempt_no:k with
    | Ok outcome -> outcome
    | Error (`Transient, _reason) when k < max_attempts ->
        locked t (fun () -> t.retries_used <- t.retries_used + 1);
        Lbr_obs.Metrics.incr (Lazy.force m_retries);
        go (k + 1)
    | Error ((`Transient | `Crash), reason) -> (
        locked t (fun () -> t.crashes <- t.crashes + 1);
        Lbr_obs.Metrics.incr (Lazy.force m_crashes);
        match t.config.crash_policy with
        | Crash_fails -> false
        | Crash_passes -> true
        | Crash_raises -> raise (Crashed { oracle = t.name; attempts = k; reason }))
  in
  go 1

let executions t = locked t (fun () -> t.executions)
let retries_used t = locked t (fun () -> t.retries_used)
let crashes t = locked t (fun () -> t.crashes)
