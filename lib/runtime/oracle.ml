type crash_policy = Crash_fails | Crash_passes | Crash_raises

type config = {
  timeout : float option;
  retries : int;
  backoff : float;
  crash_policy : crash_policy;
  transient : exn -> bool;
}

let default_config =
  {
    timeout = None;
    retries = 0;
    backoff = 0.0;
    crash_policy = Crash_raises;
    transient = (fun _ -> false);
  }

exception Crashed of { oracle : string; attempts : int; reason : string }

(* A key currently being executed by a leader: concurrent queries for
   the same key wait on [done_cond] instead of launching a duplicate
   black-box run.  [settled] flips exactly once, under the oracle mutex,
   when the leader finishes (successfully or not). *)
type inflight = { mutable settled : bool; done_cond : Condition.t }

type t = {
  name : string;
  config : config;
  mutex : Mutex.t;
  memo : (string, bool) Hashtbl.t;
  inflight : (string, inflight) Hashtbl.t;
  mutable queries : int;
  mutable executions : int;
  mutable memo_hits : int;
  mutable retries_used : int;
  mutable timeouts : int;
  mutable crashes : int;
}

let make ?(config = default_config) ?(name = "oracle") () =
  if config.retries < 0 then invalid_arg "Oracle.make: retries must be >= 0";
  {
    name;
    config;
    mutex = Mutex.create ();
    memo = Hashtbl.create 64;
    inflight = Hashtbl.create 4;
    queries = 0;
    executions = 0;
    memo_hits = 0;
    retries_used = 0;
    timeouts = 0;
    crashes = 0;
  }

let name t = t.name

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Process-wide oracle metrics: oracles are short-lived (one per job in
   the daemon), so rates like the memo hit ratio are only meaningful
   aggregated across instances. *)
let m_queries = lazy (Lbr_obs.Metrics.counter ~help:"Oracle queries." "lbr_oracle_queries_total")

let m_memo_hits =
  lazy (Lbr_obs.Metrics.counter ~help:"Oracle queries answered from the memo." "lbr_oracle_memo_hits_total")

let m_executions =
  lazy (Lbr_obs.Metrics.counter ~help:"Black-box attempts, including retries." "lbr_oracle_executions_total")

let m_retries = lazy (Lbr_obs.Metrics.counter ~help:"Retried attempts." "lbr_oracle_retries_total")
let m_crashes = lazy (Lbr_obs.Metrics.counter ~help:"Queries whose every attempt failed." "lbr_oracle_crashes_total")

let m_attempt_latency =
  lazy
    (Lbr_obs.Metrics.histogram ~help:"Oracle black-box attempt latency."
       "lbr_oracle_attempt_latency_seconds")

(* One attempt, without the lock held (the black box may be slow).
   [Ok b] is a usable outcome; [Error reason] is a failed attempt with
   [`Transient] worth retrying and [`Crash] not.  [attempt_no] is 1 for
   the first try; the trace span records it plus how the attempt was
   classified. *)
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
  | outcome -> (
      let elapsed = Unix.gettimeofday () -. t0 in
      match t.config.timeout with
      | Some limit when elapsed > limit ->
          locked t (fun () -> t.timeouts <- t.timeouts + 1);
          classification := "timeout";
          finish
            (Error
               ( `Transient,
                 Printf.sprintf "attempt exceeded the %.3fs timeout (took %.3fs)" limit
                   elapsed ))
      | Some _ | None ->
          classification := (if outcome then "pass" else "fail");
          finish (Ok outcome))
  | exception e when t.config.transient e ->
      classification := "transient";
      finish (Error (`Transient, "transient failure: " ^ Printexc.to_string e))
  | exception e ->
      classification := "crash";
      finish (Error (`Crash, "crash: " ^ Printexc.to_string e))

let run t ~key black_box =
  (* Memo lookup and in-flight arbitration under one lock: a second
     concurrent query for a key already executing waits for the leader
     to settle, then re-reads the memo — so N racing domains cost one
     black-box execution, not N.  If the leader raised instead of
     memoizing (Crash_raises), the longest waiter takes over as the new
     leader. *)
  let role =
    Mutex.lock t.mutex;
    t.queries <- t.queries + 1;
    let rec decide () =
      match Hashtbl.find_opt t.memo key with
      | Some outcome ->
          t.memo_hits <- t.memo_hits + 1;
          `Memo outcome
      | None -> (
          match Hashtbl.find_opt t.inflight key with
          | Some cell ->
              while not cell.settled do
                Condition.wait cell.done_cond t.mutex
              done;
              decide ()
          | None ->
              let cell = { settled = false; done_cond = Condition.create () } in
              Hashtbl.replace t.inflight key cell;
              `Leader cell)
    in
    let role = decide () in
    Mutex.unlock t.mutex;
    role
  in
  Lbr_obs.Metrics.incr (Lazy.force m_queries);
  (match role with
  | `Memo _ ->
      Lbr_obs.Metrics.incr (Lazy.force m_memo_hits);
      Lbr_obs.Trace.instant "oracle.memo"
        ~args:(fun () -> [ ("oracle", Lbr_obs.Trace.Str t.name); ("hit", Lbr_obs.Trace.Bool true) ])
  | `Leader _ ->
      Lbr_obs.Trace.instant "oracle.memo"
        ~args:(fun () -> [ ("oracle", Lbr_obs.Trace.Str t.name); ("hit", Lbr_obs.Trace.Bool false) ]));
  match role with
  | `Memo outcome -> outcome
  | `Leader cell ->
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              cell.settled <- true;
              Condition.broadcast cell.done_cond;
              Hashtbl.remove t.inflight key))
      @@ fun () ->
      let max_attempts = t.config.retries + 1 in
      let rec go k =
        match attempt t black_box ~attempt_no:k with
        | Ok outcome -> Ok (outcome, k)
        | Error (`Transient, _reason) when k < max_attempts ->
            if t.config.backoff > 0.0 then
              Unix.sleepf (t.config.backoff *. (2.0 ** float_of_int (k - 1)));
            locked t (fun () -> t.retries_used <- t.retries_used + 1);
            Lbr_obs.Metrics.incr (Lazy.force m_retries);
            go (k + 1)
        | Error ((`Transient | `Crash), reason) -> Error (reason, k)
      in
      let memoize outcome =
        locked t (fun () -> Hashtbl.replace t.memo key outcome);
        outcome
      in
      (match go 1 with
      | Ok (outcome, _) -> memoize outcome
      | Error (reason, attempts) -> (
          locked t (fun () -> t.crashes <- t.crashes + 1);
          Lbr_obs.Metrics.incr (Lazy.force m_crashes);
          match t.config.crash_policy with
          | Crash_fails -> memoize false
          | Crash_passes -> memoize true
          | Crash_raises -> raise (Crashed { oracle = t.name; attempts; reason })))

let queries t = locked t (fun () -> t.queries)
let executions t = locked t (fun () -> t.executions)
let memo_hits t = locked t (fun () -> t.memo_hits)
let retries_used t = locked t (fun () -> t.retries_used)
let timeouts t = locked t (fun () -> t.timeouts)
let crashes t = locked t (fun () -> t.crashes)

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.memo;
      t.queries <- 0;
      t.executions <- 0;
      t.memo_hits <- 0;
      t.retries_used <- 0;
      t.timeouts <- 0;
      t.crashes <- 0)
