open Lbr_logic

(* A digest-keyed table of speculative predicate executions.

   The reduction loop (the demand path) stays sequential and authoritative:
   it prefetches the assignments its own branches may ask for next, workers
   compute the pure check off-thread, and when the demand path actually
   needs a verdict it either claims a not-yet-started cell back (computing
   inline, exactly as without speculation) or waits for the in-flight one.
   All bookkeeping that observable behaviour depends on — predicate run
   counts, clocks, evaluation journals — happens on the demand path when
   the verdict is consumed, never when it is computed, which is what makes
   speculative and sequential runs byte-identical.

   Prefetch, cancel, demand and drain are all demand-path (single-thread)
   operations; only the worker body runs concurrently.  The in-flight
   budget counts Queued + Running cells, and exactly one party retires each
   cell from the budget: the worker that moved it Queued→Running retires it
   at Done/Poisoned, while cancel and demand retire only cells they move
   Queued→Cancelled (a worker finding its cell already cancelled just
   walks away). *)

type 'a state = Queued | Running | Done of 'a | Poisoned | Cancelled

type 'a cell = { phi : Assignment.t; mutable state : 'a state; mutable taken : bool }

type stats = {
  launched : int;
  committed : int;
  cancelled : int;
  wasted : int;  (** computed to completion but never demanded *)
  failed : int;  (** worker raised; the demand path recomputed inline *)
}

type 'a t = {
  spawn : (unit -> unit) -> unit;
  compute : Assignment.t -> 'a;
  should_launch : (Assignment.t -> bool) option;
  verdict_hint : (Assignment.t -> bool option) option;
  max_inflight : int;
  mutex : Mutex.t;
  cond : Condition.t;
  cells : (string, 'a cell) Hashtbl.t;
  mutable inflight : int;
  mutable s_launched : int;
  mutable s_committed : int;
  mutable s_cancelled : int;
  mutable s_wasted : int;
  mutable s_failed : int;
  mutable finalized : bool;
}

(* Registered eagerly: domains racing to force a lazy would raise
   [Lazy.Undefined] in the loser. *)
let m_launched =
  Lbr_obs.Metrics.counter "lbr_spec_launched_total" ~help:"Speculative predicate launches"

let m_committed =
  Lbr_obs.Metrics.counter "lbr_spec_committed_total"
    ~help:"Speculative verdicts consumed by the demand path"

let m_cancelled =
  Lbr_obs.Metrics.counter "lbr_spec_cancelled_total"
    ~help:"Speculative launches cancelled before running"

let create ~spawn ?should_launch ?verdict_hint ?(max_inflight = 4) compute =
  if max_inflight < 1 then invalid_arg "Speculate.create: max_inflight < 1";
  {
    spawn;
    compute;
    should_launch;
    verdict_hint;
    max_inflight;
    mutex = Mutex.create ();
    cond = Condition.create ();
    cells = Hashtbl.create 64;
    inflight = 0;
    s_launched = 0;
    s_committed = 0;
    s_cancelled = 0;
    s_wasted = 0;
    s_failed = 0;
    finalized = false;
  }

let hint t phi = match t.verdict_hint with None -> None | Some h -> h phi

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* [ctx] is the trace context of the domain that launched the
   speculation, re-installed here so the speculative predicate's spans
   parent under the same job as the demand path that (maybe) consumes
   the verdict — a speculation pool runs on its own domains, which
   otherwise have no context. *)
let worker t ctx cell () =
  let claimed =
    locked t (fun () ->
        match cell.state with
        | Queued ->
            cell.state <- Running;
            true
        | _ -> false)
  in
  if claimed then begin
    let outcome =
      Lbr_obs.Trace.with_context ctx @@ fun () ->
      match t.compute cell.phi with v -> Done v | exception _ -> Poisoned
    in
    Mutex.lock t.mutex;
    cell.state <- outcome;
    (match outcome with Poisoned -> t.s_failed <- t.s_failed + 1 | _ -> ());
    t.inflight <- t.inflight - 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  end

let prefetch t phi =
  if match t.should_launch with None -> true | Some ok -> ok phi then begin
    let key = Assignment.digest_hex phi in
    let launched =
      locked t (fun () ->
          if Hashtbl.mem t.cells key || t.inflight >= t.max_inflight then None
          else begin
            let cell = { phi; state = Queued; taken = false } in
            Hashtbl.replace t.cells key cell;
            t.inflight <- t.inflight + 1;
            t.s_launched <- t.s_launched + 1;
            Some cell
          end)
    in
    match launched with
    | None -> ()
    | Some cell ->
        Perf.add "spec.launched" 1;
        Lbr_obs.Metrics.incr m_launched;
        Lbr_obs.Trace.instant "spec.launch";
        t.spawn (worker t (Lbr_obs.Trace.current_context ()) cell)
  end

(* Cancel a cell on the demand path; caller holds the lock.  Returns
   whether this call retired the cell from the in-flight budget. *)
let cancel_locked t cell =
  match cell.state with
  | Queued ->
      cell.state <- Cancelled;
      t.inflight <- t.inflight - 1;
      t.s_cancelled <- t.s_cancelled + 1;
      true
  | _ -> false

let note_cancelled n =
  if n > 0 then begin
    Perf.add "spec.cancelled" n;
    for _ = 1 to n do
      Lbr_obs.Metrics.incr m_cancelled
    done
  end

let cancel t phi =
  let key = Assignment.digest_hex phi in
  let did =
    locked t (fun () ->
        match Hashtbl.find_opt t.cells key with
        | Some cell -> cancel_locked t cell
        | None -> false)
  in
  if did then note_cancelled 1

let demand t phi =
  let key = Assignment.digest_hex phi in
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.cells key with
    | None -> None
    | Some cell ->
        let rec settle () =
          match cell.state with
          | Queued ->
              (* No worker got to it: claim it back and compute inline,
                 exactly as the sequential path would. *)
              ignore (cancel_locked t cell);
              `Missed
          | Running ->
              Condition.wait t.cond t.mutex;
              settle ()
          | Done v ->
              cell.taken <- true;
              t.s_committed <- t.s_committed + 1;
              `Hit v
          | Poisoned | Cancelled -> `Fallback
        in
        (match settle () with
        | `Hit v -> Some (`Hit v)
        | `Missed -> Some `Missed
        | `Fallback -> None)
  in
  Mutex.unlock t.mutex;
  match result with
  | Some (`Hit v) ->
      Perf.add "spec.committed" 1;
      Lbr_obs.Metrics.incr m_committed;
      Lbr_obs.Trace.instant "spec.commit";
      Some v
  | Some `Missed ->
      note_cancelled 1;
      None
  | None -> None

let drain t =
  let newly =
    locked t (fun () ->
        let n = ref 0 in
        Hashtbl.iter
          (fun _ cell -> if cancel_locked t cell then incr n)
          t.cells;
        !n)
  in
  note_cancelled newly;
  Mutex.lock t.mutex;
  while t.inflight > 0 do
    Condition.wait t.cond t.mutex
  done;
  if not t.finalized then begin
    t.finalized <- true;
    Hashtbl.iter
      (fun _ cell ->
        match cell.state with
        | Done _ when not cell.taken -> t.s_wasted <- t.s_wasted + 1
        | _ -> ())
      t.cells
  end;
  Mutex.unlock t.mutex

let stats t =
  locked t (fun () ->
      {
        launched = t.s_launched;
        committed = t.s_committed;
        cancelled = t.s_cancelled;
        wasted = t.s_wasted;
        failed = t.s_failed;
      })
