open Lbr_logic

type hooks = {
  on_improvement : (float -> int -> int -> unit) option;
  should_stop : (unit -> bool) option;
  replay : (key:string -> bool option) option;
  execute : (key:string -> (unit -> bool) -> bool) option;
}

let default_hooks =
  { on_improvement = None; should_stop = None; replay = None; execute = None }

exception Cancelled

type strategy = Gbr | Jreduce | Lossy_first | Lossy_last

let strategy_name = function
  | Jreduce -> "j-reduce"
  | Lossy_first -> "lossy-first"
  | Lossy_last -> "lossy-last"
  | Gbr -> "gbr"

let all_strategies = [ Jreduce; Lossy_first; Lossy_last; Gbr ]

type outcome = {
  frontend : string;
  ok : bool;
  sim_time : float;
  wall_time : float;
  predicate_runs : int;
  replayed_runs : int;
  items0 : int;
  items1 : int;
  bytes0 : int;
  bytes1 : int;
}

(* Everything the demand path charges and journals about one predicate run,
   precomputed by a speculative worker.  The demand path consumes this
   instead of re-applying the assignment: [apply] and the size accessors
   are deterministic, so the payload is exactly what the inline computation
   would have produced. *)
type spec_payload = { sp_ok : bool; sp_items : int; sp_bytes : int }

(* The search a strategy runs over constraints [cnf]: GBR, or binary
   reduction over a dependency graph — the constraints themselves for
   J-Reduce, their lossy encoding (§4.3) otherwise.  On an all-graph CNF
   the encoding is the identity, so [pick] is moot there. *)
let search_of strategy ~speculate cnf =
  let graph cnf = `Graph (Lbr.Lossy.to_graph cnf) in
  match strategy with
  | Gbr -> Ok (`Gbr speculate)
  | Jreduce -> (
      match graph cnf with
      | g -> Ok g
      | exception Invalid_argument _ ->
          Error
            "j-reduce needs graph constraints (every clause a unit or an implication x => \
             y); use gbr or a lossy strategy")
  | Lossy_first | Lossy_last -> (
      let pick = if strategy = Lossy_first then Lbr.Lossy.First_first else Last_last in
      match graph (Lbr.Lossy.encode cnf ~pick) with
      | g -> Ok g
      | exception Invalid_argument m -> Error (strategy_name strategy ^ ": " ^ m))

(* The one driver.  Every search sees the same items, the same
   instrumented predicate and the same validation run. *)
let drive (type i c) ~hooks ~strategy ~speculate
    (module F : Frontend.S with type ctx = c and type input = i) (input : i) ~spec =
  let vpool = Var.Pool.create () in
  let fail fmt = Printf.ksprintf (fun m -> Error (F.id ^ ": " ^ m)) fmt in
  match F.derive vpool input with
  | Error m -> fail "derivation failed: %s" m
  | Ok ctx -> (
      match F.constraints ctx input with
      | Error m -> fail "constraint generation failed: %s" m
      | Ok cnf -> (
          let bridged =
            Result.bind (search_of strategy ~speculate cnf) (fun search ->
                Result.map (fun check -> (search, check)) (F.predicate ctx input ~spec))
          in
          match bridged with
          | Error m -> fail "%s" m
          | Ok (search, check) ->
              let apply = F.prepare ctx input in
              let speculation =
                match search with
                | `Gbr (Some p) ->
                    (* Workers get their own prepared applier — [F.prepare]'s
                       result is domain-local state for the JVM frontend.
                       The check closure from [F.predicate] is shared: a
                       frontend's check is safe to call from any domain
                       (the DIMACS one hands each call an idle solver). *)
                    let applier = Domain.DLS.new_key (fun () -> F.prepare ctx input) in
                    let compute phi =
                      let sub = (Domain.DLS.get applier) phi in
                      { sp_ok = check sub; sp_items = F.items sub; sp_bytes = F.bytes sub }
                    in
                    let should_launch, verdict_hint =
                      (* Never launch what a replay journal already knows,
                         and hint the search with the journal's verdicts so
                         it only prefetches branches replay will take: a
                         fully replayed workload launches nothing, so
                         speculation adds no fresh executions to it. *)
                      match hooks.replay with
                      | None -> (None, None)
                      | Some replay ->
                          let known phi = replay ~key:(Assignment.digest_hex phi) in
                          (Some (fun phi -> known phi = None), Some known)
                    in
                    Some
                      (Lbr.Speculate.create
                         ~spawn:(fun job ->
                           ignore (Lbr_runtime.Pool.submit p job : unit Lbr_runtime.Pool.future))
                         ?should_launch ?verdict_hint
                         ~max_inflight:(2 * Lbr_runtime.Pool.jobs p)
                         compute)
                | `Gbr None | `Graph _ -> None
              in
              let reduce (problem : Lbr.Problem.t) =
                match search with
                | `Gbr _ -> (
                    match
                      Lbr.Gbr.reduce ?speculate:speculation problem
                        ~order:(Lbr_sat.Order.by_creation vpool)
                    with
                    | Ok (result, stats) -> Some (result, stats.predicate_runs)
                    | Error (`Unsat | `Predicate_inconsistent | `Invariant_violation _) -> None)
                | `Graph (edges, required) -> (
                    let base, closures =
                      Lbr_baselines.Binary_reduction.Graph_encoding.closures
                        ~num_vars:(Var.Pool.size vpool) ~edges ~required
                    in
                    match
                      Lbr_baselines.Binary_reduction.reduce ~closures ~base
                        ~predicate:problem.predicate
                    with
                    | Ok (result, stats) -> Some (result, stats.predicate_runs)
                    | Error `Predicate_inconsistent -> None)
              in
              (* The instrumented black box: a simulated clock charged per
                 run, improvements on (bytes, items), and the scheduler's
                 hook surface. *)
              let clock = ref 0.0 in
              let best = ref (max_int, max_int) in
              let replayed = ref 0 in
              (* All observable accounting happens here, on the demand
                 path, whether the verdict came from a speculative worker
                 or was computed inline — byte-identical either way. *)
              let settle phi ~bytes ~items ok =
                clock := !clock +. (1.0 +. (4e-4 *. float_of_int bytes));
                (* The one lookup of an already-known verdict: a replayed
                   verdict never reaches [execute], so it never runs the
                   tool. *)
                let ok =
                  match (hooks.replay, hooks.execute) with
                  | None, None -> ok ()
                  | replay, execute -> (
                      let key = Assignment.digest_hex phi in
                      match Option.bind replay (fun replay -> replay ~key) with
                      | Some ok ->
                          incr replayed;
                          ok
                      | None -> (
                          match execute with Some execute -> execute ~key ok | None -> ok ()))
                in
                if ok then begin
                  let c = items () in
                  let bc, bb = !best in
                  if bytes < bb || (bytes = bb && c < bc) then begin
                    best := (min bc c, min bb bytes);
                    match hooks.on_improvement with Some f -> f !clock c bytes | None -> ()
                  end
                end;
                ok
              in
              let black_box phi =
                (match hooks.should_stop with
                | Some stop when stop () -> raise Cancelled
                | _ -> ());
                match Option.bind speculation (fun sp -> Lbr.Speculate.demand sp phi) with
                | Some p ->
                    settle phi ~bytes:p.sp_bytes ~items:(fun () -> p.sp_items) (fun () -> p.sp_ok)
                | None ->
                    let sub = apply phi in
                    settle phi ~bytes:(F.bytes sub)
                      ~items:(fun () -> F.items sub)
                      (fun () -> check sub)
              in
              let predicate = Lbr.Predicate.make ~name:F.id black_box in
              let universe = F.universe ctx in
              let problem =
                Lbr.Problem.make ~pool:vpool ~universe ~constraints:cnf ~predicate
              in
              let t0 = Unix.gettimeofday () in
              Fun.protect ~finally:(fun () -> Option.iter Lbr.Speculate.drain speculation)
              @@ fun () ->
              (* Validation runs the predicate once on the full input, and
                 that run is charged like any other; the memo makes a
                 strategy's own full-input query free. *)
              match Lbr.Problem.validate problem with
              | Error m -> fail "invalid problem: %s" m
              | Ok () ->
                  let result, runs, ok =
                    match reduce problem with
                    | Some (result, runs) -> (result, runs, true)
                    | None -> (universe, Lbr.Predicate.runs predicate, false)
                  in
                  let wall_time = Unix.gettimeofday () -. t0 in
                  let final = apply result in
                  Ok
                    ( {
                        frontend = F.id;
                        ok;
                        sim_time = !clock;
                        wall_time;
                        predicate_runs = runs;
                        replayed_runs = !replayed;
                        items0 = F.items input;
                        items1 = F.items final;
                        bytes0 = F.bytes input;
                        bytes1 = F.bytes final;
                      },
                      final )))

let reduce_input ?(hooks = default_hooks) ?(strategy = Gbr) ?speculate frontend input ~spec =
  drive ~hooks ~strategy ~speculate frontend input ~spec

let reduce_text ?hooks ?strategy ?speculate (Frontend.Packed (module F)) ~text ~spec =
  match F.parse text with
  | Error m -> Error (Printf.sprintf "%s: unparsable input: %s" F.id m)
  | Ok input -> (
      match reduce_input ?hooks ?strategy ?speculate (module F) input ~spec with
      | Error _ as e -> e
      | Ok (outcome, final) -> Ok (outcome, F.print final))
