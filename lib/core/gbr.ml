open Lbr_logic
open Lbr_sat

type stats = {
  iterations : int;
  predicate_runs : int;
  predicate_queries : int;
  learned : Assignment.t list;
  progression_lengths : int list;
}

type error = [ `Unsat | `Predicate_inconsistent | `Invariant_violation of string ]

(* Lemma 4.3's checkable invariants for a freshly built progression. *)
let progression_violation ~cnf ~learned ~universe prog =
  let n = Progression.length prog in
  if n = 0 then Some "empty progression"
  else if not (Assignment.equal (Progression.prefix prog (n - 1)) universe) then
    Some "prefix union does not cover the search space"
  else begin
    let entries = Array.init n (Progression.entry prog) in
    (* Early-exit on the first overlapping pair instead of scanning the
       rest of the O(n²) pair space. *)
    let rec overlap i j =
      if i >= n then None
      else if j >= n then overlap (i + 1) (i + 2)
      else if not (Assignment.disjoint entries.(i) entries.(j)) then
        Some (Printf.sprintf "entries %d and %d overlap" i j)
      else overlap i (j + 1)
    in
    match overlap 0 1 with
    | Some _ as v -> v
    | None ->
        let restricted = Cnf.restrict cnf ~keep:universe in
        let bad = ref None in
        Array.iteri
          (fun r prefix ->
            if !bad = None then
              if not (Cnf.holds restricted prefix) then
                bad := Some (Printf.sprintf "prefix %d violates R+ (INV-PRO)" r)
              else
                List.iteri
                  (fun k l ->
                    if Assignment.disjoint l prefix then
                      bad :=
                        Some
                          (Printf.sprintf "prefix %d misses learned set %d (INV-PRO)" r k))
                  learned)
          (Array.init n (Progression.prefix prog));
        !bad
  end

let reduce ?(check_invariants = false) ?(incremental = true) ?speculate
    (problem : Problem.t) ~order =
  let predicate = problem.predicate in
  let runs0 = Predicate.runs predicate and queries0 = Predicate.queries predicate in
  let max_iterations = Assignment.cardinal problem.universe + 1 in
  let arena = Msa.Arena.default () in
  (* The persistent engine threaded through every iteration, or the
     per-iteration rebuild path (r_plus + Engine.create) when
     [~incremental:false] asks for the reference oracle.  An engine
     conflicts only when the search space violates [R⁺] (see
     {!Progression.make}), so a conflict, at create or in a later step,
     answers [`Unsat] itself: a rebuild would meet the same conflict. *)
  let engine =
    ref
      (if not incremental then `Rebuild
       else
         match
           Msa.Engine.create ~arena problem.constraints ~order
             ~universe:problem.universe
         with
         | Ok e -> `Live e
         | Error `Conflict -> `Retired)
  in
  (* Retiring the engine — on a conflict or at the end — returns its
     storage to the arena for the next reduction. *)
  let retire_engine () =
    match !engine with
    | `Live e ->
        engine := `Retired;
        Msa.Arena.release arena e
    | `Rebuild | `Retired -> ()
  in
  (* The one engine-advance step: append the just-learned set — entry [r]
     of the previous progression [prev], read from its trail; none on the
     first iteration, whose engine is freshly created — shrink the search
     space to [j] — the whole inter-iteration update, replacing the
     full-CNF copy and re-index — and build the progression incrementally.
     A conflict anywhere retires the engine and answers [`Unsat]. *)
  let advance ~fresh ~learned j =
    match !engine with
    | `Rebuild -> Progression.make ~cnf:problem.constraints ~order ~learned ~universe:j
    | `Retired -> Error `Unsat
    | `Live e -> (
        let prepared =
          match fresh with
          | None -> Ok ()
          | Some (prev, r) ->
              Result.bind (Progression.learn e prev r) (fun () -> Msa.Engine.narrow e ~keep:j)
        in
        match
          Result.bind prepared (fun () -> Progression.build_incremental ~engine:e ~universe:j)
        with
        | Ok prog -> Ok prog
        | Error `Conflict ->
            retire_engine ();
            Error `Unsat)
  in
  (* --- Speculation ------------------------------------------------------
     With a {!Speculate} table the sequential loop stays the authority for
     every verdict; speculation only prefetches verdicts the loop is about
     to demand.  Before the probe at [mid] runs, both branches' next
     probes go to idle workers, and the loser is cancelled once the real
     verdict lands.  A verdict hint (a replay journal that already knows
     the probe) prunes the prefetch to the branch that will be taken; it
     is advisory — the verdict still comes from [Predicate.run], in the
     sequential order, and a wrong hint only forfeits a prefetch. *)
  let hint phi =
    match speculate with Some sp -> Speculate.hint sp phi | None -> None
  in
  (* Prefetch the probe of the half-open search interval (lo, hi], when it
     has one, and return it for [cancel]: once the interval pins
     [r = hi], the next demand is the next iteration's head. *)
  let prefetch_probe prog ~lo ~hi =
    match speculate with
    | Some sp when hi - lo > 1 ->
        let phi = Progression.prefix prog ((lo + hi) / 2) in
        Speculate.prefetch sp phi;
        Some phi
    | _ -> None
  in
  let cancel probe =
    match (speculate, probe) with
    | Some sp, Some phi -> Speculate.cancel sp phi
    | _ -> ()
  in
  (* Smallest r in (lo, hi] such that P(prefix r), given ¬P(prefix lo) and
     P(prefix hi) — the latter by INV-PRO: the full prefix union equals the
     current search space J, which satisfied the predicate. *)
  let binary_search prog ~lo ~hi =
    let rec go lo hi =
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        let phi = Progression.prefix prog mid in
        (* Consulted only when some branch has a probe to prefetch. *)
        let h = if hi - lo > 2 then hint phi else None in
        let on_pass = if h = Some false then None else prefetch_probe prog ~lo ~hi:mid in
        let on_fail = if h = Some true then None else prefetch_probe prog ~lo:mid ~hi in
        if Predicate.run predicate phi then begin
          cancel on_fail;
          go lo mid
        end
        else begin
          cancel on_pass;
          go mid hi
        end
      end
    in
    go lo hi
  in
  (* One iteration, factored out of [loop] so the [gbr.iteration] trace
     span covers exactly this iteration's work — recursing inside the span
     would nest every later iteration under the first. *)
  let iterate ~fresh learned j iterations prog_lengths =
    match advance ~fresh ~learned j with
    | Error `Unsat -> `Done (Error `Unsat)
    | Ok prog -> (
        (* Sets are built from the progression's trail on demand: each
           iteration reads only the head, the O(log n) probes of the
           binary search and the learned entry. *)
        match
          if check_invariants then
            progression_violation ~cnf:problem.constraints ~learned ~universe:j prog
          else None
        with
        | Some message -> `Done (Error (`Invariant_violation message))
        | None ->
            let n = Progression.length prog in
            let prog_lengths = n :: prog_lengths in
            let head = Progression.prefix prog 0 in
            (* The head verdict's fail branch opens the search over
               (0, n-1]: start its first probe before the head runs.  A
               passing head ends the reduction, so that branch has nothing
               to prefetch — and a hint that the head passes prunes the
               fail prefetch too. *)
            let head_fail =
              if n > 2 && hint head <> Some true then prefetch_probe prog ~lo:0 ~hi:(n - 1)
              else None
            in
            if Predicate.run predicate head then begin
              cancel head_fail;
              let stats =
                {
                  iterations;
                  predicate_runs = Predicate.runs predicate - runs0;
                  predicate_queries = Predicate.queries predicate - queries0;
                  learned = List.rev learned;
                  progression_lengths = List.rev prog_lengths;
                }
              in
              `Done (Ok (head, stats))
            end
            else if n = 1 then
              (* The head is the whole search space J, which satisfied the
                 predicate when it became the search space: the predicate
                 is not behaving like a function of its input. *)
              `Done (Error `Predicate_inconsistent)
            else begin
              let r = binary_search prog ~lo:0 ~hi:(n - 1) in
              `Continue
                ((prog, r), Progression.entry prog r :: learned, Progression.prefix prog r,
                 iterations + 1, prog_lengths)
            end)
  in
  let rec loop ~fresh learned j iterations prog_lengths =
    if iterations > max_iterations then Error `Predicate_inconsistent
    else
      let step =
        Lbr_obs.Trace.with_span "gbr.iteration"
          ~args:(fun () ->
            [
              ("iteration", Lbr_obs.Trace.Int iterations);
              ("universe", Lbr_obs.Trace.Int (Assignment.cardinal j));
              ("learned", Lbr_obs.Trace.Int (List.length learned));
            ])
          (fun () -> iterate ~fresh learned j iterations prog_lengths)
      in
      match step with
      | `Done result -> result
      | `Continue (fresh, learned, j, iterations, prog_lengths) ->
          loop ~fresh:(Some fresh) learned j iterations prog_lengths
  in
  let result = loop ~fresh:None [] problem.universe 1 [] in
  retire_engine ();
  result
