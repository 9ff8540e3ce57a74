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

(* Smallest r in (lo, hi] such that P(prefix.(r)), given ¬P(prefix.(lo)) and
   P(prefix.(hi)) — the latter by INV-PRO: the full prefix union equals the
   current search space J, which satisfied the predicate. *)
let binary_search predicate prog ~lo ~hi =
  let rec go lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if Predicate.run predicate (Progression.prefix prog mid) then
        go lo mid
      else go mid hi
  in
  go lo hi

(* One engine-advance step's outcome: the next iteration's progression and
   the engine that survives the step ([None] when it met a conflict and the
   entries come from the rebuild fallback, which retires it).  The
   progression borrows that engine's trail.  A speculative boundary build
   caches one of these until its iteration adopts it. *)
type prebuilt = { pb_prog : Progression.t; pb_engine : Msa.Engine.t option }

let reduce ?(check_invariants = false) ?(incremental = true) ?arena ?speculate
    (problem : Problem.t) ~order =
  let predicate = problem.predicate in
  let runs0 = Predicate.runs predicate and queries0 = Predicate.queries predicate in
  let max_iterations = Assignment.cardinal problem.universe + 1 in
  let arena = match arena with Some a -> a | None -> Msa.Arena.default () in
  (* The persistent engine threaded through every iteration.  [None] means
     the per-iteration rebuild path (r_plus + Engine.create) — by request
     ([~incremental:false], the reference oracle), or permanently after any
     conflict: the rebuild's fast path meets the same conflict and hands
     over to the slow path for formulas outside the implication fragment,
     so the fallback is byte-identical to never having had an engine. *)
  let engine =
    ref
      (if incremental then
         match
           Msa.Engine.create ~arena problem.constraints ~order
             ~universe:problem.universe
         with
         | Ok e -> Some e
         | Error `Conflict -> None
       else None)
  in
  (* Retiring the engine — permanently (conflict fallback) or at the end —
     returns its storage to the arena for the next reduction. *)
  let retire_engine () =
    match !engine with
    | Some e ->
        engine := None;
        Msa.Arena.release arena e
    | None -> ()
  in
  (* The one engine-advance step, on the main engine or a fork of it:
     append the just-learned set — entry [r] of the previous progression
     [prev], read from its trail; none on the first iteration, whose engine
     is freshly created — shrink the search space to [j] — the whole
     inter-iteration update, replacing the full-CNF copy and re-index —
     and build the progression incrementally.  A conflict anywhere
     releases the engine and falls back to the rebuild. *)
  let advance engine ~fresh ~learned j =
    let fallback () =
      Result.map
        (fun p -> { pb_prog = p; pb_engine = None })
        (Progression.make ~cnf:problem.constraints ~order ~learned ~universe:j)
    in
    match engine with
    | None -> fallback ()
    | Some e -> (
        let prepared =
          match fresh with
          | None -> Ok ()
          | Some (prev, r) ->
              Result.bind (Progression.learn e prev r) (fun () -> Msa.Engine.narrow e ~keep:j)
        in
        let built =
          Result.bind prepared (fun () ->
              Result.map
                (fun p -> { pb_prog = p; pb_engine = Some e })
                (Progression.build_incremental ~engine:e ~order ~universe:j ()))
        in
        match built with
        | Ok pb -> Ok pb
        | Error `Conflict ->
            Msa.Arena.release arena e;
            fallback ())
  in
  (* --- Speculation ------------------------------------------------------
     With a {!Speculate} table, the sequential loop above stays the
     authority for every verdict; speculation only prepares work the loop
     is about to demand.  Two kinds of preparation:

     - probe prefetch: before running the probe at [mid], hand both
       branches' next probes to idle workers, and cancel the loser once
       the real verdict lands;
     - boundary builds: when a branch pins the search result [r], fork the
       engine, apply the learned clause and narrow, and build the next
       iteration's progression now — the winning build is adopted wholesale
       (the fork becomes the main engine), the losing one is released.

     Both are pure with respect to the loop's observable state: builds run
     on forks, never the main engine, and every predicate verdict is still
     consumed on the demand path in the sequential order. *)
  let boundaries = ref [] in
  let release_prebuilt pb =
    match pb.pb_engine with
    | Some f -> Msa.Arena.release arena f
    | None -> ()
  in
  (* Release every cached boundary except [keep]'s, returning that one. *)
  let flush_boundaries ?keep () =
    let kept = ref None in
    List.iter
      (fun (r, pb) ->
        if keep = Some r then kept := Some pb else release_prebuilt pb)
      !boundaries;
    boundaries := [];
    !kept
  in
  (* Build iteration [k+1]'s progression under the assumption that the
     current search lands on [r] — on a fork, leaving the main engine, and
     so [prog], which borrows its trail, untouched.  [advance] is the step
     the inline path takes too, so the adopted state is exactly what it
     would compute. *)
  let build_boundary prog learned r =
    match
      advance
        (Option.map (Msa.Engine.fork ~arena) !engine)
        ~fresh:(Some (prog, r))
        ~learned:(Progression.entry prog r :: learned)
        (Progression.prefix prog r)
    with
    | Ok pb -> Some pb
    | Error `Unsat ->
        (* Don't cache: the demand path reproduces the [`Unsat] inline. *)
        None
  in
  (* The next demand inside the half-open search interval (lo, hi]: a probe
     while the interval is wide, the next iteration's head once it pins
     [r = hi].  Prefetching a boundary also builds and caches its
     progression (see above). *)
  let next_branch sp prog learned ~lo ~hi =
    if hi - lo <= 1 then begin
      if not (List.mem_assoc hi !boundaries) then begin
        match build_boundary prog learned hi with
        | Some pb ->
            boundaries := (hi, pb) :: !boundaries;
            Speculate.prefetch sp (Progression.prefix pb.pb_prog 0)
        | None -> ()
      end;
      `Boundary hi
    end
    else begin
      let mid = (lo + hi) / 2 in
      Speculate.prefetch sp (Progression.prefix prog mid);
      `Probe mid
    end
  in
  let cancel_branch sp prog = function
    | `Probe mid -> Speculate.cancel sp (Progression.prefix prog mid)
    | `Boundary r -> (
        match List.assoc_opt r !boundaries with
        | Some pb ->
            boundaries := List.remove_assoc r !boundaries;
            Speculate.cancel sp (Progression.prefix pb.pb_prog 0);
            release_prebuilt pb
        | None -> ())
  in
  (* [binary_search] with branch prefetching: same probes in the same
     order, but before each verdict both possible next demands are already
     on their way.  A verdict hint (a replay journal that already knows
     this probe) prunes the prefetch to the branch that will be taken;
     the hint is advisory — the authoritative verdict still comes from
     [Predicate.run], and a wrong hint only forfeits a prefetch. *)
  let search_speculative sp prog learned ~lo ~hi =
    let rec go lo hi =
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        let phi = Progression.prefix prog mid in
        let h = Speculate.hint sp phi in
        let on_pass =
          if h = Some false then None
          else Some (next_branch sp prog learned ~lo ~hi:mid)
        in
        let on_fail =
          if h = Some true then None
          else Some (next_branch sp prog learned ~lo:mid ~hi)
        in
        if Predicate.run predicate phi then begin
          Option.iter (cancel_branch sp prog) on_fail;
          go lo mid
        end
        else begin
          Option.iter (cancel_branch sp prog) on_pass;
          go mid hi
        end
      end
    in
    go lo hi
  in
  (* One iteration, factored out of [loop] so the [gbr.iteration] trace
     span covers exactly this iteration's work — recursing inside the span
     would nest every later iteration under the first.  [prebuilt] is the
     adopted speculative build for this iteration, when the previous
     search's winning boundary had one. *)
  let iterate ~fresh ~prebuilt learned j iterations prog_lengths =
      let built =
        match prebuilt with
        | Some pb -> Ok pb
        | None ->
            (* The inline step advances the main engine itself. *)
            let e = !engine in
            engine := None;
            advance e ~fresh ~learned j
      in
      match built with
      | Error `Unsat -> `Done (Error `Unsat)
      | Ok { pb_prog = prog; pb_engine } -> (
          (* Adopt the step's state wholesale: its engine (or the
             fallback's [None]) replaces the main one — a speculative
             fork retires it. *)
          Option.iter (Msa.Arena.release arena) !engine;
          engine := pb_engine;
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
             (0, n-1]: start it before the head runs.  A passing head ends
             the reduction, so that branch has nothing to prefetch — and a
             hint that the head passes prunes the fail prefetch too. *)
          let head_fail =
            match speculate with
            | Some sp when n > 1 && Speculate.hint sp head <> Some true ->
                Some (next_branch sp prog learned ~lo:0 ~hi:(n - 1))
            | _ -> None
          in
          if Predicate.run predicate head then begin
            (match (speculate, head_fail) with
            | Some sp, Some branch -> cancel_branch sp prog branch
            | _ -> ());
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
               predicate when it became the search space: the predicate is
               not behaving like a function of its input. *)
            `Done (Error `Predicate_inconsistent)
          else begin
            let r =
              match speculate with
              | Some sp ->
                  search_speculative sp prog learned ~lo:0 ~hi:(n - 1)
              | None -> binary_search predicate prog ~lo:0 ~hi:(n - 1)
            in
            let prebuilt = flush_boundaries ~keep:r () in
            `Continue
              ((prog, r), Progression.entry prog r :: learned, Progression.prefix prog r,
               iterations + 1, prog_lengths, prebuilt)
          end)
  in
  let rec loop ~fresh ~prebuilt learned j iterations prog_lengths =
    if iterations > max_iterations then begin
      (match prebuilt with Some pb -> release_prebuilt pb | None -> ());
      Error `Predicate_inconsistent
    end
    else
      let step =
        Lbr_obs.Trace.with_span "gbr.iteration"
          ~args:(fun () ->
            [
              ("iteration", Lbr_obs.Trace.Int iterations);
              ("universe", Lbr_obs.Trace.Int (Assignment.cardinal j));
              ("learned", Lbr_obs.Trace.Int (List.length learned));
            ])
          (fun () -> iterate ~fresh ~prebuilt learned j iterations prog_lengths)
      in
      match step with
      | `Done result -> result
      | `Continue (fresh, learned, j, iterations, prog_lengths, prebuilt) ->
          loop ~fresh:(Some fresh) ~prebuilt learned j iterations prog_lengths
  in
  let result = loop ~fresh:None ~prebuilt:None [] problem.universe 1 [] in
  ignore (flush_boundaries () : prebuilt option);
  retire_engine ();
  result
