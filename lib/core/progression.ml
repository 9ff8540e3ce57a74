open Lbr_logic
open Lbr_sat

let r_plus cnf learned =
  Cnf.add_clauses cnf
    (List.map (fun l -> Clause.of_disjunction ~pos:(Assignment.to_list l)) learned)

(* A progression stored once: the variables of the entries in entry order
   ([trail]) and where each entry ends ([ends.(r)] is one past entry [r]'s
   last variable), so entry [r] is the segment from [ends.(r - 1)] (0 for
   the first) and prefix union [r] the segment from 0.  Built from the
   engine, [trail] is its propagation trail verbatim.  Sets are built
   only when asked for: GBR reads the head, the O(log n) probes of its
   binary search and the one learned entry. *)
type t = { trail : Var.t array; ends : int array; length : int }

let length p = p.length

let check p r name =
  if r < 0 || r >= p.length then invalid_arg ("Progression." ^ name ^ ": out of range")

let entry p r =
  check p r "entry";
  let lo = if r = 0 then 0 else p.ends.(r - 1) in
  Assignment.of_slice p.trail ~pos:lo ~len:(p.ends.(r) - lo)

let prefix p r =
  check p r "prefix";
  Assignment.of_slice p.trail ~pos:0 ~len:p.ends.(r)

let entries p = List.init p.length (entry p)

let of_entries es =
  let trail = Array.make (List.fold_left (fun n e -> n + Assignment.cardinal e) 0 es) 0 in
  let ends = Array.make (List.length es) 0 in
  let pos = ref 0 in
  List.iteri
    (fun r e ->
      Assignment.iter
        (fun v ->
          trail.(!pos) <- v;
          incr pos)
        e;
      ends.(r) <- !pos)
    es;
  { trail; ends; length = Array.length ends }

(* Entry construction over a prepared engine (fresh from [create], or a
   persistent engine after [add_clause] + [narrow]); each variable of the
   universe is propagated at most once in total.  The next excluded variable
   is found by a pointer scan over the [<]-sorted universe — the covered set
   only grows, so the pointer never moves back and the whole scan is
   O(|universe|) across all entries.  Every true variable is on the engine
   trail, in the order it turned true, so D₀ is the trail before the first
   assumption and each later entry the trail segment its assumption added:
   the progression is one trail copy plus one mark per entry. *)
let entries_on_engine ?sorted engine ~order ~universe =
  Lbr_obs.Trace.with_span "sat.engine-propagate"
    ~args:(fun () -> [ ("universe", Lbr_obs.Trace.Int (Assignment.cardinal universe)) ])
  @@ fun () ->
  Perf.time "sat.engine-propagate" @@ fun () ->
  let sorted =
    match sorted with
    | Some s -> s
    | None -> Assignment.to_list universe |> Order.sort order |> Array.of_list
  in
  let n = Array.length sorted in
  (* D₀, then at most one entry per universe variable. *)
  let ends = Array.make (n + 1) 0 in
  (* D₀ may be empty when nothing is required; the progression is still
     well-defined (its first prefix is the empty, valid sub-input). *)
  ends.(0) <- Msa.Engine.mark engine;
  let rec go len i =
    if i >= n then Ok len
    else if Msa.Engine.is_true engine sorted.(i) then go len (i + 1)
    else
      match Msa.Engine.assume engine sorted.(i) with
      | Error `Conflict -> Error `Conflict
      | Ok () ->
          ends.(len) <- Msa.Engine.mark engine;
          go (len + 1) (i + 1)
  in
  let result =
    Result.map
      (fun length -> { trail = Msa.Engine.trail engine; ends; length })
      (go 1 0)
  in
  Msa.Engine.flush_counters engine;
  result

(* Fast path: an arena-recycled engine per progression. *)
let build_fast ~cnf ~order ~universe =
  let arena = Msa.Arena.default () in
  match Msa.Engine.create ~arena cnf ~order ~universe with
  | Error `Conflict -> Error `Conflict
  | Ok engine ->
      let result = entries_on_engine engine ~order ~universe in
      Msa.Arena.release arena engine;
      result

(* Slow path for formulas outside the implication fragment.  One engine is
   created and snapshotted at its post-[create] quiescent point; each entry
   re-assumes [covered ∪ {x}] in ascending order and rolls back, which
   reproduces a fresh engine run on the same required set (same state, same
   closure, same conflicts) without re-indexing the formula per entry.
   Entries whose fixpoint conflicts fall back to DPLL search plus greedy
   minimization, exactly as {!Msa.compute} would. *)
let build_slow ~cnf ~order ~universe =
  let restricted = lazy (Cnf.restrict cnf ~keep:universe) in
  let general_msa ~required =
    match Solver.solve_with (Lazy.force restricted) ~required with
    | None -> None
    | Some model -> Some (Solver.minimize (Lazy.force restricted) ~order ~required ~model)
  in
  let entry_closure ~engine ~required =
    match engine with
    | None -> general_msa ~required
    | Some (engine, base) -> (
        match Msa.Engine.assume_all engine (Assignment.to_list required) with
        | Ok () ->
            let closure = Msa.Engine.true_set engine in
            Msa.Engine.rollback engine base;
            Some closure
        | Error `Conflict ->
            Msa.Engine.rollback engine base;
            general_msa ~required)
  in
  let arena = Msa.Arena.default () in
  let engine =
    match Msa.Engine.create ~arena cnf ~order ~universe with
    | Error `Conflict -> None
    | Ok e -> Some (e, Msa.Engine.snapshot e)
  in
  let d0 =
    match engine with
    | None -> general_msa ~required:Assignment.empty
    | Some (e, _) -> Some (Msa.Engine.true_set e)
  in
  let result =
    match d0 with
    | None -> Error `Unsat
    | Some d0 ->
        let rec entries acc covered =
          let remaining = Assignment.diff universe covered in
          match Order.min_of order remaining with
          | None -> Ok (List.rev acc)
          | Some x -> (
              match entry_closure ~engine ~required:(Assignment.add x covered) with
              | None -> Error `Unsat
              | Some closure ->
                  let entry = Assignment.diff closure covered in
                  entries (entry :: acc) (Assignment.union covered closure))
        in
        entries [ d0 ] d0
  in
  (match engine with Some (e, _) -> Msa.Arena.release arena e | None -> ());
  result

let make ~cnf ~order ~learned ~universe =
  let cnf = r_plus cnf learned in
  match build_fast ~cnf ~order ~universe with
  | Ok p -> Ok p
  | Error `Conflict -> Result.map of_entries (build_slow ~cnf ~order ~universe)

let build ~cnf ~order ~learned ~universe =
  Result.map entries (make ~cnf ~order ~learned ~universe)

let build_incremental ?sorted ~engine ~order ~universe () =
  entries_on_engine ?sorted engine ~order ~universe

let prefix_unions entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let width =
    Array.fold_left (fun w d -> Int.max w (Assignment.word_width d)) 0 arr
  in
  (* One scratch buffer accumulates the running union; each prefix is a
     single snapshot of it, instead of a fresh union re-reading the previous
     prefix per step. *)
  let scratch = Array.make width 0 in
  let unions = Array.make n Assignment.empty in
  Array.iteri
    (fun i d ->
      Assignment.or_into d scratch;
      unions.(i) <- Assignment.of_words scratch)
    arr;
  unions
