open Lbr_logic
open Lbr_sat

let r_plus cnf learned =
  Cnf.add_clauses cnf
    (List.map (fun l -> Clause.of_disjunction ~pos:(Assignment.to_list l)) learned)

(* A progression stored once: the variables of the entries in entry order
   ([trail]) and where each entry ends ([ends.(r)] is one past entry [r]'s
   last variable), so entry [r] is the segment from [ends.(r - 1)] (0 for
   the first) and prefix union [r] the segment from 0.  Built on a
   persistent engine, the two arrays are the engine's own live buffers,
   borrowed while [owner]'s epoch is still [epoch]; every other
   progression owns its arrays.  Sets are built only when asked for: GBR
   reads the head, the O(log n) probes of its binary search and the one
   learned entry.  Prefix reads share a cursor: [bits] is the union of
   [trail.(0) .. trail.(at - 1)], and a read moves it to its target by
   setting or clearing only the segment in between, so a binary search
   costs O(n) bit operations in all instead of O(n) per probe. *)
type t = {
  trail : Var.t array;
  ends : int array;
  length : int;
  owner : Msa.Engine.t option;
  epoch : int;
  mutable bits : int array;
  mutable at : int;
}

let owned trail ends length = { trail; ends; length; owner = None; epoch = 0; bits = [||]; at = 0 }

let valid p name =
  match p.owner with
  | Some e when Msa.Engine.epoch e <> p.epoch ->
      invalid_arg ("Progression." ^ name ^ ": the engine was rolled back since the build")
  | _ -> ()

let length p =
  valid p "length";
  p.length

let check p r name =
  valid p name;
  if r < 0 || r >= p.length then invalid_arg ("Progression." ^ name ^ ": out of range")

let start p r = if r = 0 then 0 else p.ends.(r - 1)

let entry p r =
  check p r "entry";
  let lo = start p r in
  Assignment.of_slice p.trail ~pos:lo ~len:(p.ends.(r) - lo)

let word_bits = Sys.int_size

let prefix p r =
  check p r "prefix";
  let target = p.ends.(r) in
  if Array.length p.bits = 0 then begin
    let top = ref 0 in
    for i = 0 to p.ends.(p.length - 1) - 1 do
      top := Int.max !top p.trail.(i)
    done;
    p.bits <- Array.make ((!top / word_bits) + 1) 0
  end;
  let bits = p.bits and trail = p.trail in
  if target > p.at then
    for i = p.at to target - 1 do
      let v = trail.(i) in
      bits.(v / word_bits) <- bits.(v / word_bits) lor (1 lsl (v mod word_bits))
    done
  else
    for i = target to p.at - 1 do
      let v = trail.(i) in
      bits.(v / word_bits) <- bits.(v / word_bits) land lnot (1 lsl (v mod word_bits))
    done;
  p.at <- target;
  Assignment.of_words bits

let entries p = List.init (length p) (entry p)

let learn engine p r =
  check p r "learn";
  Msa.Engine.add_clause_sub engine p.trail (start p r) p.ends.(r)

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
  owned trail ends (Array.length ends)

(* Entry construction over a prepared engine (fresh from [create], or a
   persistent engine after [add_clause] + [narrow]): the engine's [sweep]
   propagates each variable of the universe at most once in total.  Every
   true variable is on the engine trail, in the order it turned true, so
   D₀ is the trail before the first assumption and each later entry the
   trail segment its assumption added: the progression is the trail and
   the sweep's marks, read in place. *)
let on_engine engine ~universe =
  Lbr_obs.Trace.with_span "sat.engine-propagate"
    ~args:(fun () -> [ ("universe", Lbr_obs.Trace.Int (Assignment.cardinal universe)) ])
  @@ fun () ->
  Perf.time "sat.engine-propagate" @@ fun () ->
  Result.map
    (fun length ->
      {
        trail = Msa.Engine.trail engine;
        ends = Msa.Engine.ends engine;
        length;
        owner = Some engine;
        epoch = Msa.Engine.epoch engine;
        bits = [||];
        at = 0;
      })
    (Msa.Engine.sweep engine)

(* Fast path: an arena-recycled engine per progression, whose buffers are
   copied out before it goes back to the arena. *)
let build_fast ~cnf ~order ~universe =
  let arena = Msa.Arena.default () in
  match Msa.Engine.create ~arena cnf ~order ~universe with
  | Error `Conflict -> Error `Conflict
  | Ok engine ->
      let result =
        Result.map
          (fun p ->
            owned (Array.sub p.trail 0 p.ends.(p.length - 1)) (Array.sub p.ends 0 p.length)
              p.length)
          (on_engine engine ~universe)
      in
      Msa.Arena.release arena engine;
      result

(* Slow path for formulas outside the implication fragment.  One engine is
   created and snapshotted at its post-[create] quiescent point; each entry
   re-assumes [covered ∪ {x}] in ascending order and rolls back, which
   reproduces a fresh engine run on the same required set (same state, same
   closure, same conflicts) without re-indexing the formula per entry.
   Entries whose fixpoint conflicts fall back to a solved model plus greedy
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

let build_incremental ~engine ~universe = on_engine engine ~universe

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
