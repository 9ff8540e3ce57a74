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

(* One arena-recycled engine per progression, whose buffers are copied
   out before it goes back to the arena.  The engine conflicts only on a
   clause whose premises are all in [universe] and whose heads all lie
   outside it (or on a formula already known unsatisfiable): [universe]
   violates that clause, and it is the last prefix union of any
   progression over it, so there is none and the answer is [`Unsat]. *)
let make ~cnf ~order ~learned ~universe =
  let arena = Msa.Arena.default () in
  match Msa.Engine.create ~arena (r_plus cnf learned) ~order ~universe with
  | Error `Conflict -> Error `Unsat
  | Ok engine ->
      let result =
        match on_engine engine ~universe with
        | Error `Conflict -> Error `Unsat
        | Ok p ->
            Ok
              (owned (Array.sub p.trail 0 p.ends.(p.length - 1)) (Array.sub p.ends 0 p.length)
                 p.length)
      in
      Msa.Arena.release arena engine;
      result

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
