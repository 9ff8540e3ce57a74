type t = { clauses : Clause.t list; count : int; unsat : bool }

let make clauses =
  let unsat = List.exists Clause.is_empty clauses in
  if unsat then { clauses = []; count = 0; unsat = true }
  else { clauses; count = List.length clauses; unsat = false }

let of_clauses = make

let top = { clauses = []; count = 0; unsat = false }

let clauses t = t.clauses

let is_unsat t = t.unsat

let conj a b =
  if a.unsat || b.unsat then { clauses = []; count = 0; unsat = true }
  else { clauses = a.clauses @ b.clauses; count = a.count + b.count; unsat = false }

let add_clause t c =
  if t.unsat then t
  else if Clause.is_empty c then { clauses = []; count = 0; unsat = true }
  else { t with clauses = c :: t.clauses; count = t.count + 1 }

let add_clauses t cs = List.fold_left add_clause t cs

let num_clauses t = t.count

let max_var t =
  List.fold_left
    (fun acc (c : Clause.t) ->
      let acc = Array.fold_left max acc c.neg in
      Array.fold_left max acc c.pos)
    (-1) t.clauses

let vars t =
  let n = max_var t + 1 in
  if n = 0 then Assignment.empty
  else begin
    let bits = Sys.int_size in
    let words = Array.make ((n + bits - 1) / bits) 0 in
    let set v = words.(v / bits) <- words.(v / bits) lor (1 lsl (v mod bits)) in
    List.iter
      (fun (c : Clause.t) ->
        Array.iter set c.neg;
        Array.iter set c.pos)
      t.clauses;
    Assignment.of_words words
  end

let holds t m =
  (not t.unsat)
  && List.for_all (fun c -> Clause.holds c ~true_set:(fun v -> Assignment.mem v m)) t.clauses

(* Shared worker for conditioning.  [sat_lit] decides whether a literal is
   made true by the substitution (satisfying the whole clause); [drop_lit]
   whether it is made false (and disappears from the clause). *)
let condition t ~sat_neg ~drop_neg ~sat_pos ~drop_pos =
  if t.unsat then t
  else
    let rec go acc count = function
      | [] -> { clauses = acc; count; unsat = false }
      | (c : Clause.t) :: rest ->
          if Array.exists sat_neg c.neg || Array.exists sat_pos c.pos then go acc count rest
          else
            let neg = Array.to_list c.neg |> List.filter (fun v -> not (drop_neg v)) in
            let pos = Array.to_list c.pos |> List.filter (fun v -> not (drop_pos v)) in
            if neg = [] && pos = [] then { clauses = []; count = 0; unsat = true }
            else go (Clause.make_exn ~neg ~pos :: acc) (count + 1) rest
    in
    go [] 0 t.clauses

let condition_true t x =
  let in_x v = Assignment.mem v x in
  (* x = 1: positive occurrences of x satisfy the clause; negative ones are
     falsified and dropped. *)
  condition t ~sat_neg:(fun _ -> false) ~drop_neg:in_x ~sat_pos:in_x ~drop_pos:(fun _ -> false)

let condition_false t x =
  let in_x v = Assignment.mem v x in
  (* x = 0: negative occurrences of x satisfy the clause; positive ones are
     falsified and dropped. *)
  condition t ~sat_neg:in_x ~drop_neg:(fun _ -> false) ~sat_pos:(fun _ -> false) ~drop_pos:in_x

let restrict t ~keep =
  let out v = not (Assignment.mem v keep) in
  condition t ~sat_neg:out ~drop_neg:(fun _ -> false) ~sat_pos:(fun _ -> false) ~drop_pos:out

type stats = {
  total : int;
  unit_pos : int;
  unit_neg : int;
  edges : int;
  horn : int;
  general : int;
}

let stats t =
  List.fold_left
    (fun s c ->
      let s = { s with total = s.total + 1 } in
      match Clause.kind c with
      | Clause.Unit_pos -> { s with unit_pos = s.unit_pos + 1 }
      | Clause.Unit_neg -> { s with unit_neg = s.unit_neg + 1 }
      | Clause.Edge -> { s with edges = s.edges + 1 }
      | Clause.Horn -> { s with horn = s.horn + 1 }
      | Clause.General -> { s with general = s.general + 1 })
    { total = 0; unit_pos = 0; unit_neg = 0; edges = 0; horn = 0; general = 0 }
    t.clauses

let graph_fraction t =
  let s = stats t in
  if s.total = 0 then 1.0
  else float_of_int (s.unit_pos + s.edges) /. float_of_int s.total

let pp pool ppf t =
  if t.unsat then Format.pp_print_string ppf "⊥"
  else
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (Clause.pp pool))
      t.clauses

(* ================================================================== *)
(* Packed representation: every literal of every clause in one flat int
   array, with per-variable occurrence lists.  Conditioning assigns a
   variable and updates per-clause counters; an explicit trail makes undo
   O(assignments) instead of rebuilding the clause list, so DPLL search,
   greedy minimization, and model counting all share one index build. *)

module Packed = struct
  type t = {
    nvars : int;
    nclauses : int;
    (* Clause [ci]'s literals are [lits.(cstart.(ci)) ..
       lits.(cstart.(ci+1) - 1)], negatives first, each side in increasing
       variable order.  A literal encodes variable [lit lsr 1]; the low bit
       is 1 for a negative occurrence. *)
    lits : int array;
    cstart : int array;
    occ_pos : int array array;
    occ_neg : int array array;
    (* Mutable conditioning state. *)
    value : Bytes.t;  (* '\000' unassigned, '\001' true, '\002' false *)
    free : int array;  (* per clause: unassigned literals *)
    satcnt : int array;  (* per clause: literals currently true *)
    trail : int array;  (* assigned variables, in order *)
    mutable trail_len : int;
    mutable active : int;  (* clauses with no true literal yet *)
    root_unsat : bool;  (* formula was flagged unsat before packing *)
    mutable conflict : bool;
    mutable units : int array;  (* stack of clauses pending unit propagation *)
    mutable units_len : int;
  }

  let num_vars t = t.nvars
  let num_clauses t = t.nclauses
  let mark t = t.trail_len
  let conflicted t = t.conflict
  let active_count t = t.active

  let value t v =
    if v >= t.nvars then `Unassigned
    else
      match Bytes.unsafe_get t.value v with
      | '\000' -> `Unassigned
      | '\001' -> `True
      | _ -> `False

  let push_unit t ci =
    if t.units_len = Array.length t.units then begin
      let grown = Array.make (2 * Array.length t.units) 0 in
      Array.blit t.units 0 grown 0 t.units_len;
      t.units <- grown
    end;
    t.units.(t.units_len) <- ci;
    t.units_len <- t.units_len + 1

  let make cnf =
    let clause_arr = Array.of_list cnf.clauses in
    let nclauses = Array.length clause_arr in
    let nvars = max_var cnf + 1 in
    let cstart = Array.make (nclauses + 1) 0 in
    Array.iteri
      (fun ci c -> cstart.(ci + 1) <- cstart.(ci) + Clause.num_literals c)
      clause_arr;
    let lits = Array.make cstart.(nclauses) 0 in
    let pos_count = Array.make nvars 0 and neg_count = Array.make nvars 0 in
    Array.iteri
      (fun ci (c : Clause.t) ->
        let k = ref cstart.(ci) in
        Array.iter
          (fun v ->
            lits.(!k) <- (v lsl 1) lor 1;
            incr k;
            neg_count.(v) <- neg_count.(v) + 1)
          c.neg;
        Array.iter
          (fun v ->
            lits.(!k) <- v lsl 1;
            incr k;
            pos_count.(v) <- pos_count.(v) + 1)
          c.pos)
      clause_arr;
    let occ_pos = Array.init nvars (fun v -> Array.make pos_count.(v) 0) in
    let occ_neg = Array.init nvars (fun v -> Array.make neg_count.(v) 0) in
    let pos_fill = Array.make nvars 0 and neg_fill = Array.make nvars 0 in
    Array.iteri
      (fun ci (c : Clause.t) ->
        Array.iter
          (fun v ->
            occ_neg.(v).(neg_fill.(v)) <- ci;
            neg_fill.(v) <- neg_fill.(v) + 1)
          c.neg;
        Array.iter
          (fun v ->
            occ_pos.(v).(pos_fill.(v)) <- ci;
            pos_fill.(v) <- pos_fill.(v) + 1)
          c.pos)
      clause_arr;
    let free = Array.init nclauses (fun ci -> cstart.(ci + 1) - cstart.(ci)) in
    let t =
      {
        nvars;
        nclauses;
        lits;
        cstart;
        occ_pos;
        occ_neg;
        value = Bytes.make nvars '\000';
        free;
        satcnt = Array.make nclauses 0;
        trail = Array.make nvars 0;
        trail_len = 0;
        active = nclauses;
        root_unsat = cnf.unsat;
        conflict = cnf.unsat;
        units = Array.make 16 0;
        units_len = 0;
      }
    in
    (* Input unit clauses seed the propagation queue. *)
    Array.iteri (fun ci n -> if n = 1 then push_unit t ci) free;
    t

  (* [Cnf.make] never stores an empty clause (the formula is flagged unsat
     instead), so length-1 clauses are exactly the input units. *)
  let is_input_unit t ci = t.cstart.(ci + 1) - t.cstart.(ci) = 1

  let assign t v b =
    Bytes.unsafe_set t.value v (if b then '\001' else '\002');
    t.trail.(t.trail_len) <- v;
    t.trail_len <- t.trail_len + 1;
    let sat_occ = if b then t.occ_pos.(v) else t.occ_neg.(v) in
    let fal_occ = if b then t.occ_neg.(v) else t.occ_pos.(v) in
    Array.iter
      (fun ci ->
        t.free.(ci) <- t.free.(ci) - 1;
        t.satcnt.(ci) <- t.satcnt.(ci) + 1;
        if t.satcnt.(ci) = 1 then t.active <- t.active - 1)
      sat_occ;
    Array.iter
      (fun ci ->
        t.free.(ci) <- t.free.(ci) - 1;
        if t.satcnt.(ci) = 0 then begin
          if t.free.(ci) = 0 then t.conflict <- true
          else if t.free.(ci) = 1 then push_unit t ci
        end)
      fal_occ

  (* Pending propagations are dropped, except input unit clauses: those hold
     at every trail position, so one still queued, or one the undo leaves
     unsatisfied again, must stay queued or the next propagation would
     treat its variable as free.  The work is proportional to the queue
     and the undone trail, never to the number of input units. *)
  let undo_to t m =
    let kept = ref 0 in
    for i = 0 to t.units_len - 1 do
      let ci = t.units.(i) in
      if is_input_unit t ci then begin
        t.units.(!kept) <- ci;
        incr kept
      end
    done;
    t.units_len <- !kept;
    while t.trail_len > m do
      t.trail_len <- t.trail_len - 1;
      let v = t.trail.(t.trail_len) in
      let b = Bytes.unsafe_get t.value v = '\001' in
      Bytes.unsafe_set t.value v '\000';
      let sat_occ = if b then t.occ_pos.(v) else t.occ_neg.(v) in
      let fal_occ = if b then t.occ_neg.(v) else t.occ_pos.(v) in
      Array.iter
        (fun ci ->
          t.free.(ci) <- t.free.(ci) + 1;
          t.satcnt.(ci) <- t.satcnt.(ci) - 1;
          if t.satcnt.(ci) = 0 then begin
            t.active <- t.active + 1;
            if is_input_unit t ci then push_unit t ci
          end)
        sat_occ;
      Array.iter
        (fun ci ->
          t.free.(ci) <- t.free.(ci) + 1;
          if t.satcnt.(ci) = 0 && is_input_unit t ci then push_unit t ci)
        fal_occ
    done;
    t.conflict <- t.root_unsat

  let propagate t =
    while (not t.conflict) && t.units_len > 0 do
      t.units_len <- t.units_len - 1;
      let ci = t.units.(t.units_len) in
      (* The clause may have been satisfied (or further shortened into a
         conflict) since it was queued; re-check before acting. *)
      if t.satcnt.(ci) = 0 && t.free.(ci) = 1 then begin
        let lit = ref (-1) in
        for k = t.cstart.(ci) to t.cstart.(ci + 1) - 1 do
          let l = t.lits.(k) in
          if Bytes.unsafe_get t.value (l lsr 1) = '\000' then lit := l
        done;
        assign t (!lit lsr 1) (!lit land 1 = 0)
      end
    done;
    not t.conflict

  (* DPLL search over the packed state.  Mirrors the previous list-based
     solver's heuristic: branch on the first literal of the first
     still-active clause (negatives stored first), false before true, which
     biases found models towards small true-sets.  On success the satisfying
     assignments are left on the trail for the caller to read and undo. *)
  let rec search t =
    propagate t
    && (t.active = 0
       ||
       let ci = ref 0 in
       while t.satcnt.(!ci) > 0 do
         incr ci
       done;
       let v = ref (-1) in
       (try
          for k = t.cstart.(!ci) to t.cstart.(!ci + 1) - 1 do
            let l = t.lits.(k) in
            if Bytes.unsafe_get t.value (l lsr 1) = '\000' then begin
              v := l lsr 1;
              raise Exit
            end
          done
        with Exit -> ());
       let m = t.trail_len in
       assign t !v false;
       if search t then true
       else begin
         undo_to t m;
         assign t !v true;
         if search t then true
         else begin
           undo_to t m;
           false
         end
       end)

  let model t =
    let bits = Sys.int_size in
    let words = Array.make ((t.nvars + bits - 1) / bits) 0 in
    for v = 0 to t.nvars - 1 do
      if Bytes.unsafe_get t.value v = '\001' then
        words.(v / bits) <- words.(v / bits) lor (1 lsl (v mod bits))
    done;
    Assignment.of_words words

  let solve t ~assume_true ~assume_false =
    let m = t.trail_len in
    let consistent =
      (not t.conflict)
      && (try
            List.iter
              (fun v ->
                if v < t.nvars then
                  match Bytes.get t.value v with
                  | '\000' -> assign t v true
                  | '\001' -> ()
                  | _ -> raise Exit)
              assume_true;
            List.iter
              (fun v ->
                if v < t.nvars then
                  match Bytes.get t.value v with
                  | '\000' -> assign t v false
                  | '\002' -> ()
                  | _ -> raise Exit)
              assume_false;
            true
          with Exit -> false)
    in
    let result = if consistent && search t then Some (model t) else None in
    undo_to t m;
    result

  let clause_is_active t ci = t.satcnt.(ci) = 0

  let clause_unassigned_vars t ci =
    let acc = ref [] in
    for k = t.cstart.(ci + 1) - 1 downto t.cstart.(ci) do
      let v = t.lits.(k) lsr 1 in
      if Bytes.unsafe_get t.value v = '\000' then acc := v :: !acc
    done;
    !acc

  let iter_clause_unassigned t ci f =
    for k = t.cstart.(ci) to t.cstart.(ci + 1) - 1 do
      let v = t.lits.(k) lsr 1 in
      if Bytes.unsafe_get t.value v = '\000' then f v
    done
end
