type t = { clauses : Clause.t list; count : int; unsat : bool }

let make clauses =
  let unsat = List.exists Clause.is_empty clauses in
  if unsat then { clauses = []; count = 0; unsat = true }
  else { clauses; count = List.length clauses; unsat = false }

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
      let acc = Array.fold_left Int.max acc c.neg in
      Array.fold_left Int.max acc c.pos)
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

(* ================================================================== *)
(* Packed representation: one literal array per clause and one occurrence
   array per literal.  Conditioning assigns a variable and updates
   per-clause counters; an explicit trail makes undo O(assignments)
   instead of rebuilding the clause list, so DPLL search, greedy
   minimization, and model counting all share one index build. *)

module Packed = struct
  type t = {
    nvars : int;
    nclauses : int;
    (* Literals are DIMACS-style: [v + 1] for variable [v], [-(v + 1)] for
       its negation. *)
    lits : int array array;  (* per clause *)
    (* [occ.(code l)]: the clauses containing literal [l], ascending. *)
    occ : int array array;
    (* Mutable conditioning state. *)
    value : Bytes.t;  (* '\000' unassigned, '\001' true, '\002' false *)
    free : int array;  (* per clause: unassigned literals *)
    satcnt : int array;  (* per clause: literals currently true *)
    trail : int array;  (* assigned variables, in order *)
    mutable trail_len : int;
    mutable active : int;  (* clauses with no true literal yet *)
    root_unsat : bool;  (* formula was unsatisfiable before packing *)
    mutable conflict : bool;
    mutable units : int array;  (* stack of clauses pending unit propagation *)
    mutable units_len : int;
  }

  let var l = if l > 0 then l - 1 else -l - 1

  (* [2v] for [v]'s positive literal, [2v + 1] for its negation. *)
  let code l = if l > 0 then (l - 1) lsl 1 else ((-l - 1) lsl 1) lor 1

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

  (* Clauses are packed negatives first, each side in increasing variable
     order — the order [search]'s branching, and so the models it returns,
     rely on.  No clause is empty; per-variable state is sized by the
     largest variable that occurs.  Every array is per clause, per literal
     or per variable, so a small formula is packed in the minor heap. *)
  let make cnf =
    let pack ({ neg; pos } : Clause.t) =
      let nn = Array.length neg in
      let lits = Array.make (nn + Array.length pos) 0 in
      Array.iteri (fun j v -> lits.(j) <- -(v + 1)) neg;
      Array.iteri (fun j v -> lits.(nn + j) <- v + 1) pos;
      lits
    in
    let clauses = Array.of_list (List.map pack cnf.clauses) in
    let nclauses = Array.length clauses in
    let nvars =
      Array.fold_left (Array.fold_left (fun n l -> Int.max n (var l + 1))) 0 clauses
    in
    (* Count each literal's occurrences, then fill back to front so every
       occurrence array comes out in ascending clause order. *)
    let count = Array.make (2 * nvars) 0 in
    for ci = 0 to nclauses - 1 do
      let c = clauses.(ci) in
      for j = 0 to Array.length c - 1 do
        let l = code c.(j) in
        count.(l) <- count.(l) + 1
      done
    done;
    let occ = Array.map (fun n -> Array.make n 0) count in
    for ci = nclauses - 1 downto 0 do
      let c = clauses.(ci) in
      for j = 0 to Array.length c - 1 do
        let l = code c.(j) in
        count.(l) <- count.(l) - 1;
        occ.(l).(count.(l)) <- ci
      done
    done;
    let free = Array.map Array.length clauses in
    let t =
      {
        nvars;
        nclauses;
        lits = clauses;
        occ;
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
    for ci = 0 to nclauses - 1 do
      if free.(ci) = 1 then push_unit t ci
    done;
    t

  (* No packed clause is empty, so length-1 clauses are exactly the input
     units. *)
  let is_input_unit t ci = Array.length t.lits.(ci) = 1

  (* Plain [for] loops over the occurrence arrays: an assignment, and its
     undo, allocate nothing.  True occurrences are counted before false
     ones, so a clause holding both [x] and [¬x] is never seen as falsified
     or unit by its own variable. *)
  let assign t v b =
    Bytes.unsafe_set t.value v (if b then '\001' else '\002');
    t.trail.(t.trail_len) <- v;
    t.trail_len <- t.trail_len + 1;
    let sat = if b then v lsl 1 else (v lsl 1) lor 1 in
    let sat_occ = t.occ.(sat) and fal_occ = t.occ.(sat lxor 1) in
    for k = 0 to Array.length sat_occ - 1 do
      let ci = sat_occ.(k) in
      t.free.(ci) <- t.free.(ci) - 1;
      t.satcnt.(ci) <- t.satcnt.(ci) + 1;
      if t.satcnt.(ci) = 1 then t.active <- t.active - 1
    done;
    for k = 0 to Array.length fal_occ - 1 do
      let ci = fal_occ.(k) in
      t.free.(ci) <- t.free.(ci) - 1;
      if t.satcnt.(ci) = 0 then begin
        if t.free.(ci) = 0 then t.conflict <- true
        else if t.free.(ci) = 1 then push_unit t ci
      end
    done

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
      let sat = if Bytes.unsafe_get t.value v = '\001' then v lsl 1 else (v lsl 1) lor 1 in
      let sat_occ = t.occ.(sat) and fal_occ = t.occ.(sat lxor 1) in
      Bytes.unsafe_set t.value v '\000';
      for k = 0 to Array.length sat_occ - 1 do
        let ci = sat_occ.(k) in
        t.free.(ci) <- t.free.(ci) + 1;
        t.satcnt.(ci) <- t.satcnt.(ci) - 1;
        if t.satcnt.(ci) = 0 then begin
          t.active <- t.active + 1;
          if is_input_unit t ci then push_unit t ci
        end
      done;
      for k = 0 to Array.length fal_occ - 1 do
        let ci = fal_occ.(k) in
        t.free.(ci) <- t.free.(ci) + 1;
        if t.satcnt.(ci) = 0 && is_input_unit t ci then push_unit t ci
      done
    done;
    t.conflict <- t.root_unsat

  let propagate t =
    while (not t.conflict) && t.units_len > 0 do
      t.units_len <- t.units_len - 1;
      let ci = t.units.(t.units_len) in
      (* The clause may have been satisfied (or further shortened into a
         conflict) since it was queued; re-check before acting. *)
      if t.satcnt.(ci) = 0 && t.free.(ci) = 1 then begin
        let c = t.lits.(ci) in
        let lit = ref 0 in
        for k = 0 to Array.length c - 1 do
          if Bytes.unsafe_get t.value (var c.(k)) = '\000' then lit := c.(k)
        done;
        assign t (var !lit) (!lit > 0)
      end
    done;
    not t.conflict

  let first_active t =
    let ci = ref 0 in
    while t.satcnt.(!ci) > 0 do
      incr ci
    done;
    !ci

  (* DPLL: branch on the first unassigned literal of the first active
     clause, false first — the same heuristic as the original list-based
     solver, so the models the MSA fallback and progression observe are
     unchanged.  On success the satisfying assignments are left on the
     trail for the caller to read and undo. *)
  let rec search t =
    propagate t
    && (t.active = 0
       ||
       let c = t.lits.(first_active t) in
       let k = ref 0 in
       while Bytes.unsafe_get t.value (var c.(!k)) <> '\000' do
         incr k
       done;
       let v = var c.(!k) in
       let m = t.trail_len in
       assign t v false;
       search t
       || begin
            undo_to t m;
            assign t v true;
            search t
            || begin
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
    let c = t.lits.(ci) in
    let acc = ref [] in
    for k = Array.length c - 1 downto 0 do
      let v = var c.(k) in
      if Bytes.unsafe_get t.value v = '\000' then acc := v :: !acc
    done;
    !acc

  let iter_clause_unassigned t ci f =
    let c = t.lits.(ci) in
    for k = 0 to Array.length c - 1 do
      let v = var c.(k) in
      if Bytes.unsafe_get t.value v = '\000' then f v
    done
end
