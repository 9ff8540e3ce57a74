(* The formula is one packed clause store: every clause's literals live in
   one [lits] array, premises (negated variables) first and then heads,
   each side strictly increasing.  Clause [ci] spans
   [start.(ci) .. start.(ci + 1) - 1] and its heads begin at [head.(ci)].
   A formula is immutable once built; [occurs] is the set of variables that
   occur, so [vars] and [max_var] read it instead of the literals.  An
   unsatisfiable formula keeps no clauses. *)
type t = {
  lits : Var.t array;
  start : int array;  (* one per clause, plus the end of the last *)
  head : int array;  (* one per clause *)
  occurs : Assignment.t;
  max_var : Var.t;
  unsat : bool;
}

let unsat_formula =
  { lits = [||]; start = [| 0 |]; head = [||]; occurs = Assignment.empty; max_var = -1; unsat = true }

let top = { unsat_formula with unsat = false }

let lits t = t.lits
let starts t = t.start
let heads t = t.head
let num_clauses t = Array.length t.head
let is_unsat t = t.unsat
let vars t = t.occurs
let max_var t = t.max_var

(* Growing buffers for a formula under construction.  [finish] copies the
   clauses out in exact-size arrays, so the buffers are reused: one set per
   domain, taken by a builder and handed back when it finishes (a builder
   that finds the set taken, by a builder still open in the same domain,
   makes its own). *)
type scratch = {
  mutable s_lits : Var.t array;
  mutable s_nlits : int;
  mutable s_start : int array;  (* clause starts, one per closed clause *)
  mutable s_head : int array;
  mutable s_nclauses : int;
  mutable s_unsat : bool;
  mutable s_max_var : Var.t;  (* over the closed clauses, [-1] for none *)
}

let new_scratch () =
  {
    s_lits = Array.make 64 0;
    s_nlits = 0;
    s_start = Array.make 16 0;
    s_head = Array.make 16 0;
    s_nclauses = 0;
    s_unsat = false;
    s_max_var = -1;
  }

let scratch_key : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Some (new_scratch ())))

let take_scratch () =
  let cell = Domain.DLS.get scratch_key in
  match !cell with
  | Some s ->
      cell := None;
      s.s_nlits <- 0;
      s.s_nclauses <- 0;
      s.s_unsat <- false;
      s.s_max_var <- -1;
      s
  | None -> new_scratch ()

let give_back s = (Domain.DLS.get scratch_key) := Some s

(* Room for [k] more literals. *)
let reserve s k =
  if s.s_nlits + k > Array.length s.s_lits then begin
    let grown = Array.make (Int.max (2 * Array.length s.s_lits) (s.s_nlits + k)) 0 in
    Array.blit s.s_lits 0 grown 0 s.s_nlits;
    s.s_lits <- grown
  end

(* After [reserve]. *)
let push s v =
  Array.unsafe_set s.s_lits s.s_nlits v;
  s.s_nlits <- s.s_nlits + 1

(* A clause is written as: [open_clause], its premises, [open_heads], its
   heads, [close_clause]; an empty one makes the formula unsatisfiable. *)
let open_clause s =
  let n = s.s_nclauses in
  if n = Array.length s.s_start then begin
    let grow a =
      let g = Array.make (2 * n) 0 in
      Array.blit a 0 g 0 n;
      g
    in
    s.s_start <- grow s.s_start;
    s.s_head <- grow s.s_head
  end;
  s.s_start.(n) <- s.s_nlits

let open_heads s = s.s_head.(s.s_nclauses) <- s.s_nlits

let close_clause s =
  let lo = s.s_start.(s.s_nclauses) and h = s.s_head.(s.s_nclauses) and hi = s.s_nlits in
  if hi = lo then s.s_unsat <- true
  else begin
    (* Each side is increasing, so the clause's largest variable ends one
       of them. *)
    if h > lo then s.s_max_var <- Int.max s.s_max_var s.s_lits.(h - 1);
    if hi > h then s.s_max_var <- Int.max s.s_max_var s.s_lits.(hi - 1);
    s.s_nclauses <- s.s_nclauses + 1
  end

(* The formula of the scratch's clauses, in order or, with [rev], last
   clause first. *)
let of_scratch ~rev s =
  if s.s_unsat then unsat_formula
  else begin
    let n = s.s_nclauses and nlits = s.s_nlits in
    let src = s.s_lits in
    let lits = Array.make nlits 0 in
    let start = Array.make (n + 1) nlits in
    let head = Array.make n 0 in
    let bits = Sys.int_size in
    let words = Array.make ((s.s_max_var / bits) + 1) 0 in
    let at = ref 0 in
    for k = 0 to n - 1 do
      let ci = if rev then n - 1 - k else k in
      let lo = s.s_start.(ci) in
      let hi = if ci + 1 < n then s.s_start.(ci + 1) else nlits in
      start.(k) <- !at;
      head.(k) <- !at + (s.s_head.(ci) - lo);
      for i = lo to hi - 1 do
        let v = Array.unsafe_get src i in
        Array.unsafe_set lits !at v;
        incr at;
        let w = v / bits in
        Array.unsafe_set words w (Array.unsafe_get words w lor (1 lsl (v - (w * bits))))
      done
    done;
    { lits; start; head; occurs = Assignment.of_words words; max_var = s.s_max_var; unsat = false }
  end

let finish ~rev s =
  let t = of_scratch ~rev s in
  give_back s;
  t

(* Whether [a.(i - 1) .. a.(hi - 1)] is strictly increasing. *)
let rec increasing_from (a : Var.t array) i hi = i >= hi || (a.(i - 1) < a.(i) && increasing_from a (i + 1) hi)

(* Whether the sorted slices [a.(i) .. a.(ihi - 1)] and [b.(j) .. b.(jhi - 1)]
   share no variable. *)
let rec disjoint_from (a : Var.t array) (b : Var.t array) i ihi j jhi =
  i >= ihi
  || j >= jhi
  ||
  let x = a.(i) and y = b.(j) in
  x <> y
  && if x < y then disjoint_from a b (i + 1) ihi j jhi else disjoint_from a b i ihi (j + 1) jhi

(* The clause of premises [neg.(nlo) .. neg.(nhi - 1)] and heads
   [pos.(plo) .. pos.(phi - 1)], both sorted. *)
let add_sorted_sub s neg nlo nhi pos plo phi =
  if not s.s_unsat then begin
    reserve s (nhi - nlo + (phi - plo));
    open_clause s;
    for i = nlo to nhi - 1 do
      push s (Array.unsafe_get neg i)
    done;
    open_heads s;
    for i = plo to phi - 1 do
      push s (Array.unsafe_get pos i)
    done;
    close_clause s
  end

let add_sorted s ~neg ~pos = add_sorted_sub s neg 0 (Array.length neg) pos 0 (Array.length pos)

(* Clauses [lo .. hi - 1] of [t], in order. *)
let copy_clauses s t lo hi =
  reserve s (t.start.(hi) - t.start.(lo));
  for ci = lo to hi - 1 do
    open_clause s;
    for i = t.start.(ci) to t.head.(ci) - 1 do
      push s t.lits.(i)
    done;
    open_heads s;
    for i = t.head.(ci) to t.start.(ci + 1) - 1 do
      push s t.lits.(i)
    done;
    close_clause s
  done

module Builder = struct
  type cnf = t
  type t = scratch

  let create = take_scratch

  let add_sub b neg nlo nhi pos plo phi =
    if not (0 <= nlo && nlo <= nhi && nhi <= Array.length neg) then
      invalid_arg "Cnf.Builder.add: premise slice out of bounds";
    if not (0 <= plo && plo <= phi && phi <= Array.length pos) then
      invalid_arg "Cnf.Builder.add: head slice out of bounds";
    if not (increasing_from neg (nlo + 1) nhi && increasing_from pos (plo + 1) phi) then
      invalid_arg "Cnf.Builder.add: literals not strictly increasing";
    if disjoint_from neg pos nlo nhi plo phi then add_sorted_sub b neg nlo nhi pos plo phi

  let add b ~neg ~pos = add_sub b neg 0 (Array.length neg) pos 0 (Array.length pos)

  let finish ?(rev = false) b : cnf = finish ~rev b
end

let make clauses =
  let s = take_scratch () in
  List.iter (fun (c : Clause.t) -> add_sorted s ~neg:c.neg ~pos:c.pos) clauses;
  finish ~rev:false s

let clauses t =
  let acc = ref [] in
  for ci = num_clauses t - 1 downto 0 do
    let lo = t.start.(ci) and h = t.head.(ci) and hi = t.start.(ci + 1) in
    match
      Clause.of_sorted ~neg:(Array.sub t.lits lo (h - lo)) ~pos:(Array.sub t.lits h (hi - h))
    with
    | Some c -> acc := c :: !acc
    | None -> assert false (* stored clauses are never tautologies *)
  done;
  !acc

let conj a b =
  if a.unsat || b.unsat then unsat_formula
  else begin
    let s = take_scratch () in
    copy_clauses s a 0 (num_clauses a);
    copy_clauses s b 0 (num_clauses b);
    finish ~rev:false s
  end

(* [add_clause] puts the new clause first, so [add_clauses t cs] lists
   [cs] reversed, then [t]'s clauses. *)
let add_clauses t cs =
  if t.unsat then t
  else begin
    let s = take_scratch () in
    List.iter (fun (c : Clause.t) -> add_sorted s ~neg:c.neg ~pos:c.pos) (List.rev cs);
    copy_clauses s t 0 (num_clauses t);
    finish ~rev:false s
  end

let add_clause t c = add_clauses t [ c ]

(* When every variable that occurs is true, a clause holds exactly when it
   has a head: the check reads the offsets alone. *)
let holds t m =
  (not t.unsat)
  &&
  let n = num_clauses t in
  if Assignment.subset t.occurs m then begin
    let ci = ref 0 in
    while !ci < n && t.head.(!ci) < t.start.(!ci + 1) do
      incr ci
    done;
    !ci = n
  end
  else begin
    let ok = ref true and ci = ref 0 in
    while !ok && !ci < n do
      let c = !ci in
      let h = t.head.(c) and hi = t.start.(c + 1) in
      let sat = ref false and i = ref t.start.(c) in
      while (not !sat) && !i < h do
        if not (Assignment.mem t.lits.(!i) m) then sat := true;
        incr i
      done;
      i := h;
      while (not !sat) && !i < hi do
        if Assignment.mem t.lits.(!i) m then sat := true;
        incr i
      done;
      ok := !sat;
      incr ci
    done;
    !ok
  end

(* Shared worker for conditioning: [sat_neg]/[sat_pos] decide whether a
   premise/head literal is made true by the substitution (satisfying the
   whole clause), [drop_neg]/[drop_pos] whether it is made false (and
   disappears from the clause).  The result lists the surviving clauses
   last first, as consing them onto a list in clause order does. *)
let condition t ~sat_neg ~drop_neg ~sat_pos ~drop_pos =
  if t.unsat then t
  else begin
    let s = take_scratch () in
    let ci = ref 0 in
    let n = num_clauses t in
    while (not s.s_unsat) && !ci < n do
      let c = !ci in
      let lo = t.start.(c) and h = t.head.(c) and hi = t.start.(c + 1) in
      let satisfied = ref false in
      for i = lo to hi - 1 do
        let v = t.lits.(i) in
        if (i < h && sat_neg v) || (i >= h && sat_pos v) then satisfied := true
      done;
      if not !satisfied then begin
        reserve s (hi - lo);
        open_clause s;
        for i = lo to h - 1 do
          if not (drop_neg t.lits.(i)) then push s t.lits.(i)
        done;
        open_heads s;
        for i = h to hi - 1 do
          if not (drop_pos t.lits.(i)) then push s t.lits.(i)
        done;
        close_clause s
      end;
      incr ci
    done;
    finish ~rev:true s
  end

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
  let s = ref { total = 0; unit_pos = 0; unit_neg = 0; edges = 0; horn = 0; general = 0 } in
  for ci = 0 to num_clauses t - 1 do
    let s0 = { !s with total = !s.total + 1 } in
    let nneg = t.head.(ci) - t.start.(ci) and npos = t.start.(ci + 1) - t.head.(ci) in
    (* The kinds of {!Clause.kind}. *)
    s :=
      match (nneg, npos) with
      | 0, 1 -> { s0 with unit_pos = s0.unit_pos + 1 }
      | 1, 0 -> { s0 with unit_neg = s0.unit_neg + 1 }
      | 1, 1 -> { s0 with edges = s0.edges + 1 }
      | _, 1 -> { s0 with horn = s0.horn + 1 }
      | _, _ -> { s0 with general = s0.general + 1 }
  done;
  !s

let graph_fraction t =
  let s = stats t in
  if s.total = 0 then 1.0
  else float_of_int (s.unit_pos + s.edges) /. float_of_int s.total
