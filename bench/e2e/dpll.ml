(* Reference satisfiability check for the CNF workload: plain DPLL with
   unit propagation over DIMACS literals.  It shares no code with lib/sat,
   so the workload's inputs (kept only when UNSAT) and its output check do
   not trust the solver whose speed the workload measures. *)

let satisfiable ~num_vars (clauses : int array array) =
  let value = Array.make (num_vars + 1) 0 in
  let lit l = if l > 0 then value.(l) else -value.(-l) in
  let assign trail l =
    value.(abs l) <- (if l > 0 then 1 else -1);
    trail := abs l :: !trail
  in
  (* One scan for a falsified or unit clause; propagate to a fixpoint. *)
  let rec propagate trail =
    let rec scan i =
      if i = Array.length clauses then `Fixpoint
      else
        let sat = ref false and free = ref 0 and nfree = ref 0 in
        Array.iter
          (fun l ->
            match lit l with
            | 1 -> sat := true
            | 0 ->
                incr nfree;
                free := l
            | _ -> ())
          clauses.(i);
        if !sat || !nfree > 1 then scan (i + 1)
        else if !nfree = 0 then `Conflict
        else `Unit !free
    in
    match scan 0 with
    | `Fixpoint -> true
    | `Conflict -> false
    | `Unit l ->
        assign trail l;
        propagate trail
  in
  let rec first_free v =
    if v > num_vars then 0 else if value.(v) = 0 then v else first_free (v + 1)
  in
  let rec search () =
    let trail = ref [] in
    let sat =
      propagate trail
      &&
      match first_free 1 with
      | 0 -> true
      | v -> branch v 1 || branch v (-1)
    in
    if not sat then List.iter (fun v -> value.(v) <- 0) !trail;
    sat
  and branch v polarity =
    value.(v) <- polarity;
    search ()
    ||
    (value.(v) <- 0;
     false)
  in
  search ()
