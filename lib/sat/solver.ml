open Lbr_logic

(* One solver over every clause of [cnf], read from its packed arrays
   (variable [v] is DIMACS variable [v + 1]), and the selection of them
   all. *)
let cdcl cnf =
  let lits = Cnf.lits cnf and starts = Cnf.starts cnf and heads = Cnf.heads cnf in
  let t =
    Cdcl.create
      (Array.init (Cnf.num_clauses cnf) (fun ci ->
           Array.init (starts.(ci + 1) - starts.(ci)) (fun j ->
               let k = starts.(ci) + j in
               if k < heads.(ci) then -(lits.(k) + 1) else lits.(k) + 1)))
  in
  let sel = Cdcl.selection t in
  for ci = 0 to Cnf.num_clauses cnf - 1 do
    Cdcl.select sel ci
  done;
  (t, sel)

(* The variables [vs], true, as DIMACS literals. *)
let assumed vs = List.map (fun v -> v + 1) (Assignment.to_list vs)

let solve_with cnf ~required =
  if Cnf.is_unsat cnf then None
  else
    let t, sel = cdcl cnf in
    if Cdcl.satisfiable t sel ~assuming:(assumed required) then
      let model = Assignment.filter (fun v -> Cdcl.value t (v + 1)) (Cnf.vars cnf) in
      Some (Assignment.union required model)
    else None

let solve cnf = solve_with cnf ~required:Assignment.empty

let satisfiable cnf = Option.is_some (solve cnf)

(* The commitments grow as assumed literals on one solver, so clauses
   learned for one candidate serve the next, and a model found for one
   candidate answers each later one it agrees with. *)
let minimize cnf ~order ~required ~model =
  assert (Cnf.holds cnf model);
  assert (Assignment.subset required model);
  (* Work inside the model's universe so satisfiability checks cannot cheat
     by turning on variables outside [model]. *)
  let t, sel = cdcl (Cnf.restrict cnf ~keep:model) in
  (* Visit candidates largest-[<] first so the surviving set prefers
     [<]-small variables, matching the MSA tie-breaking discipline.  A
     candidate is dropped iff the formula stays satisfiable with the
     commitments and the candidate false. *)
  let candidates =
    Assignment.diff model required |> Assignment.to_list |> Order.sort order |> List.rev
  in
  let _, keep =
    List.fold_left
      (fun (commitments, keep) v ->
        let off = -(v + 1) :: commitments in
        if Cdcl.satisfiable t sel ~assuming:off then (off, keep)
        else ((v + 1) :: commitments, Assignment.add v keep))
      (assumed required, required) candidates
  in
  assert (Cnf.holds cnf keep);
  keep
