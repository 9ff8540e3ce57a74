open Lbr_logic

let solve cnf =
  let p = Cnf.Packed.make cnf in
  Cnf.Packed.solve p ~assume_true:[] ~assume_false:[]

let satisfiable cnf =
  let dimacs ({ neg; pos } : Clause.t) =
    Array.append (Array.map (fun v -> -(v + 1)) neg) (Array.map (fun v -> v + 1) pos)
  in
  (not (Cnf.is_unsat cnf))
  && Cdcl.all_satisfiable (Array.of_list (List.map dimacs (Cnf.clauses cnf)))

let solve_with cnf ~required =
  let p = Cnf.Packed.make cnf in
  Cnf.Packed.solve p ~assume_true:(Assignment.to_list required) ~assume_false:[]
  |> Option.map (Assignment.union required)

let minimize cnf ~order ~required ~model =
  assert (Cnf.holds cnf model);
  assert (Assignment.subset required model);
  (* Work inside the model's universe so satisfiability checks cannot cheat
     by turning on variables outside [model]. *)
  let p = Cnf.Packed.make (Cnf.restrict cnf ~keep:model) in
  let nvars = Cnf.Packed.num_vars p in
  (* Decisions are committed onto the packed state permanently (assign and
     propagate); each satisfiability probe for "can this candidate be false?"
     then only has to search — and undo — the still-undecided variables,
     instead of re-conditioning the formula from scratch per candidate.
     Propagation-forced values are logically implied by the commitments, so
     committing them early answers those candidates' probes for free. *)
  let commit v b =
    (match Cnf.Packed.value p v with
    | `Unassigned -> Cnf.Packed.assign p v b
    | `True -> assert b
    | `False -> assert (not b));
    let ok = Cnf.Packed.propagate p in
    assert ok
  in
  Assignment.iter (fun v -> if v < nvars then commit v true) required;
  (* Visit candidates largest-[<] first so the surviving set prefers
     [<]-small variables, matching the MSA tie-breaking discipline. *)
  let candidates =
    Assignment.diff model required |> Assignment.to_list |> Order.sort order |> List.rev
  in
  let keep =
    List.fold_left
      (fun keep v ->
        if v >= nvars then keep (* unconstrained: always droppable *)
        else
          match Cnf.Packed.value p v with
          | `False -> keep
          | `True -> Assignment.add v keep
          | `Unassigned ->
              let m = Cnf.Packed.mark p in
              Cnf.Packed.assign p v false;
              let sat = Cnf.Packed.search p in
              Cnf.Packed.undo_to p m;
              if sat then begin
                commit v false;
                keep
              end
              else begin
                commit v true;
                Assignment.add v keep
              end)
      required candidates
  in
  assert (Cnf.holds cnf keep);
  keep
