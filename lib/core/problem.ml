open Lbr_logic

type t = {
  pool : Var.Pool.t;
  universe : Assignment.t;
  constraints : Cnf.t;
  predicate : Predicate.t;
}

let make ~pool ~universe ~constraints ~predicate =
  { pool; universe; constraints; predicate }

let validate t =
  let inside v = Assignment.mem v t.universe in
  let clause_inside (c : Clause.t) = Array.for_all inside c.neg && Array.for_all inside c.pos in
  if not (List.for_all clause_inside (Cnf.clauses t.constraints)) then
    Error "constraints mention variables outside the universe I"
  else if not (Cnf.holds t.constraints t.universe) then
    Error "R_I(I) does not hold: the original input is not valid"
  else if not (Predicate.run t.predicate t.universe) then
    Error "P(I) does not hold: the original input does not induce the failure"
  else Ok ()
