open Lbr_logic

type t = {
  pool : Var.Pool.t;
  universe : Assignment.t;
  constraints : Cnf.t;
  predicate : Predicate.t;
}

let make ~pool ~universe ~constraints ~predicate =
  { pool; universe; constraints; predicate }

(* The first two checks read the formula's stored variable set and packed
   clauses: they allocate nothing. *)
let validate t =
  if not (Assignment.subset (Cnf.vars t.constraints) t.universe) then
    Error "constraints mention variables outside the universe I"
  else if not (Cnf.holds t.constraints t.universe) then
    Error "R_I(I) does not hold: the original input is not valid"
  else if not (Predicate.run t.predicate t.universe) then
    Error "P(I) does not hold: the original input does not induce the failure"
  else Ok ()
