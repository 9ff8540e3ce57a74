type t =
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t

let var v = Var v

let conj = function [] -> True | [ f ] -> f | fs -> And fs

let disj = function [] -> False | [ f ] -> f | fs -> Or fs

let imply a b = Implies (a, b)

let rec eval f m =
  match f with
  | True -> true
  | False -> false
  | Var v -> Assignment.mem v m
  | Not g -> not (eval g m)
  | And fs -> List.for_all (fun g -> eval g m) fs
  | Or fs -> List.exists (fun g -> eval g m) fs
  | Implies (a, b) -> (not (eval a m)) || eval b m
  | Iff (a, b) -> eval a m = eval b m

let rec vars = function
  | True | False -> Assignment.empty
  | Var v -> Assignment.singleton v
  | Not g -> vars g
  | And fs | Or fs -> Assignment.union_all (List.map vars fs)
  | Implies (a, b) | Iff (a, b) -> Assignment.union (vars a) (vars b)

let rec size = function
  | True | False | Var _ -> 1
  | Not g -> 1 + size g
  | And fs | Or fs -> List.fold_left (fun acc g -> acc + size g) 1 fs
  | Implies (a, b) | Iff (a, b) -> 1 + size a + size b

(* A clause under construction: negated and positive variable lists. *)
type proto = { pneg : Var.t list; ppos : Var.t list }

let proto_lit polarity v =
  if polarity then { pneg = []; ppos = [ v ] } else { pneg = [ v ]; ppos = [] }

(* Literal order inside a proto-clause is irrelevant — [Clause.make] sorts —
   so the unions use [rev_append], which never re-copies the longer side's
   spine more than once. *)
let proto_union a b =
  { pneg = List.rev_append a.pneg b.pneg; ppos = List.rev_append a.ppos b.ppos }

let rec cross = function
  | [] -> [ { pneg = []; ppos = [] } ] (* empty disjunction: the empty clause *)
  | [ cs ] -> cs
  | cs :: rest ->
      let tail = cross rest in
      List.concat_map (fun c -> List.map (proto_union c) tail) cs

(* CNF of a formula under a polarity, as a list of proto-clauses.  [None]
   stands for the unsatisfiable formula; the empty list for the valid one.
   This fuses the former negation-normal-form pass with the distribution
   pass — no NNF tree is materialized — and the clause LIST it produces is
   byte-identical to NNF-then-distribute's, order included (reduction
   outputs are order-sensitive through the engine trail, and the bench
   guard diffs them).  [lower] is only used at disjunctive positions,
   where the whole child clause set is needed for the cross product;
   conjunctive spines — the overwhelming bulk of generated constraint
   formulas — go through the [conj_rev]/[conj_fwd] pair, which prepends
   clauses directly onto the caller's accumulator instead of building
   per-child lists and re-copying them at every level of the spine.

   The old NNF fold [rev_append]ed each child's clause list into its
   conjunction's accumulator, so every nesting level reversed once and
   two levels cancelled.  The pair replays that exactly: [conj_rev]
   prepends the REVERSE of [f]'s clause list (one level of rev),
   [conj_fwd] prepends it in order (two levels, cancelled), and each
   conjunction case calls the other function on its children — left to
   right under [conj_fwd], right to left under [conj_rev]. *)
let rec lower polarity f =
  match f, polarity with
  | True, true | False, false -> Some []
  | True, false | False, true -> None
  | Var v, p -> Some [ proto_lit p v ]
  | Not g, p -> lower (not p) g
  | And _, true | Or _, false | Implies (_, _), false -> conj_fwd polarity f []
  | Iff (a, b), p -> lower p (And [ Implies (a, b); Implies (b, a) ])
  | And fs, false | Or fs, true ->
      (* Distribute: the clause set of a disjunction is the cross product of
         the children's clause sets, unioning literals.  An unsatisfiable
         child contributes nothing to the disjunction and is dropped — unless
         every child was unsatisfiable. *)
      let children = List.filter_map (lower polarity) fs in
      if children = [] && fs <> [] then None else Some (cross children)
  | Implies (a, b), true ->
      let children = List.filter_map Fun.id [ lower false a; lower true b ] in
      if children = [] then None else Some (cross children)

(* [conj_rev polarity f acc] prepends the reverse of [f]'s clause list. *)
and conj_rev polarity f acc =
  match f, polarity with
  | True, true | False, false -> Some acc
  | True, false | False, true -> None
  | Var v, p -> Some (proto_lit p v :: acc)
  | Not g, p -> conj_rev (not p) g acc
  | And fs, true | Or fs, false ->
      (* rev of the fold's output restores child order: f1's clauses first. *)
      let rec go = function
        | [] -> Some acc
        | g :: rest -> (
            match go rest with
            | None -> None
            | Some acc -> conj_fwd polarity g acc)
      in
      go fs
  | Implies (a, b), false -> (
      match conj_fwd false b acc with
      | None -> None
      | Some acc -> conj_fwd true a acc)
  | Iff (a, b), p -> conj_rev p (And [ Implies (a, b); Implies (b, a) ]) acc
  | And _, false | Or _, true | Implies (_, _), true -> (
      match lower polarity f with
      | None -> None
      | Some cs -> Some (List.rev_append cs acc))

(* [conj_fwd polarity f acc] prepends [f]'s clause list in order. *)
and conj_fwd polarity f acc =
  match f, polarity with
  | True, true | False, false -> Some acc
  | True, false | False, true -> None
  | Var v, p -> Some (proto_lit p v :: acc)
  | Not g, p -> conj_fwd (not p) g acc
  | And fs, true | Or fs, false ->
      (* The old fold itself: each child's list lands reversed, left to
         right, so the LAST child's clauses head the result. *)
      let rec go acc = function
        | [] -> Some acc
        | g :: rest -> (
            match conj_rev polarity g acc with
            | None -> None
            | Some acc -> go acc rest)
      in
      go acc fs
  | Implies (a, b), false -> (
      match conj_rev true a acc with
      | None -> None
      | Some acc -> conj_rev false b acc)
  | Iff (a, b), p -> conj_fwd p (And [ Implies (a, b); Implies (b, a) ]) acc
  | And _, false | Or _, true | Implies (_, _), true -> (
      match lower polarity f with
      | None -> None
      | Some cs -> Some (List.rev_append (List.rev cs) acc))

let to_cnf f =
  match conj_fwd true f [] with
  | None ->
      (* The empty clause marks the CNF unsatisfiable. *)
      Cnf.make [ Clause.make_exn ~neg:[] ~pos:[] ]
  | Some protos ->
      let clauses =
        List.filter_map (fun p -> Clause.make ~neg:p.pneg ~pos:p.ppos) protos
      in
      Cnf.make clauses
