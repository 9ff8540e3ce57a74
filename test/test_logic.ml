(* Tests for the propositional-logic substrate: clauses, CNF conditioning,
   the formula->CNF translation, and exact model counting. *)

open Lbr_logic

let mkpool n =
  let pool = Var.Pool.create () in
  let vars = List.init n (fun i -> Var.Pool.fresh pool (Printf.sprintf "v%d" i)) in
  (pool, Array.of_list vars)

(* ------------------------------------------------------------------ *)
(* Clause                                                              *)

let test_clause_tautology () =
  Alcotest.(check bool)
    "x in both sides is a tautology" true
    (Clause.make ~neg:[ 1 ] ~pos:[ 1; 2 ] = None);
  Alcotest.(check bool) "disjoint sides ok" true (Clause.make ~neg:[ 1 ] ~pos:[ 2 ] <> None)

let test_clause_dedup () =
  let c = Clause.make_exn ~neg:[ 3; 1; 3 ] ~pos:[ 2; 2 ] in
  Alcotest.(check int) "literals deduplicated" 3 (Clause.num_literals c)

let test_clause_kinds () =
  let check name expected c = Alcotest.(check bool) name true (Clause.kind c = expected) in
  check "unit_pos" Clause.Unit_pos (Clause.unit_pos 1);
  check "edge" Clause.Edge (Clause.edge 1 2);
  check "unit_neg" Clause.Unit_neg (Clause.make_exn ~neg:[ 1 ] ~pos:[]);
  check "horn" Clause.Horn (Clause.make_exn ~neg:[ 1; 2 ] ~pos:[ 3 ]);
  check "general" Clause.General (Clause.make_exn ~neg:[ 1 ] ~pos:[ 2; 3 ]);
  Alcotest.(check bool) "edge is graph" true (Clause.is_graph (Clause.edge 1 2));
  Alcotest.(check bool) "horn is not graph" false
    (Clause.is_graph (Clause.make_exn ~neg:[ 1; 2 ] ~pos:[ 3 ]))

let test_clause_holds () =
  let c = Clause.make_exn ~neg:[ 0; 1 ] ~pos:[ 2 ] in
  let holds set = Clause.holds c ~true_set:(fun v -> List.mem v set) in
  Alcotest.(check bool) "premise broken" true (holds [ 0 ]);
  Alcotest.(check bool) "head true" true (holds [ 0; 1; 2 ]);
  Alcotest.(check bool) "violated" false (holds [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* CNF                                                                 *)

let test_cnf_conditioning () =
  (* (a => b) /\ (b => c), condition a=1: (b) after propagating? No — the
     conditioning only substitutes a; b => c stays. *)
  let cnf = Cnf.make [ Clause.edge 0 1; Clause.edge 1 2 ] in
  let conditioned = Cnf.condition_true cnf (Assignment.singleton 0) in
  Alcotest.(check int) "two clauses remain, one now unit" 2 (Cnf.num_clauses conditioned);
  Alcotest.(check bool) "satisfied by {1,2}" true
    (Cnf.holds conditioned (Assignment.of_list [ 1; 2 ]));
  Alcotest.(check bool) "not satisfied by {}" false (Cnf.holds conditioned Assignment.empty)

let test_cnf_condition_false_unsat () =
  let cnf = Cnf.make [ Clause.unit_pos 0 ] in
  let conditioned = Cnf.condition_false cnf (Assignment.singleton 0) in
  Alcotest.(check bool) "forcing required var false is unsat" true (Cnf.is_unsat conditioned)

let test_cnf_restrict () =
  (* a => b|c restricted to {a, b}: a => b. *)
  let cnf = Cnf.make [ Clause.make_exn ~neg:[ 0 ] ~pos:[ 1; 2 ] ] in
  let r = Cnf.restrict cnf ~keep:(Assignment.of_list [ 0; 1 ]) in
  Alcotest.(check bool) "{0,1} satisfies" true (Cnf.holds r (Assignment.of_list [ 0; 1 ]));
  Alcotest.(check bool) "{0} does not" false (Cnf.holds r (Assignment.singleton 0));
  Alcotest.(check bool) "2 no longer occurs" false (Assignment.mem 2 (Cnf.vars r))

let test_cnf_stats () =
  let cnf =
    Cnf.make
      [
        Clause.unit_pos 0;
        Clause.edge 0 1;
        Clause.edge 1 2;
        Clause.make_exn ~neg:[ 0; 1 ] ~pos:[ 2 ];
        Clause.make_exn ~neg:[ 0 ] ~pos:[ 1; 2 ];
      ]
  in
  let s = Cnf.stats cnf in
  Alcotest.(check int) "total" 5 s.total;
  Alcotest.(check int) "edges" 2 s.edges;
  Alcotest.(check int) "unit pos" 1 s.unit_pos;
  Alcotest.(check int) "horn" 1 s.horn;
  Alcotest.(check int) "general" 1 s.general;
  Alcotest.(check (float 1e-9)) "graph fraction" 0.6 (Cnf.graph_fraction cnf)

(* ------------------------------------------------------------------ *)
(* Formula -> CNF                                                      *)

let formula_gen n =
  let open QCheck.Gen in
  let var = map (fun i -> Formula.Var i) (int_bound (n - 1)) in
  sized_size (int_bound 5) @@ fix (fun self depth ->
      if depth = 0 then oneof [ var; return Formula.True; return Formula.False ]
      else
        frequency
          [
            (3, var);
            (1, map (fun f -> Formula.Not f) (self (depth - 1)));
            (2, map2 (fun a b -> Formula.And [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Formula.Or [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Formula.Implies (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Formula.Iff (a, b)) (self (depth - 1)) (self (depth - 1)));
          ])

let assignment_of_mask n mask =
  List.init n (fun i -> i) |> List.filter (fun i -> mask land (1 lsl i) <> 0) |> Assignment.of_list

let random_cnf_gen_fwd n =
  let open QCheck.Gen in
  let lit = pair (int_bound (n - 1)) bool in
  let clause = list_size (int_range 1 3) lit in
  map
    (fun clauses ->
      clauses
      |> List.filter_map (fun lits ->
             let neg = List.filter_map (fun (v, s) -> if s then None else Some v) lits in
             let pos = List.filter_map (fun (v, s) -> if s then Some v else None) lits in
             Clause.make ~neg ~pos)
      |> Cnf.make)
    (list_size (int_range 0 8) clause)

let prop_to_cnf_preserves_semantics =
  QCheck.Test.make ~count:300 ~name:"Formula.to_cnf preserves semantics"
    (QCheck.make (formula_gen 5))
    (fun f ->
      let cnf = Formula.to_cnf f in
      let ok = ref true in
      for mask = 0 to 31 do
        let m = assignment_of_mask 5 mask in
        if Formula.eval f m <> Cnf.holds cnf m then ok := false
      done;
      !ok)

(* Conditioning algebra: (R | X=1) is satisfied by M iff R is satisfied by
   M ∪ X; (R | X=0) by M \ X; restrict agrees with condition_false on the
   complement. *)
let prop_conditioning_algebra =
  QCheck.Test.make ~count:300 ~name:"conditioning algebra"
    (QCheck.make
       QCheck.Gen.(
         triple (random_cnf_gen_fwd 6)
           (list_size (int_bound 3) (int_bound 5))
           (list_size (int_bound 3) (int_bound 5))))
    (fun (cnf, xs, ms) ->
      let x = Assignment.of_list xs and m = Assignment.of_list ms in
      let cond_true = Cnf.condition_true cnf x in
      let cond_false = Cnf.condition_false cnf x in
      let ok_true = Cnf.holds cond_true (Assignment.diff m x) = Cnf.holds cnf (Assignment.union m x) in
      let ok_false = Cnf.holds cond_false (Assignment.diff m x) = Cnf.holds cnf (Assignment.diff m x) in
      let universe = Assignment.of_list (List.init 6 Fun.id) in
      let keep = Assignment.diff universe x in
      let ok_restrict =
        Cnf.holds (Cnf.restrict cnf ~keep) (Assignment.diff m x)
        = Cnf.holds cnf (Assignment.diff m x)
      in
      ok_true && ok_false && ok_restrict)

(* ------------------------------------------------------------------ *)
(* Model counting                                                      *)

let random_cnf_gen n =
  let open QCheck.Gen in
  let lit = pair (int_bound (n - 1)) bool in
  let clause = list_size (int_range 1 3) lit in
  map
    (fun clauses ->
      clauses
      |> List.filter_map (fun lits ->
             let neg = List.filter_map (fun (v, s) -> if s then None else Some v) lits in
             let pos = List.filter_map (fun (v, s) -> if s then Some v else None) lits in
             Clause.make ~neg ~pos)
      |> Cnf.make)
    (list_size (int_range 0 8) clause)

let prop_count_matches_naive =
  QCheck.Test.make ~count:200 ~name:"Model_count.count = count_naive"
    (QCheck.make (random_cnf_gen 8))
    (fun cnf ->
      let over = List.init 8 (fun i -> i) in
      Model_count.count cnf ~over = Model_count.count_naive cnf ~over)

let test_count_free_vars () =
  let pool, v = mkpool 4 in
  ignore pool;
  let cnf = Cnf.make [ Clause.edge v.(0) v.(1) ] in
  (* a=>b over 4 vars: 3 choices of (a,b) x 4 free combos = 12. *)
  Alcotest.(check int) "edge over 4 vars" 12
    (Model_count.count cnf ~over:(Array.to_list v))

let test_count_unsat () =
  let cnf = Cnf.make [ Clause.unit_pos 0; Clause.make_exn ~neg:[ 0 ] ~pos:[] ] in
  Alcotest.(check int) "contradiction counts zero" 0 (Model_count.count cnf ~over:[ 0; 1 ])

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* DIMACS                                                              *)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~count:300 ~name:"DIMACS round-trip preserves the model set"
    (QCheck.make (random_cnf_gen_fwd 6))
    (fun cnf ->
      match Dimacs.of_string (Dimacs.to_string cnf) with
      | Error _ -> false
      | Ok cnf' ->
          let ok = ref true in
          for mask = 0 to 63 do
            let m = assignment_of_mask 6 mask in
            if Cnf.holds cnf m <> Cnf.holds cnf' m then ok := false
          done;
          (Cnf.is_unsat cnf = Cnf.is_unsat cnf') && !ok)

let test_dimacs_format () =
  let cnf = Cnf.make [ Clause.edge 0 1; Clause.unit_pos 2 ] in
  let text = Dimacs.to_string cnf in
  Alcotest.(check bool) "header present" true
    (String.length text > 10 && String.sub text 0 9 = "p cnf 3 2");
  (* example model from the paper's pipeline is exportable *)
  let model = Lbr_fji.Example.model () in
  match Dimacs.of_string (Dimacs.to_string model.constraints) with
  | Error m -> Alcotest.failf "re-parse failed: %s" m
  | Ok cnf' ->
      let over = List.init 20 Fun.id in
      Alcotest.(check int) "same model count through DIMACS" 543
        (Model_count.count cnf' ~over)

let test_dimacs_rejects_garbage () =
  (match Dimacs.of_string "hello" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (match Dimacs.of_string "p cnf 2 1\n1 -2" with
  | Ok _ -> Alcotest.fail "accepted unterminated clause"
  | Error _ -> ());
  match Dimacs.of_string "p cnf 2 1\n1 x 0" with
  | Ok _ -> Alcotest.fail "accepted bad literal"
  | Error _ -> ()

let test_dimacs_comments_and_unsat () =
  (match Dimacs.of_string "c a comment\np cnf 2 1\nc another\n1 2 0\n" with
  | Ok cnf -> Alcotest.(check int) "one clause" 1 (Cnf.num_clauses cnf)
  | Error m -> Alcotest.failf "comments rejected: %s" m);
  let unsat = Cnf.make [ Clause.make_exn ~neg:[] ~pos:[] ] in
  match Dimacs.of_string (Dimacs.to_string unsat) with
  | Ok cnf -> Alcotest.(check bool) "unsat round-trips" true (Cnf.is_unsat cnf)
  | Error m -> Alcotest.failf "unsat round-trip failed: %s" m

(* ------------------------------------------------------------------ *)
(* Packed CNF                                                          *)

let prop_packed_solve_matches_enumeration =
  QCheck.Test.make ~count:300 ~name:"Packed.solve under assumptions = enumeration"
    (QCheck.make
       QCheck.Gen.(
         triple (random_cnf_gen 6)
           (list_size (int_bound 3) (int_bound 5))
           (list_size (int_bound 3) (int_bound 5))))
    (fun (cnf, assume_true, assume_false) ->
      let p = Cnf.Packed.make cnf in
      let nv = Cnf.Packed.num_vars p in
      (* [solve] documents that assumptions on vars >= num_vars are ignored. *)
      let at = List.filter (fun v -> v < nv) assume_true in
      let af = List.filter (fun v -> v < nv) assume_false in
      let admissible m =
        Cnf.holds cnf m
        && List.for_all (fun v -> Assignment.mem v m) at
        && List.for_all (fun v -> not (Assignment.mem v m)) af
      in
      let exists_model = ref false in
      for mask = 0 to 63 do
        if admissible (assignment_of_mask 6 mask) then exists_model := true
      done;
      let first = Cnf.Packed.solve p ~assume_true ~assume_false in
      (* A second identical query checks that [solve] restored its state. *)
      let second = Cnf.Packed.solve p ~assume_true ~assume_false in
      Cnf.Packed.mark p = 0
      && Option.equal Assignment.equal first second
      &&
      match first with
      | Some m -> !exists_model && admissible m
      | None -> not !exists_model)

let prop_packed_condition_equivalence =
  (* assign + propagate on the packed state answers the same satisfiability
     question as rebuilding the conditioned immutable formula. *)
  QCheck.Test.make ~count:300 ~name:"Packed assumptions = Cnf.condition_*"
    (QCheck.make QCheck.Gen.(triple (random_cnf_gen 6) (int_bound 5) (int_bound 5)))
    (fun (cnf, vt, vf) ->
      QCheck.assume (vt <> vf);
      let p = Cnf.Packed.make cnf in
      let packed = Cnf.Packed.solve p ~assume_true:[ vt ] ~assume_false:[ vf ] in
      let conditioned =
        Cnf.condition_false (Cnf.condition_true cnf (Assignment.singleton vt))
          (Assignment.singleton vf)
      in
      let rebuilt =
        Cnf.Packed.solve (Cnf.Packed.make conditioned) ~assume_true:[] ~assume_false:[]
      in
      Option.is_some packed = Option.is_some rebuilt)

let test_packed_counters () =
  let cnf = Cnf.make [ Clause.edge 0 1; Clause.edge 1 2; Clause.unit_pos 3 ] in
  let p = Cnf.Packed.make cnf in
  Alcotest.(check int) "num_clauses" 3 (Cnf.Packed.num_clauses p);
  Alcotest.(check int) "all active" 3 (Cnf.Packed.active_count p);
  let m = Cnf.Packed.mark p in
  Cnf.Packed.assign p 1 true;
  Alcotest.(check int) "0=>1 satisfied" 2 (Cnf.Packed.active_count p);
  Alcotest.(check bool) "1=>2 still active" true (Cnf.Packed.clause_is_active p 1);
  Alcotest.(check (list int)) "unassigned of 1=>2" [ 2 ] (Cnf.Packed.clause_unassigned_vars p 1);
  Alcotest.(check bool) "unit 2 propagates" true (Cnf.Packed.propagate p);
  Alcotest.(check bool) "2 forced true" true (Cnf.Packed.value p 2 = `True);
  Cnf.Packed.undo_to p m;
  Alcotest.(check int) "undo restores active" 3 (Cnf.Packed.active_count p);
  Alcotest.(check bool) "undo restores value" true (Cnf.Packed.value p 1 = `Unassigned)

let test_packed_unsat_formula () =
  let unsat = Cnf.make [ Clause.make_exn ~neg:[] ~pos:[] ] in
  let p = Cnf.Packed.make unsat in
  Alcotest.(check bool) "first solve: unsat" true
    (Cnf.Packed.solve p ~assume_true:[] ~assume_false:[] = None);
  (* the unsat flag must survive the state restoration of a solve *)
  Alcotest.(check bool) "second solve: still unsat" true
    (Cnf.Packed.solve p ~assume_true:[] ~assume_false:[] = None)

(* Found by packed-prop under QCHECK_SEED=880563440: after the first
   solve's [undo_to], the input unit clause [-6] must still propagate, or
   the second solve branches on variable 5 as if it were free and returns
   a different model. *)
let test_packed_units_survive_solve () =
  match Dimacs.of_string "p cnf 6 5\n-3 -6 0\n-1 5 0\n5 6 0\n2 3 0\n-6 0\n" with
  | Error m -> Alcotest.failf "dimacs: %s" m
  | Ok cnf ->
      let p = Cnf.Packed.make cnf in
      let solve () = Cnf.Packed.solve p ~assume_true:[] ~assume_false:[] in
      let first = solve () in
      let second = solve () in
      let model = function
        | Some m -> Assignment.to_list m
        | None -> Alcotest.fail "satisfiable formula reported unsat"
      in
      Alcotest.(check (list int)) "second solve, same model" (model first) (model second);
      Alcotest.(check bool) "model satisfies the formula" true
        (Cnf.holds cnf (Option.get second))

(* Both ways an input unit can be pending across an undo: never popped
   (unit 0, still queued from [make]) and falsified then unassigned
   (unit 1). *)
let test_packed_units_survive_undo () =
  let p = Cnf.Packed.make (Cnf.make [ Clause.unit_pos 0; Clause.unit_pos 1 ]) in
  let m = Cnf.Packed.mark p in
  Cnf.Packed.assign p 1 false;
  Alcotest.(check bool) "falsified unit conflicts" true (Cnf.Packed.conflicted p);
  Cnf.Packed.undo_to p m;
  Alcotest.(check bool) "propagates after undo" true (Cnf.Packed.propagate p);
  Alcotest.(check bool) "queued unit applied" true (Cnf.Packed.value p 0 = `True);
  Alcotest.(check bool) "falsified unit re-queued" true (Cnf.Packed.value p 1 = `True)

let test_cnf_num_clauses_cached () =
  let a = Cnf.make [ Clause.edge 0 1; Clause.unit_pos 2 ] in
  let b = Cnf.add_clause a (Clause.edge 2 3) in
  let c = Cnf.conj a b in
  List.iter
    (fun (name, cnf) ->
      Alcotest.(check int) name (List.length (Cnf.clauses cnf)) (Cnf.num_clauses cnf))
    [ ("make", a); ("add_clause", b); ("conj", c) ]

(* ------------------------------------------------------------------ *)
(* Assignment vs Set.Make(Int)                                         *)

module ISet = Set.Make (Int)

let prop_assignment_matches_set =
  QCheck.Test.make ~count:500 ~name:"Assignment ops mirror Set.Make(Int)"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_bound 40) (int_bound 200))
           (list_size (int_bound 40) (int_bound 200))))
    (fun (xs, ys) ->
      let a = Assignment.of_list xs and b = Assignment.of_list ys in
      let sa = ISet.of_list xs and sb = ISet.of_list ys in
      let agrees s t = List.equal Int.equal (ISet.elements s) (Assignment.to_list t) in
      let sign c = compare c 0 in
      agrees sa a && agrees sb b
      && agrees (ISet.union sa sb) (Assignment.union a b)
      && agrees (ISet.inter sa sb) (Assignment.inter a b)
      && agrees (ISet.diff sa sb) (Assignment.diff a b)
      && ISet.subset sa sb = Assignment.subset a b
      && ISet.disjoint sa sb = Assignment.disjoint a b
      && ISet.equal sa sb = Assignment.equal a b
      && sign (ISet.compare sa sb) = sign (Assignment.compare a b)
      && ISet.cardinal sa = Assignment.cardinal a
      && ISet.fold ( + ) sa 0 = Assignment.fold ( + ) a 0
      && List.for_all (fun v -> ISet.mem v sa = Assignment.mem v a) (List.init 210 Fun.id)
      && agrees (ISet.add 63 sa) (Assignment.add 63 a)
      && agrees (ISet.remove 63 sa) (Assignment.remove 63 a)
      && agrees (ISet.filter (fun v -> v mod 3 = 0) sa) (Assignment.filter (fun v -> v mod 3 = 0) a))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lbr_logic"
    [
      ( "clause",
        [
          Alcotest.test_case "tautology rejected" `Quick test_clause_tautology;
          Alcotest.test_case "dedup" `Quick test_clause_dedup;
          Alcotest.test_case "kinds" `Quick test_clause_kinds;
          Alcotest.test_case "holds" `Quick test_clause_holds;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "conditioning true" `Quick test_cnf_conditioning;
          Alcotest.test_case "conditioning false to unsat" `Quick test_cnf_condition_false_unsat;
          Alcotest.test_case "restrict" `Quick test_cnf_restrict;
          Alcotest.test_case "stats" `Quick test_cnf_stats;
        ] );
      qsuite "formula" [ prop_to_cnf_preserves_semantics ];
      ( "model-count",
        [
          Alcotest.test_case "free variables multiply" `Quick test_count_free_vars;
          Alcotest.test_case "unsat is zero" `Quick test_count_unsat;
        ] );
      qsuite "model-count-prop" [ prop_count_matches_naive ];
      qsuite "conditioning-prop" [ prop_conditioning_algebra ];
      ( "dimacs",
        [
          Alcotest.test_case "format + example export" `Quick test_dimacs_format;
          Alcotest.test_case "rejects garbage" `Quick test_dimacs_rejects_garbage;
          Alcotest.test_case "comments and unsat" `Quick test_dimacs_comments_and_unsat;
        ] );
      qsuite "dimacs-prop" [ prop_dimacs_roundtrip ];
      ( "packed",
        [
          Alcotest.test_case "counters and undo" `Quick test_packed_counters;
          Alcotest.test_case "unsat survives restore" `Quick test_packed_unsat_formula;
          Alcotest.test_case "input units survive solve" `Quick test_packed_units_survive_solve;
          Alcotest.test_case "input units survive undo" `Quick test_packed_units_survive_undo;
          Alcotest.test_case "num_clauses cached" `Quick test_cnf_num_clauses_cached;
        ] );
      qsuite "packed-prop"
        [ prop_packed_solve_matches_enumeration; prop_packed_condition_equivalence ];
      qsuite "assignment-prop" [ prop_assignment_matches_set ];
    ]
