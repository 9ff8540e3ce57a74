(* Tests for the baselines: ddmin and J-Reduce's binary reduction. *)

open Lbr_logic

(* ------------------------------------------------------------------ *)
(* ddmin                                                               *)

let subset_test needles items =
  if List.for_all (fun n -> List.mem n items) needles then Lbr_baselines.Ddmin.Fail
  else Lbr_baselines.Ddmin.Pass

let test_ddmin_single_needle () =
  let items = List.init 32 Fun.id in
  let result, stats = Lbr_baselines.Ddmin.run ~items ~test:(subset_test [ 17 ]) in
  Alcotest.(check (list int)) "finds the needle" [ 17 ] result;
  Alcotest.(check bool) "bounded tests" true (stats.tests < 200)

let test_ddmin_multiple_needles () =
  let items = List.init 24 Fun.id in
  let needles = [ 3; 11; 19 ] in
  let result, _ = Lbr_baselines.Ddmin.run ~items ~test:(subset_test needles) in
  Alcotest.(check (list int)) "finds all needles" needles result

let test_ddmin_preserves_order () =
  let items = [ 5; 1; 9; 2 ] in
  let result, _ = Lbr_baselines.Ddmin.run ~items ~test:(subset_test [ 9; 1 ]) in
  Alcotest.(check (list int)) "original order kept" [ 1; 9 ] result

let test_ddmin_unresolved () =
  (* only even-sized subsets are "valid"; needle is 4 *)
  let items = List.init 16 Fun.id in
  let test sub =
    if List.length sub mod 2 = 1 then Lbr_baselines.Ddmin.Unresolved
    else if List.mem 4 sub then Lbr_baselines.Ddmin.Fail
    else Lbr_baselines.Ddmin.Pass
  in
  let result, _ = Lbr_baselines.Ddmin.run ~items ~test in
  Alcotest.(check bool) "result contains needle" true (List.mem 4 result)

let prop_ddmin_one_minimal =
  QCheck.Test.make ~count:100 ~name:"ddmin returns a failing 1-minimal subset"
    QCheck.(make Gen.(list_size (int_range 1 4) (int_bound 19)))
    (fun needles_raw ->
      let needles = List.sort_uniq compare needles_raw in
      let items = List.init 20 Fun.id in
      let result, _ = Lbr_baselines.Ddmin.run ~items ~test:(subset_test needles) in
      (* failing *)
      subset_test needles result = Lbr_baselines.Ddmin.Fail
      (* 1-minimal: dropping any single element passes *)
      && List.for_all
           (fun x ->
             subset_test needles (List.filter (fun y -> y <> x) result)
             <> Lbr_baselines.Ddmin.Fail)
           result)

(* ------------------------------------------------------------------ *)
(* Binary reduction                                                    *)

let test_binary_reduction_basic () =
  let closures = List.map Assignment.of_list [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ]; [ 5 ] ] in
  let target = Assignment.of_list [ 2; 5 ] in
  let predicate = Lbr.Predicate.make (fun s -> Assignment.subset target s) in
  match Lbr_baselines.Binary_reduction.reduce ~closures ~base:Assignment.empty ~predicate with
  | Error `Predicate_inconsistent -> Alcotest.fail "inconsistent"
  | Ok (result, stats) ->
      Alcotest.(check (list int)) "keeps exactly the needed closures" [ 2; 5 ]
        (Assignment.to_list result);
      Alcotest.(check bool) "few runs" true (stats.predicate_runs < 12)

let test_binary_reduction_with_base () =
  let closures = List.map Assignment.of_list [ [ 1 ]; [ 2 ] ] in
  let base = Assignment.of_list [ 0 ] in
  let predicate = Lbr.Predicate.make (fun s -> Assignment.mem 0 s) in
  match Lbr_baselines.Binary_reduction.reduce ~closures ~base ~predicate with
  | Error `Predicate_inconsistent -> Alcotest.fail "inconsistent"
  | Ok (result, _) ->
      Alcotest.(check (list int)) "base alone suffices" [ 0 ] (Assignment.to_list result)

let prop_binary_reduction_covers =
  QCheck.Test.make ~count:200 ~name:"binary reduction returns a failing union of closures"
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 1 10) (list_size (int_range 1 4) (int_bound 11)))
            (list_size (int_range 1 3) (int_bound 9))))
    (fun (closure_lists, target_raw) ->
      let closures = List.map Assignment.of_list closure_lists in
      let all = Assignment.union_all closures in
      let target = Assignment.inter (Assignment.of_list target_raw) all in
      let predicate = Lbr.Predicate.make (fun s -> Assignment.subset target s) in
      match
        Lbr_baselines.Binary_reduction.reduce ~closures ~base:Assignment.empty ~predicate
      with
      | Error `Predicate_inconsistent -> false
      | Ok (result, _) -> Assignment.subset target result && Assignment.subset result all)

(* ------------------------------------------------------------------ *)
(* Graph encoding: closures from a dependency graph                    *)

let test_graph_encoding () =
  let edges = [ (0, 1); (1, 2); (3, 1); (4, 5) ] in
  let base, closures =
    Lbr_baselines.Binary_reduction.Graph_encoding.closures ~num_vars:6 ~edges ~required:[ 4 ]
  in
  Alcotest.(check (list int)) "base = closure of required" [ 4; 5 ]
    (Assignment.to_list base);
  (* distinct closures not subsumed by the base, smallest first *)
  let sizes = List.map Assignment.cardinal closures in
  Alcotest.(check bool) "sorted by size" true (List.sort compare sizes = sizes);
  List.iter
    (fun c -> Alcotest.(check bool) "not inside base" false (Assignment.subset c base))
    closures;
  (* the closure {1,2} of node 1 must be present *)
  Alcotest.(check bool) "closure of 1 present" true
    (List.exists (fun c -> Assignment.to_list c = [ 1; 2 ]) closures)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lbr_baselines"
    [
      ( "ddmin",
        [
          Alcotest.test_case "single needle" `Quick test_ddmin_single_needle;
          Alcotest.test_case "multiple needles" `Quick test_ddmin_multiple_needles;
          Alcotest.test_case "order preserved" `Quick test_ddmin_preserves_order;
          Alcotest.test_case "unresolved outcomes" `Quick test_ddmin_unresolved;
        ] );
      qsuite "ddmin-prop" [ prop_ddmin_one_minimal ];
      ( "binary-reduction",
        [
          Alcotest.test_case "basic" `Quick test_binary_reduction_basic;
          Alcotest.test_case "base suffices" `Quick test_binary_reduction_with_base;
          Alcotest.test_case "graph encoding" `Quick test_graph_encoding;
        ] );
      qsuite "binary-reduction-prop" [ prop_binary_reduction_covers ];
    ]
