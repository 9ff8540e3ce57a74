(* Exploring dependency models directly with the logic API.

   Builds the §4.4 example — (a ∧ b ⇒ c) ∧ (c ⇒ b) — plus a small graph
   model, and shows the toolbox: satisfiability, model counting, minimal
   satisfying assignments under different variable orders, progressions,
   and the lossy graph encodings.

   Run with:  dune exec examples/model_explorer.exe *)

open Lbr_logic
open Lbr_sat

(* Variables are bare ids; the example keeps their names itself. *)
let names = [| "a"; "b"; "c" |]

let show set =
  "{" ^ String.concat ", " (List.map (Array.get names) (Assignment.to_list set)) ^ "}"

let () =
  let pool = Var.Pool.create () in
  let a = Var.Pool.fresh pool in
  let b = Var.Pool.fresh pool in
  let c = Var.Pool.fresh pool in
  let cnf =
    Cnf.make [ Clause.make_exn ~neg:[ a; b ] ~pos:[ c ]; Clause.edge c b ]
  in
  Printf.printf "model: (a ∧ b ⇒ c) ∧ (c ⇒ b)   — the §4.4 example\n";
  Printf.printf "satisfying assignments over {a,b,c}: %d of 8\n"
    (Model_count.count cnf ~over:[ a; b; c ]);

  (* MSA under two orders: the order determines the head picked for a
     triggered disjunction. *)
  let universe = Assignment.of_list [ a; b; c ] in
  List.iter
    (fun (label, order) ->
      match Msa.compute cnf ~order ~universe ~required:(Assignment.singleton b) () with
      | Some m -> Printf.printf "MSA with b required, order %-9s = %s\n" label (show m)
      | None -> print_endline "unsat")
    [ ("(a,b,c)", Order.of_list [ a; b; c ]); ("(c,b,a)", Order.of_list [ c; b; a ]) ];

  (* The suboptimality run from §4.4: P true iff b present; order (c,b,a)
     makes GBR return {b,c} although {b} suffices. *)
  let predicate = Lbr.Predicate.make (fun s -> Assignment.mem b s) in
  let problem = Lbr.Problem.make ~pool ~universe ~constraints:cnf ~predicate in
  (match Lbr.Gbr.reduce problem ~order:(Order.of_list [ c; b; a ]) with
  | Ok (result, _) ->
      Printf.printf "GBR with order (c,b,a): %s   (suboptimal: {b} is smaller)\n"
        (show result)
  | Error _ -> print_endline "GBR failed");
  (match Lbr.Gbr.reduce problem ~order:(Order.of_list [ b; c; a ]) with
  | Ok (result, _) ->
      Printf.printf "GBR with order (b,c,a): %s\n" (show result)
  | Error _ -> print_endline "GBR failed");

  (* Progressions: the valid-prefix decomposition GBR searches over. *)
  print_endline "\nprogression for the model (no learned sets):";
  (match
     Lbr.Progression.make ~cnf ~order:(Order.of_list [ a; b; c ]) ~learned:[] ~universe
   with
  | Ok p ->
      List.iteri
        (fun i d -> Printf.printf "  D%d = %s\n" i (show d))
        (Lbr.Progression.entries p)
  | Error `Unsat -> print_endline "unsat");

  (* Lossy encodings strengthen non-graph clauses into edges. *)
  print_endline "\nlossy encodings of (a ∧ b ⇒ c):";
  List.iter
    (fun (label, pick) ->
      let encoded = Lbr.Lossy.encode cnf ~pick in
      let edges, _ = Lbr.Lossy.to_graph encoded in
      Printf.printf "  %-12s edges: %s\n" label
        (String.concat ", "
           (List.map
              (fun (x, y) -> names.(x) ^ " ⇒ " ^ names.(y))
              (List.sort compare edges))))
    [ ("first-first", Lbr.Lossy.First_first); ("last-last", Lbr.Lossy.Last_last) ];

  (* And the count of what each encoding rules out. *)
  List.iter
    (fun (label, pick) ->
      let encoded = Lbr.Lossy.encode cnf ~pick in
      Printf.printf "  %-12s keeps %d of the %d original models\n" label
        (Model_count.count encoded ~over:[ a; b; c ])
        (Model_count.count cnf ~over:[ a; b; c ]))
    [ ("first-first", Lbr.Lossy.First_first); ("last-last", Lbr.Lossy.Last_last) ]
