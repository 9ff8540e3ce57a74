(* Quickstart: the paper's running example, end to end.

   We model the Figure 1a program in Featherweight Java with Interfaces,
   derive its Boolean variables and dependency constraints from the type
   rules, define the black-box predicate ("the tool crashes when the bodies
   of A.m(), M.x() and M.main() are all present"), and let Generalized
   Binary Reduction find the smallest valid failure-inducing sub-program.

   Run with:  dune exec examples/quickstart.exe *)

open Lbr_logic

let () =
  (* 1. The input program (Figure 1a). *)
  let program = Lbr_fji.Example.figure1 () in
  print_endline "=== input program ===";
  print_endline (Lbr_fji.Pretty.program_to_string program);

  (* 2. Derive variables and generate the dependency model from the type
        rules (Section 3).  [Example.model] bundles these steps; the
        long-hand version is:

          let pool = Var.Pool.create () in
          let vars = Lbr_fji.Vars.derive pool program in
          let formula = Lbr_fji.Typecheck.generate vars program |> Result.get_ok in
          let cnf = Formula.to_cnf formula in *)
  let model = Lbr_fji.Example.model () in
  let universe = Lbr_fji.Vars.all model.vars in
  Printf.printf "\n%d variables, %d clauses\n"
    (Assignment.cardinal universe)
    (Cnf.num_clauses model.constraints);

  (* 3. Count the valid sub-inputs, like §2 does with sharpSAT. *)
  let dependency_model =
    Cnf.make
      (List.filter (fun c -> Clause.kind c <> Clause.Unit_pos) (Cnf.clauses model.constraints))
  in
  Printf.printf "valid sub-inputs: %d of %d subsets\n"
    (Model_count.count dependency_model ~over:(Assignment.to_list universe))
    (1 lsl Assignment.cardinal universe);

  (* 4. The black box: run the buggy tool on a sub-input. *)
  let predicate = Lbr.Predicate.make ~name:"buggy-tool" (Lbr_fji.Example.buggy model.vars) in

  (* 5. Reduce. *)
  let problem =
    Lbr.Problem.make ~pool:model.pool ~universe ~constraints:model.constraints ~predicate
  in
  (match Lbr.Problem.validate problem with
  | Ok () -> ()
  | Error e -> failwith e);
  let order = Lbr_sat.Order.by_creation model.pool in
  match Lbr.Gbr.reduce problem ~order with
  | Error _ -> prerr_endline "reduction failed"
  | Ok (solution, stats) ->
      Printf.printf "\nGBR kept %d of %d items using %d tool runs (%d iterations)\n"
        (Assignment.cardinal solution)
        (Assignment.cardinal universe)
        stats.predicate_runs stats.iterations;
      print_endline "kept items:";
      Assignment.iter
        (fun v -> Printf.printf "  [%s]\n" (Lbr_fji.Vars.name model.vars v))
        solution;
      print_endline "\n=== reduced program (Figure 1b) ===";
      let reduced = Lbr_fji.Reduce.reduce model.vars model.program solution in
      print_endline (Lbr_fji.Pretty.program_to_string reduced);
      (* Theorem 3.1 in action: the reduced program still type checks. *)
      match Lbr_fji.Typecheck.check reduced with
      | Ok () -> print_endline "reduced program type checks ✓"
      | Error e -> Format.printf "unexpected type error: %a@." Lbr_fji.Typecheck.pp_error e
