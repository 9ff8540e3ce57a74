(* Tests for the solver front end, the incremental CDCL solver and the
   order-driven MSA engine. *)

open Lbr_logic
open Lbr_sat

let naive_sat cnf n =
  let rec masks mask = if mask >= 1 lsl n then None
    else
      let m = List.init n (fun i -> i) |> List.filter (fun i -> mask land (1 lsl i) <> 0)
              |> Assignment.of_list in
      if Cnf.holds cnf m then Some m else masks (mask + 1)
  in
  masks 0

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
    (list_size (int_range 0 10) clause)

(* Implication-fragment CNF: every clause has >= 1 positive literal, so the
   MSA fixpoint engine never conflicts. *)
let implication_cnf_gen n =
  let open QCheck.Gen in
  let clause =
    map2
      (fun negs poss -> Clause.make ~neg:negs ~pos:poss)
      (list_size (int_bound 2) (int_bound (n - 1)))
      (list_size (int_range 1 2) (int_bound (n - 1)))
  in
  map (fun cs -> Cnf.make (List.filter_map Fun.id cs)) (list_size (int_range 0 10) clause)

let graph_cnf_gen n =
  let open QCheck.Gen in
  let edge = map2 (fun a b -> if a = b then None else Some (Clause.edge a b))
      (int_bound (n - 1)) (int_bound (n - 1)) in
  map (fun cs -> Cnf.make (List.filter_map Fun.id cs)) (list_size (int_range 0 12) edge)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)

let prop_solver_agrees_with_naive =
  QCheck.Test.make ~count:300 ~name:"Solver.solve finds a model iff one exists"
    (QCheck.make (random_cnf_gen 7))
    (fun cnf ->
      match Solver.solve cnf, naive_sat cnf 7 with
      | Some m, Some _ -> Cnf.holds cnf m
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_satisfiable_agrees_with_solve =
  QCheck.Test.make ~count:500 ~name:"Solver.satisfiable = Option.is_some Solver.solve"
    (* Fewer variables make unsatisfiable draws common. *)
    (QCheck.make QCheck.Gen.(int_range 2 7 >>= random_cnf_gen))
    (fun cnf -> Solver.satisfiable cnf = Option.is_some (Solver.solve cnf))

let prop_solve_with_required =
  QCheck.Test.make ~count:200 ~name:"Solver.solve_with respects required"
    (QCheck.make QCheck.Gen.(pair (random_cnf_gen 6) (int_bound 5)))
    (fun (cnf, r) ->
      match Solver.solve_with cnf ~required:(Assignment.singleton r) with
      | None -> true
      | Some m -> Assignment.mem r m && Cnf.holds cnf m)

let prop_minimize_subset =
  QCheck.Test.make ~count:200 ~name:"Solver.minimize shrinks within the model"
    (QCheck.make (random_cnf_gen 6))
    (fun cnf ->
      match Solver.solve cnf with
      | None -> true
      | Some model ->
          let order = Order.of_list (List.init 6 Fun.id) in
          let small = Solver.minimize cnf ~order ~required:Assignment.empty ~model in
          Assignment.subset small model && Cnf.holds cnf small)

(* The greedy rule by enumeration: visiting the candidates largest-[<]
   first, drop each one iff some model inside [model] sets every
   commitment and the candidate false. *)
let greedy_reference cnf ~order ~required ~model =
  let inside = Assignment.to_list model in
  let subsets =
    List.init
      (1 lsl List.length inside)
      (fun mask -> Assignment.of_list (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) inside))
    |> List.filter (Cnf.holds cnf)
  in
  let candidates =
    Assignment.diff model required |> Assignment.to_list |> Order.sort order |> List.rev
  in
  let _, _, keep =
    List.fold_left
      (fun (on, off, keep) v ->
        let off' = Assignment.add v off in
        if List.exists (fun m -> Assignment.subset on m && Assignment.disjoint off' m) subsets then
          (on, off', keep)
        else (Assignment.add v on, off, Assignment.add v keep))
      (required, Assignment.empty, required) candidates
  in
  keep

let prop_minimize_greedy =
  let n = 7 in
  QCheck.Test.make ~count:300 ~name:"Solver.minimize = greedy by enumeration"
    (QCheck.make
       QCheck.Gen.(
         triple (random_cnf_gen n)
           (shuffle_l (List.init n Fun.id))
           (list_size (int_bound 3) (int_bound (n - 1)))))
    (fun (cnf, ranking, req) ->
      let order = Order.of_list ranking in
      let required = Assignment.of_list req in
      match Solver.solve_with cnf ~required with
      | None -> true
      | Some model ->
          Assignment.equal
            (Solver.minimize cnf ~order ~required ~model)
            (greedy_reference cnf ~order ~required ~model))

(* A unit clause must hold on every solve of the same formula, not only
   the first. *)
let test_solve_repeat_stable () =
  match Dimacs.of_string "p cnf 6 5\n-3 -6 0\n-1 5 0\n5 6 0\n2 3 0\n-6 0\n" with
  | Error m -> Alcotest.failf "dimacs: %s" m
  | Ok cnf ->
      let model = function
        | Some m -> Assignment.to_list m
        | None -> Alcotest.fail "satisfiable formula reported unsat"
      in
      let first = Solver.solve cnf in
      let second = Solver.solve cnf in
      Alcotest.(check (list int)) "second solve, same model" (model first) (model second);
      Alcotest.(check bool) "model satisfies the formula" true (Cnf.holds cnf (Option.get second))

(* ------------------------------------------------------------------ *)
(* MSA                                                                 *)

let order6 = Order.of_list (List.init 6 Fun.id)

let prop_msa_satisfies =
  QCheck.Test.make ~count:300 ~name:"MSA result satisfies the formula and required set"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 6) (list_size (int_bound 2) (int_bound 5))))
    (fun (cnf, req) ->
      let required = Assignment.of_list req in
      let universe = Assignment.of_list (List.init 6 Fun.id) in
      match Msa.compute cnf ~order:order6 ~universe ~required () with
      | None -> false (* implication fragment with required always satisfiable *)
      | Some m -> Assignment.subset required m && Cnf.holds cnf m)

(* On graph constraints the MSA is the exact least model: it equals the
   forward closure of the required set over the implication edges. *)
let prop_msa_least_model_on_graphs =
  QCheck.Test.make ~count:300 ~name:"MSA on graph constraints = reachability closure"
    (QCheck.make QCheck.Gen.(pair (graph_cnf_gen 6) (list_size (int_bound 3) (int_bound 5))))
    (fun (cnf, req) ->
      let required = Assignment.of_list req in
      let universe = Assignment.of_list (List.init 6 Fun.id) in
      match Msa.compute cnf ~order:order6 ~universe ~required () with
      | None -> false
      | Some m ->
          (* closure by brute force *)
          let edges =
            Cnf.clauses cnf
            |> List.map (fun (c : Clause.t) -> (c.neg.(0), c.pos.(0)))
          in
          let rec close set =
            let next =
              List.fold_left
                (fun acc (a, b) -> if Assignment.mem a acc then Assignment.add b acc else acc)
                set edges
            in
            if Assignment.equal next set then set else close next
          in
          Assignment.equal m (close required))

let test_msa_order_tiebreak () =
  (* required head choice follows the order: a => b | c. *)
  let cnf = Cnf.make [ Clause.make_exn ~neg:[ 0 ] ~pos:[ 1; 2 ] ] in
  let universe = Assignment.of_list [ 0; 1; 2 ] in
  let check order expected =
    match Msa.compute cnf ~order ~universe ~required:(Assignment.singleton 0) () with
    | None -> Alcotest.fail "unsat"
    | Some m -> Alcotest.(check (list int)) "chosen head" expected (Assignment.to_list m)
  in
  check (Order.of_list [ 0; 1; 2 ]) [ 0; 1 ];
  check (Order.of_list [ 0; 2; 1 ]) [ 0; 2 ]

let test_msa_engine_incremental () =
  (* Incremental assumes equal one-shot computes. *)
  let cnf =
    Cnf.make [ Clause.edge 0 1; Clause.edge 1 2; Clause.make_exn ~neg:[ 2; 3 ] ~pos:[ 4 ] ]
  in
  let universe = Assignment.of_list [ 0; 1; 2; 3; 4 ] in
  let order = Order.of_list [ 0; 1; 2; 3; 4 ] in
  match Msa.Engine.create cnf ~order ~universe with
  | Error `Conflict -> Alcotest.fail "unexpected conflict"
  | Ok engine ->
      Alcotest.(check bool) "assume 0" true (Msa.Engine.assume engine 0 = Ok ());
      Alcotest.(check (list int)) "closure of 0" [ 0; 1; 2 ]
        (Assignment.to_list (Msa.Engine.true_set engine));
      Alcotest.(check bool) "assume 3" true (Msa.Engine.assume engine 3 = Ok ());
      Alcotest.(check (list int)) "horn fires" [ 0; 1; 2; 3; 4 ]
        (Assignment.to_list (Msa.Engine.true_set engine))

let test_msa_conflict_fallback () =
  (* Purely negative clause: engine conflicts, the solver fallback answers. *)
  let cnf = Cnf.make [ Clause.make_exn ~neg:[ 0; 1 ] ~pos:[]; Clause.edge 0 1 ] in
  let universe = Assignment.of_list [ 0; 1 ] in
  let order = Order.of_list [ 0; 1 ] in
  (match Msa.compute cnf ~order ~universe ~required:Assignment.empty () with
  | None -> Alcotest.fail "satisfiable: empty set works"
  | Some m -> Alcotest.(check bool) "empty or consistent" true (Cnf.holds cnf m));
  match Msa.compute cnf ~order ~universe ~required:(Assignment.singleton 0) () with
  | None -> () (* requiring 0 forces 1 (edge), violating the negative clause *)
  | Some _ -> Alcotest.fail "should be unsat with required=0"

(* MSA respects the universe restriction: variables outside it never turn
   on, even when clauses mention them. *)
let prop_msa_respects_universe =
  QCheck.Test.make ~count:300 ~name:"MSA never assigns outside the universe"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 6) (list_size (int_range 1 4) (int_bound 5))))
    (fun (cnf, uni) ->
      let universe = Assignment.of_list uni in
      match Msa.compute cnf ~order:order6 ~universe ~required:Assignment.empty () with
      | None -> true
      | Some m -> Assignment.subset m universe)

(* The engine's closure is monotone in its assumptions. *)
let prop_engine_monotone =
  QCheck.Test.make ~count:200 ~name:"engine closures grow monotonically"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 6) (list_size (int_bound 4) (int_bound 5))))
    (fun (cnf, to_assume) ->
      let universe = Assignment.of_list (List.init 6 Fun.id) in
      match Msa.Engine.create cnf ~order:order6 ~universe with
      | Error `Conflict -> true
      | Ok engine ->
          let rec go previous = function
            | [] -> true
            | v :: rest -> (
                match Msa.Engine.assume engine v with
                | Error `Conflict -> true
                | Ok () ->
                    let current = Msa.Engine.true_set engine in
                    Assignment.subset previous current
                    && Assignment.mem v current
                    && go current rest)
          in
          go (Msa.Engine.true_set engine) to_assume)

(* ------------------------------------------------------------------ *)
(* Structural operations (add_clause, narrow)                          *)

let universe6 = Assignment.of_list (List.init 6 Fun.id)

(* Same visible state now, and the same result + state after every probe
   assumption (out-of-universe and conflicting assumes included). *)
let behaves_like e f probes =
  Assignment.equal (Msa.Engine.true_set e) (Msa.Engine.true_set f)
  && List.for_all
       (fun v ->
         let re = Msa.Engine.assume e v and rf = Msa.Engine.assume f v in
         re = rf && Assignment.equal (Msa.Engine.true_set e) (Msa.Engine.true_set f))
       probes

let probes6 = List.init 6 Fun.id

(* The inter-iteration update of the incremental GBR core: appending a
   learned disjunction and narrowing must be indistinguishable from a fresh
   engine on the rebuilt formula ([r_plus] prepends the learned clause) at
   the shrunk universe — including conflict parity. *)
let prop_add_narrow_equals_rebuild =
  QCheck.Test.make ~count:300
    ~name:"add_clause + narrow = fresh create on the rebuilt formula"
    (QCheck.make
       QCheck.Gen.(
         triple (implication_cnf_gen 6)
           (list_size (int_range 1 3) (int_bound 5))
           (list_size (int_bound 5) (int_bound 5))))
    (fun (cnf, pos, keep_list) ->
      let pos = List.sort_uniq compare pos in
      let keep = Assignment.of_list keep_list in
      match Msa.Engine.create cnf ~order:order6 ~universe:universe6 with
      | Error `Conflict -> true
      | Ok e -> (
          let incremental =
            match Msa.Engine.add_clause e ~pos with
            | Error `Conflict -> None
            | Ok () -> (
                match Msa.Engine.narrow e ~keep with
                | Error `Conflict -> None
                | Ok () -> Some e)
          in
          let rebuilt =
            match
              Msa.Engine.create
                (Cnf.add_clause cnf (Clause.of_disjunction ~pos))
                ~order:order6 ~universe:keep
            with
            | Error `Conflict -> None
            | Ok f -> Some f
          in
          match incremental, rebuilt with
          | None, None -> true
          | Some e, Some f -> behaves_like e f probes6
          | None, Some _ | Some _, None -> false))

(* ------------------------------------------------------------------ *)
(* Watched-premise propagation vs the counter-based scan scheme it
   replaced.  [Scan] is a direct reimplementation of the pre-watched
   engine's propagation core — a premises-left counter per clause, eager
   satisfied-flag sweeps, occurrence lists in decreasing clause order —
   with none of the watched machinery.  The two must produce identical
   closures and conflict verdicts after every assumption: the firing
   schedule is observable (head tie-breaks depend on which clause fires
   first), so this pins schedule equivalence, not just least-model
   equality. *)
module Scan = struct
  type t = {
    order : Order.t;
    truth : bool array;
    in_universe : bool array;
    heads : Var.t array array;
    premises_left : int array;
    satisfied : bool array;
    occs_premise : int list array;  (* var -> premise clauses, decreasing ci *)
    occs_head : int list array;
    trail : Var.t array;
    mutable trail_len : int;
    mutable drained : int;
    mutable conflicted : bool;
  }

  let set_true t v =
    if not t.truth.(v) then begin
      t.truth.(v) <- true;
      t.trail.(t.trail_len) <- v;
      t.trail_len <- t.trail_len + 1
    end

  let trigger t ci =
    if not t.satisfied.(ci) then
      if Array.exists (fun h -> t.truth.(h)) t.heads.(ci) then t.satisfied.(ci) <- true
      else
        match Order.min_of_array t.order t.heads.(ci) ~keep:(fun h -> t.in_universe.(h)) with
        | None -> t.conflicted <- true
        | Some h ->
            t.satisfied.(ci) <- true;
            set_true t h

  let drain t =
    while (not t.conflicted) && t.drained < t.trail_len do
      let v = t.trail.(t.drained) in
      t.drained <- t.drained + 1;
      List.iter (fun ci -> t.satisfied.(ci) <- true) t.occs_head.(v);
      List.iter
        (fun ci ->
          t.premises_left.(ci) <- t.premises_left.(ci) - 1;
          if t.premises_left.(ci) = 0 then trigger t ci)
        t.occs_premise.(v)
    done

  let create cnf ~order ~universe =
    let n =
      let m = ref (-1) in
      Assignment.iter (fun v -> if v > !m then m := v) (Cnf.vars cnf);
      Assignment.iter (fun v -> if v > !m then m := v) universe;
      !m + 1
    in
    let in_universe = Array.make n false in
    Assignment.iter (fun v -> in_universe.(v) <- true) universe;
    let relevant =
      List.filter
        (fun (c : Clause.t) -> Array.for_all (fun v -> in_universe.(v)) c.neg)
        (Cnf.clauses cnf)
      |> Array.of_list
    in
    let nclauses = Array.length relevant in
    let heads =
      Array.map
        (fun (c : Clause.t) ->
          Array.to_list c.pos |> List.filter (fun v -> in_universe.(v)) |> Array.of_list)
        relevant
    in
    let occs_premise = Array.make n [] and occs_head = Array.make n [] in
    for ci = 0 to nclauses - 1 do
      Array.iter (fun v -> occs_premise.(v) <- ci :: occs_premise.(v)) relevant.(ci).neg;
      Array.iter (fun v -> occs_head.(v) <- ci :: occs_head.(v)) heads.(ci)
    done;
    let t =
      {
        order;
        truth = Array.make n false;
        in_universe;
        heads;
        premises_left = Array.map (fun (c : Clause.t) -> Array.length c.neg) relevant;
        satisfied = Array.make nclauses false;
        occs_premise;
        occs_head;
        trail = Array.make n 0;
        trail_len = 0;
        drained = 0;
        conflicted = Cnf.is_unsat cnf;
      }
    in
    Array.iteri (fun ci pl -> if pl = 0 then trigger t ci) t.premises_left;
    drain t;
    if t.conflicted then Error `Conflict else Ok t

  let assume t v =
    if t.conflicted then Error `Conflict
    else if v >= Array.length t.in_universe || not t.in_universe.(v) then Error `Conflict
    else begin
      set_true t v;
      drain t;
      if t.conflicted then Error `Conflict else Ok ()
    end

  let true_set t =
    let acc = ref [] in
    for v = Array.length t.truth - 1 downto 0 do
      if t.truth.(v) then acc := v :: !acc
    done;
    Assignment.of_list !acc
end

(* Lockstep comparison: same create verdict, same closure, and after every
   assumption the same verdict and closure again.  Stops at the first
   conflict (both engines are unusable past it by contract). *)
let watched_equals_scan cnf ~order ~universe assumes =
  match Msa.Engine.create cnf ~order ~universe, Scan.create cnf ~order ~universe with
  | Error `Conflict, Error `Conflict -> true
  | Error `Conflict, Ok _ | Ok _, Error `Conflict -> false
  | Ok e, Ok s ->
      Assignment.equal (Msa.Engine.true_set e) (Scan.true_set s)
      &&
      let rec go = function
        | [] -> true
        | v :: rest -> (
            match Msa.Engine.assume e v, Scan.assume s v with
            | Ok (), Ok () ->
                Assignment.equal (Msa.Engine.true_set e) (Scan.true_set s) && go rest
            | Error `Conflict, Error `Conflict -> true
            | Ok (), Error `Conflict | Error `Conflict, Ok () -> false)
      in
      go assumes

let prop_watched_equals_scan_implications =
  QCheck.Test.make ~count:400 ~name:"watched = counter-scan (implication fragment)"
    (QCheck.make
       QCheck.Gen.(pair (implication_cnf_gen 6) (list_size (int_bound 5) (int_bound 7))))
    (fun (cnf, assumes) ->
      watched_equals_scan cnf ~order:order6
        ~universe:(Assignment.of_list (List.init 6 Fun.id))
        assumes)

let prop_watched_equals_scan_general =
  QCheck.Test.make ~count:400 ~name:"watched = counter-scan (conflicting clauses)"
    (QCheck.make
       QCheck.Gen.(pair (random_cnf_gen 6) (list_size (int_bound 5) (int_bound 7))))
    (fun (cnf, assumes) ->
      watched_equals_scan cnf ~order:order6
        ~universe:(Assignment.of_list (List.init 6 Fun.id))
        assumes)

(* And on a shrunk universe, where clauses get dropped or their head lists
   filtered at indexing time. *)
let prop_watched_equals_scan_narrowed_universe =
  QCheck.Test.make ~count:400 ~name:"watched = counter-scan (partial universe)"
    (QCheck.make
       QCheck.Gen.(
         triple (random_cnf_gen 6)
           (list_size (int_range 1 5) (int_bound 5))
           (list_size (int_bound 5) (int_bound 7))))
    (fun (cnf, uni, assumes) ->
      watched_equals_scan cnf ~order:order6 ~universe:(Assignment.of_list uni) assumes)

(* ------------------------------------------------------------------ *)
(* Progressions stored as trail segments, against the counter-scan
   engine: the same progression loop (assume the [<]-smallest uncovered
   variable, record what it adds) run on [Scan] gives the reference
   entries as trail deltas.  The engine-backed progression must equal
   them entry by entry and prefix by prefix — fresh, and after a learned
   clause and a narrow. *)

(* Clauses of 0–3 premises (one premise: the engine's static lists; more:
   its watch lists) and 0–3 heads (multi-head choices, and purely
   negative clauses that can conflict). *)
let mixed_cnf_gen n =
  let open QCheck.Gen in
  let vars size = list_size size (int_bound (n - 1)) in
  let clause =
    map2
      (fun neg pos -> Clause.make ~neg ~pos)
      (vars (frequency [ (1, return 0); (4, return 1); (2, return 2); (1, return 3) ]))
      (vars (frequency [ (1, return 0); (4, return 1); (3, int_range 2 3) ]))
  in
  map (fun cs -> Cnf.make (List.filter_map Fun.id cs)) (list_size (int_range 0 14) clause)

(* [None] when the scan engine conflicts on the way. *)
let scan_progression cnf ~order ~universe =
  match Scan.create cnf ~order ~universe with
  | Error `Conflict -> None
  | Ok s ->
      let segment lo hi = Assignment.of_list (List.init (hi - lo) (fun i -> s.trail.(lo + i))) in
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | v :: rest when s.truth.(v) -> go acc rest
        | v :: rest -> (
            let m = s.trail_len in
            match Scan.assume s v with
            | Error `Conflict -> None
            | Ok () -> go (segment m s.trail_len :: acc) rest)
      in
      go [ segment 0 s.trail_len ] (Assignment.to_list universe |> Order.sort order)

let progression_equals_scan prog reference =
  match prog, reference with
  | Error `Conflict, None -> true
  | Ok p, Some entries ->
      Lbr.Progression.length p = List.length entries
      &&
      let rec go r union = function
        | [] -> true
        | e :: rest ->
            let union = Assignment.union union e in
            Assignment.equal (Lbr.Progression.entry p r) e
            && Assignment.equal (Lbr.Progression.prefix p r) union
            && go (r + 1) union rest
      in
      go 0 Assignment.empty entries
  | Ok _, None | Error `Conflict, Some _ -> false

let prop_trail_progression_equals_scan =
  let n = 8 in
  let print (cnf, ranking, pos, keep) =
    let ints l = String.concat " " (List.map string_of_int l) in
    Printf.sprintf "%sorder: %s\nlearned: %s\nkeep: %s" (Dimacs.to_string cnf) (ints ranking)
      (ints pos) (ints keep)
  in
  QCheck.Test.make ~count:1500 ~name:"trail-segment progression = counter-scan deltas"
    (QCheck.make ~print
       QCheck.Gen.(
         quad (mixed_cnf_gen n)
           (shuffle_l (List.init n Fun.id))
           (list_size (int_range 1 3) (int_bound (n - 1)))
           (list_size (int_bound n) (int_bound (n - 1)))))
    (fun (cnf, ranking, pos, keep_list) ->
      let order = Order.of_list ranking in
      let universe = Assignment.of_list (List.init n Fun.id) in
      let pos = List.sort_uniq Int.compare pos and keep = Assignment.of_list keep_list in
      let build engine ~universe =
        Lbr.Progression.build_incremental ~engine ~universe
      in
      match Msa.Engine.create cnf ~order ~universe, Scan.create cnf ~order ~universe with
      | Error `Conflict, Error `Conflict -> true
      | Error `Conflict, Ok _ | Ok _, Error `Conflict -> false
      | Ok fresh, Ok _ -> (
          progression_equals_scan (build fresh ~universe)
            (scan_progression cnf ~order ~universe)
          &&
          (* The inter-iteration update, against a scan of the rebuilt
             formula (the learned clause prepended) on the shrunk
             universe. *)
          let rebuilt = Cnf.add_clause cnf (Clause.of_disjunction ~pos) in
          let reference = scan_progression rebuilt ~order ~universe:keep in
          match Msa.Engine.create cnf ~order ~universe with
          | Error `Conflict -> false
          | Ok e -> (
              match Msa.Engine.add_clause e ~pos with
              | Error `Conflict ->
                  (* Integrated over the old universe, the clause can
                     conflict where the rebuild on [keep] does not; GBR
                     falls back to the rebuild there. *)
                  true
              | Ok () -> (
                  match Msa.Engine.narrow e ~keep with
                  | Error `Conflict -> reference = None
                  | Ok () -> progression_equals_scan (build e ~universe:keep) reference))))

(* ------------------------------------------------------------------ *)
(* Pinned values on a realistic workload: any change to MSA head choice,
   clause indexing order, or the engine's undo discipline shows up here. *)

let checksum m = Assignment.fold (fun v acc -> ((acc * 1000003) + v) land max_int) m 0

let test_msa_pinned_workload () =
  let pool =
    Lbr_workload.Generator.generate ~seed:7 (Lbr_workload.Generator.njr_profile ~classes:40)
  in
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool pool in
  let cnf = Lbr_jvm.Constraints.generate jv pool in
  let universe = Lbr_jvm.Jvars.all jv in
  let order = Order.by_creation vpool in
  Alcotest.(check int) "universe size" 587 (Assignment.cardinal universe);
  Alcotest.(check int) "clause count" 1914 (Cnf.num_clauses cnf);
  let msa req = Msa.compute cnf ~order ~universe ~required:(Assignment.of_list req) () in
  let check name req card sum =
    match msa req with
    | None -> Alcotest.failf "%s: unexpectedly unsat" name
    | Some m ->
        Alcotest.(check int) (name ^ ": cardinal") card (Assignment.cardinal m);
        Alcotest.(check int) (name ^ ": checksum") sum (checksum m)
  in
  check "required {}" [] 0 0;
  check "required {0}" [ 0 ] 1 0;
  check "required {17}" [ 17 ] 3 9000069000143;
  check "required {123}" [ 123 ] 10 3119680083862155803;
  check "required {500}" [ 500 ] 8 2391785680800883110;
  (match msa [ 1111 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "required {1111} should be unsat");
  (* The watched engine against the counter-scan reference on the real
     constraint system, not just random 6-variable formulas. *)
  List.iter
    (fun req ->
      Alcotest.(check bool)
        (Printf.sprintf "watched = scan on workload, %d assumes" (List.length req))
        true
        (watched_equals_scan cnf ~order ~universe req))
    [ []; [ 0 ]; [ 17 ]; [ 123 ]; [ 500 ]; [ 17; 123; 500 ]; [ 1111 ] ];
  match Lbr.Progression.make ~cnf ~order ~learned:[] ~universe with
  | Error `Unsat -> Alcotest.fail "progression unexpectedly unsat"
  | Ok p ->
      let entries = Lbr.Progression.entries p in
      Alcotest.(check int) "progression entries" 448 (List.length entries);
      let unions = Lbr.Progression.prefix_unions entries in
      Alcotest.(check int) "last prefix union covers the universe" 587
        (Assignment.cardinal unions.(Array.length unions - 1))

(* ------------------------------------------------------------------ *)
(* Incremental CDCL                                                    *)

(* A clause set over variables 1..n (n <= 8) with empty and unit clauses,
   repeated literals and tautologies; sometimes more than one bitset word
   of clauses. *)
let cdcl_case_gen =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let lit = map2 (fun v s -> if s then v else -v) (int_range 1 n) bool in
  let clause =
    frequency
      [ (1, return [||]); (4, map (fun l -> [| l |]) lit); (12, array_size (int_range 2 4) lit) ]
  in
  let* count = frequency [ (4, int_range 0 24); (1, int_range 60 150) ] in
  let* clauses = array_repeat count clause in
  let+ seed = int in
  (n, clauses, seed)

let print_cdcl_case (n, clauses, seed) =
  Printf.sprintf "n=%d seed=%d clauses=[%s]" n seed
    (String.concat "; "
       (Array.to_list
          (Array.map (fun c -> String.concat " " (Array.to_list (Array.map string_of_int c))) clauses)))

(* The probes: prefixes of one clause order, random subsets, and subsets
   of the previous probe, mixed. *)
let cdcl_probes ~seed m =
  let rng = Random.State.make [| seed |] in
  let order = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let previous = ref (List.init m Fun.id) in
  List.init
    (20 + Random.State.int rng 41)
    (fun _ ->
      let probe =
        match Random.State.int rng 3 with
        | 0 -> Array.to_list (Array.sub order 0 (Random.State.int rng (m + 1)))
        | 1 ->
            let p = Random.State.float rng 1.0 in
            List.filter (fun _ -> Random.State.float rng 1.0 < p) (List.init m Fun.id)
        | _ -> List.filter (fun _ -> Random.State.int rng 4 > 0) !previous
      in
      previous := probe;
      List.sort_uniq compare probe)

let prop_cdcl_incremental =
  QCheck.Test.make ~count:300
    ~name:"incremental verdicts = brute force; cores unsatisfiable; models satisfy"
    (QCheck.make ~print:print_cdcl_case cdcl_case_gen)
    (fun (n, clauses, seed) ->
      let m = Array.length clauses in
      let holds value c = Array.exists (fun l -> value (abs l) = (l > 0)) c in
      (* Per assignment of 1..n, the clauses it falsifies. *)
      let falsified =
        List.init (1 lsl n) (fun mask ->
            let value v = mask land (1 lsl (v - 1)) <> 0 in
            List.filter (fun i -> not (holds value clauses.(i))) (List.init m Fun.id))
      in
      let brute_sat probe =
        List.exists (List.for_all (fun i -> not (List.mem i probe))) falsified
      in
      let solver = Lbr_sat.Cdcl.create clauses in
      List.for_all
        (fun probe ->
          let sel = Lbr_sat.Cdcl.selection solver in
          List.iter (Lbr_sat.Cdcl.select sel) probe;
          let sat = Lbr_sat.Cdcl.satisfiable solver sel in
          if sat <> brute_sat probe then
            QCheck.Test.fail_reportf "probe [%s]: verdict %b"
              (String.concat " " (List.map string_of_int probe))
              sat
          else if sat then
            List.for_all (fun i -> holds (Lbr_sat.Cdcl.value solver) clauses.(i)) probe
            || QCheck.Test.fail_report "a model falsifies a selected clause"
          else
            let core = Lbr_sat.Cdcl.core solver in
            (List.for_all (fun i -> List.mem i probe) core
            || QCheck.Test.fail_report "a core leaves the selection")
            && ((not (brute_sat core)) || QCheck.Test.fail_report "a core is satisfiable"))
        (cdcl_probes ~seed m))

(* Literal assumptions on one solver: each probe assumes a random partial
   assignment (no variable twice) on a random selection, and is followed
   by the same selection without it, so a query that is unsatisfiable
   only because of an assumed literal is followed by one that must not be
   answered from it. *)
let prop_cdcl_assumptions =
  QCheck.Test.make ~count:300 ~name:"literal assumptions = brute force, interleaved"
    (QCheck.make ~print:print_cdcl_case cdcl_case_gen)
    (fun (n, clauses, seed) ->
      let m = Array.length clauses in
      let rng = Random.State.make [| seed |] in
      let holds value c = Array.exists (fun l -> value (abs l) = (l > 0)) c in
      let occurs v = Array.exists (Array.exists (fun l -> abs l = v)) clauses in
      let brute_sat probe assuming =
        List.exists
          (fun mask ->
            let value v = mask land (1 lsl (v - 1)) <> 0 in
            List.for_all (fun l -> value (abs l) = (l > 0)) assuming
            && List.for_all (fun i -> holds value clauses.(i)) probe)
          (List.init (1 lsl n) Fun.id)
      in
      let solver = Lbr_sat.Cdcl.create clauses in
      let query probe assuming =
        let sel = Lbr_sat.Cdcl.selection solver in
        List.iter (Lbr_sat.Cdcl.select sel) probe;
        let sat = Lbr_sat.Cdcl.satisfiable solver sel ~assuming in
        let show l = String.concat " " (List.map string_of_int l) in
        if sat <> brute_sat probe assuming then
          QCheck.Test.fail_reportf "probe [%s] assuming [%s]: verdict %b" (show probe)
            (show assuming) sat
        else if sat then
          (List.for_all (fun i -> holds (Lbr_sat.Cdcl.value solver) clauses.(i)) probe
          || QCheck.Test.fail_report "a model falsifies a selected clause")
          && (List.for_all
                (fun l -> (not (occurs (abs l))) || Lbr_sat.Cdcl.value solver (abs l) = (l > 0))
                assuming
             || QCheck.Test.fail_report "a model disagrees with an assumed literal")
        else
          let core = Lbr_sat.Cdcl.core solver in
          (List.for_all (fun i -> List.mem i probe) core
          || QCheck.Test.fail_report "a core leaves the selection")
          && ((not (brute_sat core assuming))
             || QCheck.Test.fail_report "a core is satisfiable under the assumptions")
      in
      List.for_all
        (fun probe ->
          let assuming =
            List.filter_map
              (fun v ->
                match Random.State.int rng 3 with
                | 0 -> Some v
                | 1 -> Some (-v)
                | _ -> None)
              (List.init n (fun i -> i + 1))
          in
          query probe assuming && query probe [])
        (cdcl_probes ~seed m))

(* [1 ∨ 2] and [¬1] force 2: assuming [¬2] is unsatisfiable, yet the
   clauses alone are not, so that answer must not be stored as a core. *)
let test_cdcl_assumption_core_not_stored () =
  let solver = Lbr_sat.Cdcl.create [| [| 1; 2 |]; [| -1 |] |] in
  let sel = Lbr_sat.Cdcl.selection solver in
  Lbr_sat.Cdcl.select sel 0;
  Lbr_sat.Cdcl.select sel 1;
  Alcotest.(check bool) "unsat assuming -2" false
    (Lbr_sat.Cdcl.satisfiable solver sel ~assuming:[ -2 ]);
  Alcotest.(check bool) "sat without it" true (Lbr_sat.Cdcl.satisfiable solver sel);
  Alcotest.(check bool) "2 is true" true (Lbr_sat.Cdcl.value solver 2);
  Alcotest.(check bool) "a stored model does not answer against its values" false
    (Lbr_sat.Cdcl.satisfiable solver sel ~assuming:[ -2 ]);
  Alcotest.(check bool) "an assumption on an absent variable is ignored" true
    (Lbr_sat.Cdcl.satisfiable solver sel ~assuming:[ 2; 9 ])

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lbr_sat"
    [
      ( "solver",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_solver_agrees_with_naive;
            prop_satisfiable_agrees_with_solve;
            prop_solve_with_required;
            prop_minimize_subset;
            prop_minimize_greedy;
          ]
        @ [ Alcotest.test_case "input units survive solve" `Quick test_solve_repeat_stable ] );
      ( "cdcl",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_cdcl_incremental; prop_cdcl_assumptions ]
        @ [
            Alcotest.test_case "assumption-only unsat is not a stored core" `Quick
              test_cdcl_assumption_core_not_stored;
          ] );
      qsuite "msa-prop"
        [
          prop_msa_satisfies;
          prop_msa_least_model_on_graphs;
          prop_msa_respects_universe;
          prop_engine_monotone;
          prop_add_narrow_equals_rebuild;
          prop_watched_equals_scan_implications;
          prop_watched_equals_scan_general;
          prop_watched_equals_scan_narrowed_universe;
          prop_trail_progression_equals_scan;
        ];
      ( "msa",
        [
          Alcotest.test_case "order tie-break" `Quick test_msa_order_tiebreak;
          Alcotest.test_case "incremental engine" `Quick test_msa_engine_incremental;
          Alcotest.test_case "conflict fallback" `Quick test_msa_conflict_fallback;
          Alcotest.test_case "pinned 40-class workload" `Quick test_msa_pinned_workload;
        ] );
    ]
