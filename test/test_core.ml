(* Tests for the core reduction library: instrumented predicates, the
   progression subroutine and its invariants, GBR (Algorithm 1), and the
   lossy encodings of §4.3. *)

open Lbr_logic
open Lbr_sat

let order_n n = Order.of_list (List.init n Fun.id)

let universe_n n = Assignment.of_list (List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Predicate                                                           *)

let test_predicate_memoization () =
  let p = Lbr.Predicate.make (fun s -> Assignment.mem 0 s) in
  let a = Assignment.of_list [ 0; 1 ] in
  Alcotest.(check bool) "first" true (Lbr.Predicate.run p a);
  Alcotest.(check bool) "second" true (Lbr.Predicate.run p a);
  Alcotest.(check int) "one execution" 1 (Lbr.Predicate.runs p);
  Alcotest.(check int) "two queries" 2 (Lbr.Predicate.queries p)

(* A black box that raises counts its run and query, and caches nothing. *)
let test_predicate_raising () =
  let p = Lbr.Predicate.make (fun _ -> failwith "tool crashed") in
  let a = Assignment.singleton 0 in
  for _ = 1 to 2 do
    Alcotest.check_raises "re-raised" (Failure "tool crashed") (fun () ->
        ignore (Lbr.Predicate.run p a : bool))
  done;
  Alcotest.(check int) "two executions" 2 (Lbr.Predicate.runs p);
  Alcotest.(check int) "two queries" 2 (Lbr.Predicate.queries p)

(* ------------------------------------------------------------------ *)
(* Progression: INV-PRO and the shape guarantees                       *)

let implication_cnf_gen n =
  let open QCheck.Gen in
  let clause =
    map2
      (fun negs poss -> Clause.make ~neg:negs ~pos:poss)
      (list_size (int_bound 2) (int_bound (n - 1)))
      (list_size (int_range 1 2) (int_bound (n - 1)))
  in
  map (fun cs -> Cnf.make (List.filter_map Fun.id cs)) (list_size (int_range 0 10) clause)

(* Clauses of 0–3 premises and 0–3 heads: multi-head clauses leave the
   implication fragment and purely negative ones can conflict, so GBR
   meets engine conflicts in a progression's sweep, the rebuild fallback
   and [`Unsat]. *)
let mixed_cnf_gen n =
  let open QCheck.Gen in
  let vars size = list_size size (int_bound (n - 1)) in
  let clause =
    map2
      (fun neg pos -> Clause.make ~neg ~pos)
      (vars (frequency [ (1, return 0); (4, return 1); (2, return 2); (1, return 3) ]))
      (vars (frequency [ (1, return 0); (4, return 1); (3, int_range 2 3) ]))
  in
  map (fun cs -> Cnf.make (List.filter_map Fun.id cs)) (list_size (int_range 0 10) clause)

let learned_gen n =
  QCheck.Gen.(list_size (int_bound 2) (list_size (int_range 1 3) (int_bound (n - 1))))

let prop_progression_invariants =
  QCheck.Test.make ~count:300 ~name:"progression: disjoint, covering, valid prefixes"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 7) (learned_gen 7)))
    (fun (cnf, learned_raw) ->
      let universe = universe_n 7 in
      let learned = List.map Assignment.of_list learned_raw in
      match Lbr.Progression.make ~cnf ~order:(order_n 7) ~learned ~universe with
      | Error `Unsat -> true (* a learned set may be unsatisfiable with cnf *)
      | Ok p ->
          let entries = Lbr.Progression.entries p in
          let prefixes = Lbr.Progression.prefix_unions entries in
          let n = Array.length prefixes in
          (* non-empty, disjoint, union = universe *)
          n > 0
          && Assignment.equal prefixes.(n - 1) universe
          && List.for_all
               (fun (i, j) ->
                 i >= j || Assignment.disjoint (List.nth entries i) (List.nth entries j))
               (List.concat_map
                  (fun i -> List.map (fun j -> (i, j)) (List.init n Fun.id))
                  (List.init n Fun.id))
          (* INV-PRO: every prefix satisfies R+ and overlaps every learned set *)
          && Array.for_all
               (fun prefix ->
                 Cnf.holds (Cnf.restrict cnf ~keep:universe) prefix
                 && List.for_all
                      (fun l -> not (Assignment.disjoint l prefix))
                      learned)
               prefixes)

(* The stored form reads back as the list form: entries and prefix unions
   of [make] equal [prefix_unions] of its entries. *)
let prop_progression_stored_form =
  QCheck.Test.make ~count:300 ~name:"progression: trail form = list form"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 7) (learned_gen 7)))
    (fun (cnf, learned_raw) ->
      let learned = List.map Assignment.of_list learned_raw in
      match Lbr.Progression.make ~cnf ~order:(order_n 7) ~learned ~universe:(universe_n 7) with
      | Error `Unsat -> true
      | Ok p ->
          let entries = Lbr.Progression.entries p in
          let unions = Lbr.Progression.prefix_unions entries in
          Lbr.Progression.length p = Array.length unions
          && Array.for_all Fun.id
               (Array.mapi (fun r u -> Assignment.equal (Lbr.Progression.prefix p r) u) unions))

(* [make] is the §4.1 definition: D₀ = MSA_<(R⁺) and D_{k+1} =
   MSA_<(R⁺ ∧ x | D^∪_k = 1) ∖ D^∪_k with x = min_< (J ∖ D^∪_k), each MSA
   by [Msa.compute] — including [`Unsat] exactly when some MSA is [None].
   Mixed clauses make the engine conflict, over a random order and a
   random sub-universe [J]; [make] answers [`Unsat] on a conflict without
   computing an entry, and this property is the guard of the argument
   that it may (see {!Lbr.Progression.make}). *)
let prop_progression_is_definition =
  QCheck.Test.make ~count:500 ~name:"progression: make = the §4.1 definition by Msa.compute"
    (QCheck.make
       QCheck.Gen.(
         let n = 7 in
         quad (mixed_cnf_gen n) (learned_gen n)
           (shuffle_l (List.init n Fun.id))
           (list_size (int_bound n) (int_bound (n - 1)))))
    (fun (cnf, learned_raw, order_list, universe_list) ->
      let order = Order.of_list order_list and universe = Assignment.of_list universe_list in
      let learned = List.map Assignment.of_list learned_raw in
      let r_plus =
        Cnf.add_clauses cnf
          (List.map (fun l -> Clause.of_disjunction ~pos:(Assignment.to_list l)) learned)
      in
      let msa required = Msa.compute r_plus ~order ~universe ~required () in
      let rec definition acc covered =
        match Order.min_of order (Assignment.diff universe covered) with
        | None -> Ok (List.rev acc)
        | Some x -> (
            match msa (Assignment.add x covered) with
            | None -> Error `Unsat
            | Some closure ->
                definition (Assignment.diff closure covered :: acc) (Assignment.union covered closure))
      in
      let expected =
        match msa Assignment.empty with None -> Error `Unsat | Some d0 -> definition [ d0 ] d0
      in
      match (Lbr.Progression.make ~cnf ~order ~learned ~universe, expected) with
      | Ok p, Ok entries -> List.equal Assignment.equal (Lbr.Progression.entries p) entries
      | Error `Unsat, Error `Unsat -> true
      | Ok _, Error `Unsat | Error `Unsat, Ok _ -> false)

(* Prefix reads in any order equal [prefix_unions] of the entries: in the
   order a binary search asks for them (the head, then a random path of
   midpoints) and in a shuffled order, for a progression from [make] and
   one built on an engine.  Universes of 7 and 70 variables, the latter
   spanning two bitset words. *)
let prop_progression_prefix_reads =
  QCheck.Test.make ~count:300 ~name:"progression: prefix reads in any order = prefix unions"
    (QCheck.make
       QCheck.Gen.(
         let* n = oneofl [ 7; 70 ] in
         quad (return n) (implication_cnf_gen n) (learned_gen n) int))
    (fun (n, cnf, learned_raw, seed) ->
      let order = order_n n and universe = universe_n n in
      let learned = List.map Assignment.of_list learned_raw in
      let rng = Random.State.make [| seed |] in
      let reads_match p =
        let unions = Lbr.Progression.prefix_unions (Lbr.Progression.entries p) in
        let len = Array.length unions in
        let read r = Assignment.equal (Lbr.Progression.prefix p r) unions.(r) in
        let rec search lo hi =
          hi - lo <= 1
          ||
          let mid = (lo + hi) / 2 in
          read mid && if Random.State.bool rng then search lo mid else search mid hi
        in
        let shuffled = Array.init len Fun.id in
        for i = len - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = shuffled.(i) in
          shuffled.(i) <- shuffled.(j);
          shuffled.(j) <- x
        done;
        Lbr.Progression.length p = len
        && read 0
        && search 0 (len - 1)
        && read (len - 1)
        && Array.for_all read shuffled
      in
      (match Lbr.Progression.make ~cnf ~order ~learned ~universe with
      | Error `Unsat -> true
      | Ok p -> reads_match p)
      &&
      match Msa.Engine.create cnf ~order ~universe with
      | Error `Conflict -> true
      | Ok engine -> (
          match Lbr.Progression.build_incremental ~engine ~universe with
          | Error `Conflict -> true
          | Ok p -> reads_match p))

(* A progression built on an engine borrows the engine's trail: reads
   succeed until the engine is next rolled back, and then raise. *)
let test_progression_borrow_goes_stale () =
  let cnf = Cnf.make [ Clause.edge 0 1; Clause.edge 2 3 ] in
  let order = order_n 4 and universe = universe_n 4 in
  let engine =
    match Msa.Engine.create cnf ~order ~universe with
    | Ok e -> e
    | Error `Conflict -> Alcotest.fail "unexpected conflict"
  in
  let p =
    match Lbr.Progression.build_incremental ~engine ~universe with
    | Ok p -> p
    | Error `Conflict -> Alcotest.fail "unexpected conflict"
  in
  Alcotest.(check int) "length" 3 (Lbr.Progression.length p);
  Alcotest.(check bool) "prefix before the rollback" true
    (Assignment.equal (Lbr.Progression.prefix p 1) (Assignment.of_list [ 0; 1 ]));
  (match Msa.Engine.narrow engine ~keep:(Assignment.of_list [ 0; 1 ]) with
  | Ok () -> ()
  | Error `Conflict -> Alcotest.fail "unexpected conflict");
  let stale name read =
    Alcotest.check_raises name
      (Invalid_argument ("Progression." ^ name ^ ": the engine was rolled back since the build"))
      (fun () -> ignore (read ()))
  in
  stale "prefix" (fun () -> Lbr.Progression.prefix p 1);
  stale "entry" (fun () -> Lbr.Progression.entry p 0);
  stale "length" (fun () -> Lbr.Progression.length p);
  stale "learn" (fun () -> Lbr.Progression.learn engine p 0)

(* ------------------------------------------------------------------ *)
(* GBR                                                                 *)

let graph_cnf_gen n =
  let open QCheck.Gen in
  let edge =
    map2
      (fun a b -> if a = b then None else Some (Clause.edge a b))
      (int_bound (n - 1)) (int_bound (n - 1))
  in
  map (fun cs -> Cnf.make (List.filter_map Fun.id cs)) (list_size (int_range 0 12) edge)

(* closure of a set under the cnf's edges (graph fragment only) *)
let closure_of cnf set =
  let edges = Cnf.clauses cnf |> List.map (fun (c : Clause.t) -> (c.neg.(0), c.pos.(0))) in
  let rec go set =
    let next =
      List.fold_left
        (fun acc (a, b) -> if Assignment.mem a acc then Assignment.add b acc else acc)
        set edges
    in
    if Assignment.equal next set then set else go next
  in
  go set

let run_gbr cnf target n =
  let pool = Var.Pool.create () in
  for _ = 0 to n - 1 do
    ignore (Var.Pool.fresh pool)
  done;
  let predicate = Lbr.Predicate.make (fun s -> Assignment.subset target s) in
  let problem =
    Lbr.Problem.make ~pool ~universe:(universe_n n) ~constraints:cnf ~predicate
  in
  (Lbr.Gbr.reduce problem ~order:(order_n n), predicate)

let run_gbr_ordered cnf target n ~order =
  let pool = Var.Pool.create () in
  for _ = 0 to n - 1 do
    ignore (Var.Pool.fresh pool)
  done;
  let predicate = Lbr.Predicate.make (fun s -> Assignment.subset target s) in
  let problem = Lbr.Problem.make ~pool ~universe:(universe_n n) ~constraints:cnf ~predicate in
  Lbr.Gbr.reduce problem ~order

(* Theorem 4.5 requires the order [<] to be "picked well"; the closure-size
   order realises that premise (see Order_heuristics). *)
let prop_gbr_graph_constraints =
  QCheck.Test.make ~count:300 ~name:"GBR on graph constraints: valid, failing, locally minimal"
    (QCheck.make QCheck.Gen.(pair (graph_cnf_gen 7) (list_size (int_bound 3) (int_bound 6))))
    (fun (cnf, target_seed) ->
      (* the failure needs the closure of a random seed: achievable + monotone *)
      let target = closure_of cnf (Assignment.of_list target_seed) in
      let order = Lbr.Order_heuristics.closure_order cnf ~universe:(universe_n 7) in
      match run_gbr_ordered cnf target 7 ~order with
      | Error _ -> false
      | Ok (result, stats) ->
          Assignment.subset target result
          && Cnf.holds cnf result
          && stats.predicate_runs <= 2 * 7 * 7
          (* local minimality (Thm 4.5): no single element can be dropped *)
          && Assignment.for_all
               (fun v ->
                 let smaller = Assignment.remove v result in
                 not (Cnf.holds cnf smaller && Assignment.subset target smaller))
               result)

(* With an arbitrary order the result can be suboptimal (§4.4) but must
   still be a valid failing sub-input. *)
let prop_gbr_graph_any_order =
  QCheck.Test.make ~count:300 ~name:"GBR on graph constraints under creation order: valid, failing"
    (QCheck.make QCheck.Gen.(pair (graph_cnf_gen 7) (list_size (int_bound 3) (int_bound 6))))
    (fun (cnf, target_seed) ->
      let target = closure_of cnf (Assignment.of_list target_seed) in
      match run_gbr cnf target 7 with
      | Error _, _ -> false
      | Ok (result, _), _ -> Assignment.subset target result && Cnf.holds cnf result)

let prop_gbr_general_constraints =
  QCheck.Test.make ~count:300 ~name:"GBR on general constraints: valid and failing"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 7) (list_size (int_bound 3) (int_bound 6))))
    (fun (cnf, target_seed) ->
      (* make the target achievable: MSA closure of the seed *)
      let universe = universe_n 7 in
      match
        Msa.compute cnf ~order:(order_n 7) ~universe
          ~required:(Assignment.of_list target_seed) ()
      with
      | None -> true
      | Some target -> (
          match run_gbr cnf target 7 with
          | Error _, _ -> false
          | Ok (result, _), _ -> Assignment.subset target result && Cnf.holds cnf result))

let test_gbr_suboptimal_example () =
  (* §4.4: (a ∧ b ⇒ c) ∧ (c ⇒ b), P true iff b present, order (c, b, a):
     GBR returns {b, c} although {b} is smaller. *)
  let a = 2 and b = 1 and c = 0 in
  let cnf = Cnf.make [ Clause.make_exn ~neg:[ a; b ] ~pos:[ c ]; Clause.edge c b ] in
  let pool = Var.Pool.create () in
  List.iter (fun _ -> ignore (Var.Pool.fresh pool)) [ "c"; "b"; "a" ];
  let predicate = Lbr.Predicate.make (fun s -> Assignment.mem b s) in
  let problem =
    Lbr.Problem.make ~pool ~universe:(Assignment.of_list [ a; b; c ]) ~constraints:cnf
      ~predicate
  in
  match Lbr.Gbr.reduce problem ~order:(Order.of_list [ c; b; a ]) with
  | Error _ -> Alcotest.fail "GBR failed"
  | Ok (result, _) ->
      Alcotest.(check (list int)) "returns {b, c} (suboptimal, as in the paper)" [ c; b ]
        (Assignment.to_list result)

let prop_gbr_invariants_hold =
  QCheck.Test.make ~count:200 ~name:"GBR with ~check_invariants never reports a violation"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 7) (list_size (int_bound 3) (int_bound 6))))
    (fun (cnf, target_seed) ->
      let universe = universe_n 7 in
      match
        Msa.compute cnf ~order:(order_n 7) ~universe
          ~required:(Assignment.of_list target_seed) ()
      with
      | None -> true
      | Some target ->
          let pool = Var.Pool.create () in
          for _ = 0 to 6 do
            ignore (Var.Pool.fresh pool)
          done;
          let predicate = Lbr.Predicate.make (fun s -> Assignment.subset target s) in
          let problem = Lbr.Problem.make ~pool ~universe ~constraints:cnf ~predicate in
          (match Lbr.Gbr.reduce ~check_invariants:true problem ~order:(order_n 7) with
          | Ok _ -> true
          | Error (`Invariant_violation _) -> false
          | Error (`Unsat | `Predicate_inconsistent) -> false))

(* ------------------------------------------------------------------ *)
(* Incremental engine vs per-iteration rebuild: the two code paths must be
   observationally identical — same result, same predicate work, same
   learned sets, same progression shapes.                               *)

let run_gbr_mode cnf target n ~incremental =
  let pool = Var.Pool.create () in
  for _ = 0 to n - 1 do
    ignore (Var.Pool.fresh pool)
  done;
  let predicate = Lbr.Predicate.make (fun s -> Assignment.subset target s) in
  let problem =
    Lbr.Problem.make ~pool ~universe:(universe_n n) ~constraints:cnf ~predicate
  in
  Lbr.Gbr.reduce problem ~order:(order_n n) ~incremental

let stats_equal (a : Lbr.Gbr.stats) (b : Lbr.Gbr.stats) =
  a.iterations = b.iterations
  && a.predicate_runs = b.predicate_runs
  && a.predicate_queries = b.predicate_queries
  && List.equal Assignment.equal a.learned b.learned
  && a.progression_lengths = b.progression_lengths

let prop_gbr_incremental_equals_rebuild =
  QCheck.Test.make ~count:300
    ~name:"GBR incremental = rebuild (result, work, learned, progressions)"
    (QCheck.make QCheck.Gen.(pair (implication_cnf_gen 7) (list_size (int_bound 3) (int_bound 6))))
    (fun (cnf, target_seed) ->
      let universe = universe_n 7 in
      match
        Msa.compute cnf ~order:(order_n 7) ~universe
          ~required:(Assignment.of_list target_seed) ()
      with
      | None -> true
      | Some target -> (
          match
            ( run_gbr_mode cnf target 7 ~incremental:true,
              run_gbr_mode cnf target 7 ~incremental:false )
          with
          | Ok (m1, s1), Ok (m2, s2) -> Assignment.equal m1 m2 && stats_equal s1 s2
          | Error e1, Error e2 -> e1 = e2
          | Ok _, Error _ | Error _, Ok _ -> false))

(* The same equivalence on real constraint models: every instance of a
   seeded workload corpus, with the actual decompiler-simulator predicate —
   the configuration the benchmarks measure. *)
let test_gbr_incremental_on_workload () =
  let benchmarks = Lbr_harness.Corpus.build ~seed:11 ~programs:2 ~mean_classes:25 in
  let instances = Lbr_harness.Corpus.instances benchmarks in
  Alcotest.(check bool) "workload produced instances" true (instances <> []);
  List.iter
    (fun (instance : Lbr_harness.Corpus.instance) ->
      let pool = instance.benchmark.pool in
      let run ~incremental =
        let vpool = Var.Pool.create () in
        let jv = Lbr_jvm.Jvars.derive vpool pool in
        let cnf = Lbr_jvm.Constraints.generate jv pool in
        let sub_pool_of = Lbr_jvm.Reducer.prepare jv pool in
        let errors_of = Lbr_decompiler.Tool.prepare instance.tool pool in
        let predicate =
          Lbr.Predicate.make ~name:"gbr" (fun phi ->
              let errors = errors_of (sub_pool_of phi) in
              List.for_all (fun b -> List.mem b errors) instance.baseline_errors)
        in
        let problem =
          Lbr.Problem.make ~pool:vpool ~universe:(Lbr_jvm.Jvars.all jv)
            ~constraints:cnf ~predicate
        in
        match Lbr.Gbr.reduce problem ~order:(Order.by_creation vpool) ~incremental with
        | Ok (result, stats) -> (result, stats)
        | Error _ -> Alcotest.failf "%s: GBR failed" instance.instance_id
      in
      let r1, s1 = run ~incremental:true in
      let r2, s2 = run ~incremental:false in
      let id = instance.instance_id in
      Alcotest.(check bool) (id ^ ": same result") true (Assignment.equal r1 r2);
      Alcotest.(check int) (id ^ ": same predicate runs") s2.predicate_runs s1.predicate_runs;
      Alcotest.(check int)
        (id ^ ": same predicate queries") s2.predicate_queries s1.predicate_queries;
      Alcotest.(check bool)
        (id ^ ": same learned sets") true
        (List.equal Assignment.equal s1.learned s2.learned);
      Alcotest.(check (list int))
        (id ^ ": same progression lengths") s2.progression_lengths s1.progression_lengths)
    instances

let test_gbr_iteration_bound () =
  (* a chain of required singletons: every variable must be learned *)
  let n = 8 in
  let cnf = Cnf.make [] in
  let target = universe_n n in
  match run_gbr cnf target n with
  | Ok (result, stats), _ ->
      Alcotest.(check bool) "result covers target" true (Assignment.subset target result);
      Alcotest.(check bool)
        (Printf.sprintf "iterations %d <= n+1" stats.iterations)
        true
        (stats.iterations <= n + 1)
  | Error _, _ -> Alcotest.fail "GBR failed"

(* ------------------------------------------------------------------ *)
(* Speculation table: lifecycle, width budget, gating, poisoning — all
   with a hand-driven spawn so state transitions are deterministic.     *)

let phi_of l = Assignment.of_list l

let test_speculate_lifecycle () =
  let pending = Queue.create () in
  let computed = ref 0 in
  let sp =
    Lbr.Speculate.create
      ~spawn:(fun job -> Queue.add job pending)
      (fun phi ->
        incr computed;
        Assignment.cardinal phi)
  in
  let a = phi_of [ 0; 1 ] and b = phi_of [ 2 ] and c = phi_of [ 3; 4; 5 ] in
  Lbr.Speculate.prefetch sp a;
  Lbr.Speculate.prefetch sp a (* same digest: deduplicated *);
  Lbr.Speculate.prefetch sp b;
  Lbr.Speculate.prefetch sp c;
  Alcotest.(check int) "three launches" 3 (Lbr.Speculate.stats sp).launched;
  Lbr.Speculate.cancel sp b;
  Queue.iter (fun job -> job ()) pending;
  Queue.clear pending;
  Alcotest.(check int) "cancelled cell never computed" 2 !computed;
  Alcotest.(check (option int)) "a demanded" (Some 2) (Lbr.Speculate.demand sp a);
  Alcotest.(check (option int)) "b was cancelled" None (Lbr.Speculate.demand sp b);
  Alcotest.(check (option int))
    "never prefetched" None
    (Lbr.Speculate.demand sp (phi_of [ 9 ]));
  Lbr.Speculate.drain sp;
  let s = Lbr.Speculate.stats sp in
  Alcotest.(check int) "committed" 1 s.committed;
  Alcotest.(check int) "cancelled" 1 s.cancelled;
  Alcotest.(check int) "c wasted (computed, never demanded)" 1 s.wasted;
  Alcotest.(check int) "no failures" 0 s.failed

let test_speculate_width_budget () =
  let pending = Queue.create () in
  let sp =
    Lbr.Speculate.create
      ~spawn:(fun job -> Queue.add job pending)
      ~max_inflight:2
      (fun phi -> Assignment.cardinal phi)
  in
  List.iter (fun i -> Lbr.Speculate.prefetch sp (phi_of [ i ])) [ 0; 1; 2; 3 ];
  Alcotest.(check int) "width-capped" 2 (Lbr.Speculate.stats sp).launched;
  (* Demand on an unstarted cell reclaims it — the caller's inline
     computation becomes the only one, and the worker that later picks
     the job up walks away. *)
  Alcotest.(check (option int))
    "unstarted cell reclaimed" None
    (Lbr.Speculate.demand sp (phi_of [ 0 ]));
  Queue.iter (fun job -> job ()) pending;
  Lbr.Speculate.drain sp;
  Alcotest.(check int) "reclaim counted as a cancel" 1 (Lbr.Speculate.stats sp).cancelled

let test_speculate_gate_and_poison () =
  let sp =
    Lbr.Speculate.create
      ~spawn:(fun job -> job ())
      ~should_launch:(fun phi -> not (Assignment.mem 7 phi))
      (fun phi -> if Assignment.mem 3 phi then failwith "boom" else Assignment.cardinal phi)
  in
  Lbr.Speculate.prefetch sp (phi_of [ 7 ]);
  Alcotest.(check int) "gated launch dropped" 0 (Lbr.Speculate.stats sp).launched;
  Lbr.Speculate.prefetch sp (phi_of [ 3 ]);
  Alcotest.(check (option int))
    "poisoned worker reads as a miss" None
    (Lbr.Speculate.demand sp (phi_of [ 3 ]));
  Lbr.Speculate.drain sp;
  Alcotest.(check int) "failure counted" 1 (Lbr.Speculate.stats sp).failed

(* ------------------------------------------------------------------ *)
(* Speculative GBR must be byte-identical to sequential GBR: same
   result or error, same predicate work, same learned sets, same
   progression shapes and the same demands in the same order — with
   verdicts actually computed on pool workers.                         *)

(* One GBR run over [check], sequential or with [check] prefetched on a
   pool of [jobs] workers under the advisory [hint]; also returns the
   assignments the demand path ran, in order. *)
let run_gbr_demands cnf check n ~speculative =
  let vpool = Var.Pool.create () in
  for _ = 0 to n - 1 do
    ignore (Var.Pool.fresh vpool)
  done;
  let demands = ref [] in
  let run ?speculate verdict =
    let predicate =
      Lbr.Predicate.make (fun phi ->
          demands := phi :: !demands;
          verdict phi)
    in
    let problem =
      Lbr.Problem.make ~pool:vpool ~universe:(universe_n n) ~constraints:cnf ~predicate
    in
    let result = Lbr.Gbr.reduce ?speculate problem ~order:(order_n n) in
    (result, List.rev !demands)
  in
  match speculative with
  | None -> run check
  | Some (jobs, hint) ->
      Lbr_runtime.Pool.with_pool ~jobs @@ fun pool ->
      let sp =
        Lbr.Speculate.create
          ~spawn:(fun job ->
            ignore (Lbr_runtime.Pool.submit pool job : unit Lbr_runtime.Pool.future))
          ?verdict_hint:hint ~max_inflight:(2 * jobs) check
      in
      Fun.protect ~finally:(fun () -> Lbr.Speculate.drain sp) @@ fun () ->
      run ~speculate:sp (fun phi ->
          match Lbr.Speculate.demand sp phi with Some ok -> ok | None -> check phi)

(* A deterministic pseudo-random bit of [phi] under [salt]. *)
let coin salt phi k = Hashtbl.hash (salt, Assignment.to_list phi) mod k = 0

let prop_gbr_speculative_equals_sequential =
  let n = 7 in
  let print (cnf, target, salt, bound, hint, jobs) =
    let ints l = String.concat " " (List.map string_of_int l) in
    Printf.sprintf "%starget: %s\nsalt: %d\nbound: %s\nhint: %s\njobs: %d"
      (Dimacs.to_string cnf) (ints target) salt
      (Option.fold ~none:"none (monotone)" ~some:string_of_int bound)
      hint jobs
  in
  QCheck.Test.make ~count:150
    ~name:"GBR speculative = sequential (result, work, learned, progressions)"
    (QCheck.make ~print
       QCheck.Gen.(
         let* cnf = oneof [ implication_cnf_gen n; mixed_cnf_gen n ] in
         let* target = list_size (int_bound 3) (int_bound (n - 1)) in
         let* salt = int in
         let* bound = opt (int_bound n) in
         let* hint = oneofl [ "none"; "right"; "wrong"; "random" ] in
         let* jobs = oneofl [ 2; 4 ] in
         return (cnf, target, salt, bound, hint, jobs)))
    (fun (cnf, target_seed, salt, bound, hint, jobs) ->
      let target =
        match
          Msa.compute cnf ~order:(order_n n) ~universe:(universe_n n)
            ~required:(Assignment.of_list target_seed) ()
        with
        | Some target -> target
        | None -> Assignment.of_list target_seed
      in
      (* With a [bound], the predicate is not monotone: it also rejects
         every superset of [target] larger than [bound] and a third of the
         rest, so GBR meets [`Predicate_inconsistent] too. *)
      let check phi =
        Assignment.subset target phi
        &&
        match bound with
        | None -> true
        | Some b -> Assignment.cardinal phi <= b && not (coin salt phi 3)
      in
      let hint =
        match hint with
        | "right" -> Some (fun phi -> Some (check phi))
        | "wrong" -> Some (fun phi -> Some (not (check phi)))
        | "random" ->
            Some (fun phi -> if coin (salt + 1) phi 3 then None else Some (coin (salt + 2) phi 2))
        | _ -> None
      in
      let (r1, d1), (r2, d2) =
        ( run_gbr_demands cnf check n ~speculative:(Some (jobs, hint)),
          run_gbr_demands cnf check n ~speculative:None )
      in
      List.equal Assignment.equal d1 d2
      &&
      match (r1, r2) with
      | Ok (m1, s1), Ok (m2, s2) -> Assignment.equal m1 m2 && stats_equal s1 s2
      | Error e1, Error e2 -> e1 = e2
      | Ok _, Error _ | Error _, Ok _ -> false)

(* The same equivalence on the pinned seeded workload, with the real
   decompiler-simulator predicate — once with healthy workers, once with
   fault-injected workers (a poisoned cell must degrade to the inline
   verdict, never to a different answer). *)
let test_gbr_speculative_on_workload () =
  let benchmarks = Lbr_harness.Corpus.build ~seed:11 ~programs:2 ~mean_classes:25 in
  let instances = Lbr_harness.Corpus.instances benchmarks in
  Alcotest.(check bool) "workload produced instances" true (instances <> []);
  Lbr_runtime.Pool.with_pool ~jobs:2 @@ fun pool ->
  List.iter
    (fun (instance : Lbr_harness.Corpus.instance) ->
      let jpool = instance.benchmark.pool in
      let run ~mode =
        let vpool = Var.Pool.create () in
        let jv = Lbr_jvm.Jvars.derive vpool jpool in
        let cnf = Lbr_jvm.Constraints.generate jv jpool in
        (* Each tool is prepared once per run; all speculative workers
           share the workers' prepared tool. *)
        let check errors_of sub_pool_of phi =
          let errors = errors_of (sub_pool_of phi) in
          List.for_all (fun b -> List.mem b errors) instance.baseline_errors
        in
        let prepare tool = Lbr_decompiler.Tool.prepare tool jpool in
        let speculation =
          match mode with
          | `Sequential -> None
          | `Speculative | `Faulty_workers ->
              let worker_tool =
                match mode with
                | `Faulty_workers ->
                    Lbr_decompiler.Tool.with_faults
                      (Lbr_decompiler.Tool.Faults.make ~flaky_rate:0.4 ~seed:42 ())
                      instance.tool
                | _ -> instance.tool
              in
              let worker_errors = prepare worker_tool in
              (* Workers need their own prepared applier: [Reducer.prepare]
                 returns domain-local mutable state. *)
              let applier =
                Domain.DLS.new_key (fun () -> Lbr_jvm.Reducer.prepare jv jpool)
              in
              Some
                (Lbr.Speculate.create
                   ~spawn:(fun job ->
                     ignore
                       (Lbr_runtime.Pool.submit pool job : unit Lbr_runtime.Pool.future))
                   (fun phi -> check worker_errors (Domain.DLS.get applier) phi))
        in
        let inline_applier = Lbr_jvm.Reducer.prepare jv jpool in
        let inline_errors = prepare instance.tool in
        let predicate =
          Lbr.Predicate.make ~name:"gbr" (fun phi ->
              match Option.bind speculation (fun sp -> Lbr.Speculate.demand sp phi) with
              | Some ok -> ok
              | None -> check inline_errors inline_applier phi)
        in
        let problem =
          Lbr.Problem.make ~pool:vpool ~universe:(Lbr_jvm.Jvars.all jv) ~constraints:cnf
            ~predicate
        in
        Fun.protect ~finally:(fun () -> Option.iter Lbr.Speculate.drain speculation)
        @@ fun () ->
        match
          Lbr.Gbr.reduce ?speculate:speculation problem ~order:(Order.by_creation vpool)
        with
        | Ok (result, stats) -> (result, stats)
        | Error _ -> Alcotest.failf "%s: GBR failed" instance.instance_id
      in
      let id = instance.instance_id in
      let r_seq, s_seq = run ~mode:`Sequential in
      List.iter
        (fun (tag, mode) ->
          let r, s = run ~mode in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s same result" id tag)
            true (Assignment.equal r r_seq);
          Alcotest.(check int)
            (Printf.sprintf "%s: %s same predicate runs" id tag)
            s_seq.predicate_runs s.predicate_runs;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s same learned sets" id tag)
            true
            (List.equal Assignment.equal s.learned s_seq.learned);
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s same progression lengths" id tag)
            s_seq.progression_lengths s.progression_lengths)
        [ ("speculative", `Speculative); ("faulty workers", `Faulty_workers) ])
    instances

(* ------------------------------------------------------------------ *)
(* Lossy encodings                                                     *)

let prop_lossy_sound =
  QCheck.Test.make ~count:300 ~name:"lossy encodings strengthen the formula"
    (QCheck.make (implication_cnf_gen 6))
    (fun cnf ->
      List.for_all
        (fun pick ->
          let encoded = Lbr.Lossy.encode cnf ~pick in
          (* check all assignments over 6 vars *)
          let ok = ref true in
          for mask = 0 to 63 do
            let m =
              List.init 6 Fun.id
              |> List.filter (fun i -> mask land (1 lsl i) <> 0)
              |> Assignment.of_list
            in
            if not (Lbr.Lossy.is_sound_strengthening ~original:cnf ~encoded m) then ok := false
          done;
          !ok)
        [ Lbr.Lossy.First_first; Lbr.Lossy.Last_last ])

let test_lossy_all_graph () =
  let cnf =
    Cnf.make
      [
        Clause.make_exn ~neg:[ 0; 1 ] ~pos:[ 2; 3 ];
        Clause.edge 0 1;
        Clause.make_exn ~neg:[] ~pos:[ 4; 5 ];
      ]
  in
  List.iter
    (fun pick ->
      let encoded = Lbr.Lossy.encode cnf ~pick in
      Alcotest.(check bool) "all graph" true
        (List.for_all Clause.is_graph (Cnf.clauses encoded)))
    [ Lbr.Lossy.First_first; Lbr.Lossy.Last_last ];
  (* picks are the corners *)
  let enc1 = Lbr.Lossy.encode cnf ~pick:Lbr.Lossy.First_first in
  let edges, required = Lbr.Lossy.to_graph enc1 in
  Alcotest.(check bool) "first-first picks (0, 2)" true (List.mem (0, 2) edges);
  Alcotest.(check (list int)) "required picks 4" [ 4 ] required;
  let enc2 = Lbr.Lossy.encode cnf ~pick:Lbr.Lossy.Last_last in
  let edges2, required2 = Lbr.Lossy.to_graph enc2 in
  Alcotest.(check bool) "last-last picks (1, 3)" true (List.mem (1, 3) edges2);
  Alcotest.(check (list int)) "required picks 5" [ 5 ] required2

let test_lossy_rejects_negative () =
  let cnf = Cnf.make [ Clause.make_exn ~neg:[ 0 ] ~pos:[] ] in
  Alcotest.check_raises "purely negative clause rejected"
    (Invalid_argument "Lossy.encode: purely negative clause has no graph approximation")
    (fun () -> ignore (Lbr.Lossy.encode cnf ~pick:Lbr.Lossy.First_first))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lbr_core"
    [
      ( "predicate",
        [
          Alcotest.test_case "memoization" `Quick test_predicate_memoization;
          Alcotest.test_case "a raising black box still counts" `Quick test_predicate_raising;
        ] );
      ( "progression",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_progression_invariants;
            prop_progression_stored_form;
            prop_progression_is_definition;
            prop_progression_prefix_reads;
          ]
        @ [
            Alcotest.test_case "a borrowed progression goes stale on rollback" `Quick
              test_progression_borrow_goes_stale;
          ] );
      qsuite "gbr-prop"
        [
          prop_gbr_graph_constraints;
          prop_gbr_graph_any_order;
          prop_gbr_general_constraints;
          prop_gbr_invariants_hold;
          prop_gbr_incremental_equals_rebuild;
          prop_gbr_speculative_equals_sequential;
        ];
      ( "gbr",
        [
          Alcotest.test_case "suboptimality example (§4.4)" `Quick test_gbr_suboptimal_example;
          Alcotest.test_case "iteration bound" `Quick test_gbr_iteration_bound;
          Alcotest.test_case "incremental = rebuild on seeded workload" `Quick
            test_gbr_incremental_on_workload;
          Alcotest.test_case "speculative = sequential on seeded workload" `Quick
            test_gbr_speculative_on_workload;
        ] );
      ( "speculate",
        [
          Alcotest.test_case "lifecycle" `Quick test_speculate_lifecycle;
          Alcotest.test_case "width budget and reclaim" `Quick test_speculate_width_budget;
          Alcotest.test_case "gating and poisoning" `Quick test_speculate_gate_and_poison;
        ] );
      qsuite "lossy-prop" [ prop_lossy_sound ];
      ( "lossy",
        [
          Alcotest.test_case "graph output and corner picks" `Quick test_lossy_all_graph;
          Alcotest.test_case "negative clause rejected" `Quick test_lossy_rejects_negative;
        ] );
    ]
