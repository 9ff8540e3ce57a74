(* Tests for the pluggable frontend subsystem: the DIMACS and FJ
   frontends (parse/print round-trips, reduction validity), the registry,
   the refactored JVM path's equivalence with the pre-refactor pipeline,
   and the wire protocol's frontend tag. *)

open Lbr_logic
module Frontend = Lbr_frontend.Frontend
module Registry = Lbr_frontend.Registry
module Dimacs = Lbr_frontend.Dimacs
module Fj = Lbr_frontend.Fj
module Run = Lbr_frontend.Run

let qsuite name props = (name, List.map QCheck_alcotest.to_alcotest props)

let ok_exn what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

(* The pigeonhole instance shipped in examples/data/php.cnf: a 9-clause
   minimally-unsatisfiable core over vars 1..6 plus a strippable
   satisfiable tail over 7..8, with both directive kinds. *)
let php_text =
  "c three pigeons, two holes\n\
   c lbr keep 1\n\
   c lbr implies 3 2\n\
   p cnf 8 11\n\
   1 2 0\n\
   3 4 0\n\
   5 6 0\n\
   -1 -3 0\n\
   -1 -5 0\n\
   -3 -5 0\n\
   -2 -4 0\n\
   -2 -6 0\n\
   -4 -6 0\n\
   7 8 0\n\
   -7 8 0\n"

let fj_text =
  "class A implements I {\n\
  \  String m() { return new String(); }\n\
   }\n\
   class B implements I {\n\
  \  String m() { return new String(); }\n\
   }\n\
   interface I {\n\
  \  String m();\n\
   }\n\
   // main\n\
   new A().m()\n"

let cnf_of_dimacs (t : Dimacs.t) =
  Cnf.make
    (Array.to_list t.clauses
    |> List.filter_map (fun lits ->
           let neg, pos =
             Array.fold_left
               (fun (neg, pos) l ->
                 if l < 0 then ((-l - 1) :: neg, pos) else (neg, (l - 1) :: pos))
               ([], []) lits
           in
           Clause.make ~neg ~pos))

(* ------------------------------------------------------------------ *)
(* DIMACS: parse/print                                                 *)

let test_dimacs_parse () =
  let t = ok_exn "parse" (Dimacs.parse php_text) in
  Alcotest.(check int) "vars" 8 t.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 11 (Array.length t.Dimacs.clauses);
  Alcotest.(check (list int)) "keeps" [ 1 ] t.Dimacs.keeps;
  Alcotest.(check (list (pair int int))) "implications" [ (3, 2) ] t.Dimacs.implications;
  Alcotest.(check int) "items is the clause count" 11 (Dimacs.items t)

let test_dimacs_print_canonical () =
  (* print is a canonical form: parse∘print is the identity on it. *)
  let t = ok_exn "parse" (Dimacs.parse php_text) in
  let printed = Dimacs.print t in
  let t2 = ok_exn "reparse" (Dimacs.parse printed) in
  Alcotest.(check string) "print is a fixed point" printed (Dimacs.print t2)

let test_dimacs_multiline_clause () =
  let t = ok_exn "parse" (Dimacs.parse "p cnf 3 2\n1 2\n3 0\n-1 -2 -3 0\n") in
  Alcotest.(check int) "clauses spanning lines" 2 (Array.length t.Dimacs.clauses);
  Alcotest.(check (list int))
    "first clause" [ 1; 2; 3 ]
    (Array.to_list t.Dimacs.clauses.(0))

let test_dimacs_malformed () =
  let rejects name text =
    match Dimacs.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed input accepted" name
  in
  rejects "empty" "";
  rejects "comments only" "c nothing\n\nc here\n";
  rejects "no header" "1 2 0\n";
  rejects "bad header arity" "p cnf 3\n1 0\n";
  rejects "non-numeric header" "p cnf x 1\n1 0\n";
  rejects "negative counts" "p cnf -1 1\n1 0\n";
  rejects "duplicate header" "p cnf 1 1\np cnf 1 1\n1 0\n";
  rejects "header after clauses" "1 0\np cnf 1 1\n";
  rejects "bad literal token" "p cnf 2 1\n1 x 0\n";
  rejects "literal out of range" "p cnf 2 1\n3 0\n";
  rejects "unterminated clause" "p cnf 2 1\n1 2\n";
  (* a bare 0 is an empty clause — legal DIMACS, trivially unsatisfiable *)
  (match Dimacs.parse "p cnf 2 1\n0\n" with
  | Ok t -> Alcotest.(check int) "empty clause accepted" 1 (Array.length t.Dimacs.clauses)
  | Error m -> Alcotest.failf "empty clause rejected: %s" m);
  rejects "clause count mismatch (few)" "p cnf 2 2\n1 0\n";
  rejects "clause count mismatch (many)" "p cnf 2 1\n1 0\n2 0\n";
  rejects "unknown directive" "c lbr frobnicate 1\np cnf 1 1\n1 0\n";
  rejects "keep out of range" "c lbr keep 9\np cnf 1 1\n1 0\n";
  rejects "implies out of range" "c lbr implies 1 9\np cnf 1 1\n1 0\n";
  (* Only an optional '-' and decimal digits are numbers: OCaml's
     int_of_string spellings are not, wherever a number is expected. *)
  List.iter
    (fun tok -> rejects ("literal " ^ tok) (Printf.sprintf "p cnf 40 1\n%s 0\n" tok))
    [ "0x1F"; "0o7"; "0b1"; "1_0"; "+3"; "-"; "99999999999999999999999" ];
  List.iter
    (fun one ->
      rejects ("literal " ^ one) (Printf.sprintf "p cnf 1 1\n%s 0\n" one);
      rejects ("header variables " ^ one) (Printf.sprintf "p cnf %s 1\n1 0\n" one);
      rejects ("header clauses " ^ one) (Printf.sprintf "p cnf 1 %s\n1 0\n" one);
      rejects ("keep index " ^ one) (Printf.sprintf "c lbr keep %s\np cnf 1 1\n1 0\n" one);
      rejects ("implies index " ^ one)
        (Printf.sprintf "c lbr implies 1 %s\np cnf 1 1\n1 0\n" one))
    [ "0x1"; "0o1"; "0b1"; "0_1"; "+1" ];
  (* "-0" is not a literal, so it cannot end the clause "1" here *)
  rejects "negative zero literal" "p cnf 2 2\n1 -0 2 0\n"

(* Random instances rendered with noise (comments, blank lines, clauses
   split across lines) must round-trip structurally. *)
let dimacs_gen =
  QCheck.Gen.(
    let* nv = oneof [ int_range 1 8; int_range 10 5000 ] in
    let lit = map (fun (v, s) -> if s then v else -v) (pair (int_range 1 nv) bool) in
    (* a zero-length clause is the empty clause *)
    let* clauses = list_size (int_range 1 12) (list_size (int_range 0 4) lit) in
    let nc = List.length clauses in
    let* keeps = list_size (int_bound 2) (int_range 1 nc) in
    let* implications = list_size (int_bound 2) (pair (int_range 1 nc) (int_range 1 nc)) in
    let* split = bool in
    let buf = Buffer.create 256 in
    Buffer.add_string buf "c noise\n\n";
    List.iter (fun i -> Buffer.add_string buf (Printf.sprintf "c lbr keep %d\n" i)) keeps;
    List.iter
      (fun (i, j) -> Buffer.add_string buf (Printf.sprintf "c lbr implies %d %d\n" i j))
      implications;
    Buffer.add_string buf (Printf.sprintf "p cnf %d %d\nc mid-stream comment\n" nv nc);
    List.iter
      (fun lits ->
        List.iter
          (fun l ->
            Buffer.add_string buf (string_of_int l);
            Buffer.add_char buf (if split then '\n' else ' '))
          lits;
        Buffer.add_string buf "0\n")
      clauses;
    return (nv, clauses, keeps, implications, Buffer.contents buf))

let prop_dimacs_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse <-> print round-trip under noise"
    (QCheck.make dimacs_gen) (fun (nv, clauses, keeps, implications, text) ->
      match Dimacs.parse text with
      | Error m -> QCheck.Test.fail_reportf "parse: %s" m
      | Ok t ->
          t.Dimacs.num_vars = nv
          && List.map Array.to_list (Array.to_list t.Dimacs.clauses) = clauses
          && t.Dimacs.keeps = keeps
          && t.Dimacs.implications = implications
          &&
          (* and the canonical form reparses to the same value *)
          match Dimacs.parse (Dimacs.print t) with
          | Error m -> QCheck.Test.fail_reportf "reparse: %s" m
          | Ok t2 -> Dimacs.print t = Dimacs.print t2)

(* [bytes] counts what [print] would write, for parsed inputs and for the
   sub-formulas [prepare] builds from them. *)
let prop_dimacs_bytes =
  QCheck.Test.make ~count:300 ~name:"bytes = String.length print, before and after prepare"
    (QCheck.make QCheck.Gen.(pair dimacs_gen (list_repeat 12 bool)))
    (fun ((_, _, _, _, text), mask) ->
      let t = ok_exn "parse" (Dimacs.parse text) in
      let ctx = ok_exn "derive" (Dimacs.derive (Var.Pool.create ()) t) in
      let phi =
        Assignment.to_list (Dimacs.universe ctx)
        |> List.filteri (fun i _ -> List.nth mask i)
        |> Assignment.of_list
      in
      let sized t = Dimacs.bytes t = String.length (Dimacs.print t) in
      sized t && sized (Dimacs.prepare ctx t phi))

(* The predicate's check, taken from an UNSAT input: true iff [sub] is
   unsatisfiable. *)
let dimacs_check =
  lazy
    (let t = ok_exn "parse" (Dimacs.parse php_text) in
     let ctx = ok_exn "derive" (Dimacs.derive (Var.Pool.create ()) t) in
     ok_exn "predicate" (Dimacs.predicate ctx t ~spec:""))

(* Small formulas over variables 1..4 (so repeated literals and x ∨ ¬x are
   common) with unit and empty clauses, under a header that may declare
   far more variables than occur. *)
let small_dimacs_gen =
  QCheck.Gen.(
    let lit = map (fun (v, s) -> if s then v else -v) (pair (int_range 1 4) bool) in
    let clause =
      frequency [ (1, return []); (3, map (fun l -> [ l ]) lit); (8, list_size (int_range 2 5) lit) ]
    in
    let* clauses = list_size (int_range 0 10) clause in
    let+ num_vars = oneof [ return 4; int_range 5 1_000_000 ] in
    { Dimacs.num_vars; clauses = Array.of_list (List.map Array.of_list clauses); keeps = []; implications = [] })

let brute_force_sat (t : Dimacs.t) =
  let holds mask l = (mask land (1 lsl (abs l - 1)) <> 0) = (l > 0) in
  List.exists
    (fun mask -> Array.for_all (Array.exists (holds mask)) t.clauses)
    (List.init 16 Fun.id)

let prop_dimacs_verdict =
  QCheck.Test.make ~count:500 ~name:"check = brute force = the normalised formula"
    (QCheck.make ~print:Dimacs.print small_dimacs_gen)
    (fun t ->
      let unsat = (Lazy.force dimacs_check) t in
      unsat = not (brute_force_sat t)
      && unsat = not (Lbr_sat.Solver.satisfiable (cnf_of_dimacs t)))

(* ------------------------------------------------------------------ *)
(* DIMACS: reduction                                                   *)

let test_dimacs_reduce () =
  let packed = ok_exn "find" (Registry.find "dimacs") in
  let outcome, printed =
    ok_exn "reduce" (Run.reduce_text packed ~text:php_text ~spec:"")
  in
  Alcotest.(check bool) "reduction succeeded" true outcome.Run.ok;
  Alcotest.(check bool) "strictly smaller" true (outcome.Run.items1 < outcome.Run.items0);
  let reduced = ok_exn "reparse output" (Dimacs.parse printed) in
  Alcotest.(check bool)
    "still unsatisfiable" false
    (Lbr_sat.Solver.satisfiable (cnf_of_dimacs reduced));
  Alcotest.(check bool) "keep directive honoured" true (List.mem 1 reduced.Dimacs.keeps);
  (* the 9-clause pigeonhole core is minimally unsatisfiable, so only the
     satisfiable tail can go *)
  Alcotest.(check int) "reduced to the core" 9 (Array.length reduced.Dimacs.clauses)

(* Words allocated so far.  [Gc.minor_words] counts the minor heap
   exactly ([Gc.counters] lags it on OCaml 5); words allocated straight
   into the major heap, as an array sized by a DIMACS header would be,
   are major words less promoted ones. *)
let allocated_words () =
  let q = Gc.quick_stat () in
  Gc.minor_words () +. q.major_words -. q.promoted_words

(* Per-variable state is sized by the variables that occur, not by the
   header: a check of this input allocates a few hundred words. *)
let test_dimacs_oversized_header () =
  let text = "p cnf 100000000 2\n1 0\n-1 0\n" in
  let packed = ok_exn "find" (Registry.find "dimacs") in
  let outcome, printed = ok_exn "reduce" (Run.reduce_text packed ~text ~spec:"") in
  Alcotest.(check bool) "reduction succeeded" true outcome.Run.ok;
  Alcotest.(check string) "both clauses are the core" text printed;
  let t = ok_exn "parse" (Dimacs.parse text) in
  let check = Lazy.force dimacs_check in
  let before = allocated_words () in
  let unsat = check t in
  let words = allocated_words () -. before in
  Alcotest.(check bool) "unsatisfiable" true unsat;
  if words > 500. then Alcotest.failf "one check allocated %.0f words" words

(* The solver numbers the variables that occur, whatever their DIMACS
   numbers: an input over variable 1,000,000,000 is prepared and checked
   in about 900 words, where state indexed by variable number would take
   gigabytes. *)
let test_dimacs_sparse_variables () =
  let text = "p cnf 1000000000 3\n1000000000 0\n-7 7 0\n-1000000000 0\n" in
  let packed = ok_exn "find" (Registry.find "dimacs") in
  let outcome, printed = ok_exn "reduce" (Run.reduce_text packed ~text ~spec:"") in
  Alcotest.(check bool) "reduction succeeded" true outcome.Run.ok;
  Alcotest.(check string)
    "the two units are the core" "p cnf 1000000000 2\n1000000000 0\n-1000000000 0\n" printed;
  let t = ok_exn "parse" (Dimacs.parse text) in
  let ctx = ok_exn "derive" (Dimacs.derive (Var.Pool.create ()) t) in
  let fallback = Lazy.force dimacs_check in
  let before = allocated_words () in
  let check = ok_exn "predicate" (Dimacs.predicate ctx t ~spec:"") in
  let unsat = check t && fallback t in
  let words = allocated_words () -. before in
  Alcotest.(check bool) "unsatisfiable" true unsat;
  if words > 2000. then Alcotest.failf "prepare and two checks allocated %.0f words" words

(* Byte-identity pin: GBR over twenty seeded UNSAT 3-CNFs of 150 clauses
   over 30 variables, with keep and implies directives; the digest covers
   each reduction's output, predicate runs and simulated time.  Clauses
   may repeat a variable, so repeated literals and tautologies occur.
   Recorded once and never edited: any change to a verdict of the DIMACS
   check, or to what GBR asks of it, moves it. *)
let dimacs_reductions_digest = "c4093d26a8fc5933255c8e1d1c1a6edc"

let test_dimacs_reductions_pinned () =
  let packed = ok_exn "find" (Registry.find "dimacs") in
  let formula j =
    let rec attempt a =
      let rng = Random.State.make [| 27; j; a |] in
      let lit () =
        let v = 1 + Random.State.int rng 30 in
        if Random.State.bool rng then v else -v
      in
      let clauses = Array.init 150 (fun _ -> Array.init 3 (fun _ -> lit ())) in
      let index () = 1 + Random.State.int rng 150 in
      let implications =
        List.filter_map
          (fun i -> if Random.State.int rng 5 = 0 then Some (i, index ()) else None)
          (List.init 150 succ)
      in
      let t = { Dimacs.num_vars = 30; clauses; keeps = [ index (); index () ]; implications } in
      if Option.is_some (Lbr_sat.Solver.solve (cnf_of_dimacs t)) then attempt (a + 1) else t
    in
    attempt 0
  in
  let buf = Buffer.create 65536 in
  for j = 0 to 19 do
    let o, printed =
      ok_exn "reduce" (Run.reduce_text packed ~text:(Dimacs.print (formula j)) ~spec:"")
    in
    Printf.bprintf buf "%s\n%d %h\n" printed o.Run.predicate_runs o.Run.sim_time
  done;
  Alcotest.(check string)
    "digest" dimacs_reductions_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_dimacs_rejects_spec_and_sat () =
  let packed = ok_exn "find" (Registry.find "dimacs") in
  (match Run.reduce_text packed ~text:php_text ~spec:"marker" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-empty spec accepted");
  match Run.reduce_text packed ~text:"p cnf 2 1\n1 2 0\n" ~spec:"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "satisfiable input accepted"

(* ------------------------------------------------------------------ *)
(* FJ: parse/print                                                     *)

let test_fj_roundtrip () =
  (* concrete syntax cannot distinguish (T) x.f from a cast of a field
     access chain in every position, so round-tripping is defined at the
     printed-string level: print∘parse is a fixed point. *)
  let p = ok_exn "parse" (Fj.parse fj_text) in
  let printed = Fj.print p in
  let p2 = ok_exn "reparse" (Fj.parse printed) in
  Alcotest.(check string) "print is a fixed point" printed (Fj.print p2)

let test_fj_figure1_roundtrip () =
  let model = Lbr_fji.Example.model () in
  let printed = Lbr_fji.Pretty.program_to_string model.Lbr_fji.Example.program in
  let p = ok_exn "parse figure 1" (Fj.parse printed) in
  Alcotest.(check string) "figure 1 round-trips" printed (Fj.print p)

let test_fj_malformed () =
  let rejects name text =
    match Fj.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed input accepted" name
  in
  rejects "unclosed class" "class A {";
  rejects "bad token" "class A ? {}";
  rejects "field after method" "class A { String m() { return x; } String f; }";
  rejects "missing return" "class A { String m() { x; } }";
  rejects "trailing garbage" "class A {}\n// main\nnew A() class";
  rejects "duplicate class" "class A {}\nclass A {}"

(* ------------------------------------------------------------------ *)
(* FJ: reduction                                                       *)

let test_fj_reduce () =
  let packed = ok_exn "find" (Registry.find "fj") in
  let outcome, printed =
    ok_exn "reduce" (Run.reduce_text packed ~text:fj_text ~spec:"class A")
  in
  Alcotest.(check bool) "reduction succeeded" true outcome.Run.ok;
  Alcotest.(check bool) "strictly smaller" true (outcome.Run.items1 < outcome.Run.items0);
  let reduced = ok_exn "reparse output" (Fj.parse printed) in
  (match Lbr_fji.Typecheck.check reduced with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reduced program does not typecheck: %a" Lbr_fji.Typecheck.pp_error e);
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "marker preserved" true (contains ~needle:"class A" printed)

let test_fj_unknown_marker () =
  let packed = ok_exn "find" (Registry.find "fj") in
  match Run.reduce_text packed ~text:fj_text ~spec:"no such text" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "marker absent from the input accepted"

(* Dependency edges never point at builtins and are self-loop free. *)
let test_fj_dependency_edges () =
  let p = ok_exn "parse" (Fj.parse fj_text) in
  let vpool = Var.Pool.create () in
  let ctx = ok_exn "derive" (Fj.derive vpool p) in
  let edges = Fj.dependency_edges ctx p in
  Alcotest.(check bool) "some edges" true (edges <> []);
  List.iter (fun (x, y) -> if x = y then Alcotest.fail "self-loop edge") edges

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry () =
  Alcotest.(check (list string)) "ids" [ "jvm"; "dimacs"; "fj" ] Registry.ids;
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Registry.find "nope" with
  | Error m ->
      Alcotest.(check bool) "error lists known frontends" true
        (List.for_all (fun id -> contains ~needle:id m) Registry.ids)
  | Ok _ -> Alcotest.fail "unknown frontend found");
  Alcotest.(check string) "by .cnf extension" "dimacs"
    (Frontend.id_of (ok_exn "for_path" (Registry.for_path "x/y.cnf")));
  Alcotest.(check string) "by .fj extension" "fj"
    (Frontend.id_of (ok_exn "for_path" (Registry.for_path "a.fj")));
  Alcotest.(check string) "by .lbrc extension" "jvm"
    (Frontend.id_of (ok_exn "for_path" (Registry.for_path "pool.lbrc")));
  match Registry.for_path "unknown.xyz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown extension resolved"

(* ------------------------------------------------------------------ *)
(* JVM frontend: equivalence with the pre-refactor pipeline            *)

let pinned_instance () =
  let pool =
    Lbr_workload.Generator.generate ~seed:7 (Lbr_workload.Generator.njr_profile ~classes:40)
  in
  let tool =
    match
      List.find_opt (fun t -> Lbr_decompiler.Tool.is_buggy_on t pool) Lbr_decompiler.Tool.all
    with
    | Some t -> t
    | None -> Alcotest.fail "no tool buggy on the pinned workload"
  in
  (pool, tool, Lbr_decompiler.Tool.errors tool pool)

let test_jvm_constraints_equivalent () =
  let pool, _, _ = pinned_instance () in
  (* pre-refactor construction, verbatim *)
  let vpool_a = Var.Pool.create () in
  let jv_a = Lbr_jvm.Jvars.derive vpool_a pool in
  let cnf_a = Lbr_jvm.Constraints.generate jv_a pool in
  (* the frontend path the harness now routes through *)
  let vpool_b = Var.Pool.create () in
  let jv_b = ok_exn "derive" (Lbr_frontend.Jvm.derive vpool_b pool) in
  let cnf_b = ok_exn "constraints" (Lbr_frontend.Jvm.constraints jv_b pool) in
  Alcotest.(check int) "same variable count" (Var.Pool.size vpool_a) (Var.Pool.size vpool_b);
  Alcotest.(check int) "same clause count" (Cnf.num_clauses cnf_a) (Cnf.num_clauses cnf_b);
  Alcotest.(check bool) "same universe" true
    (Assignment.equal (Lbr_jvm.Jvars.all jv_a) (Lbr_frontend.Jvm.universe jv_b));
  List.iter2
    (fun a b ->
      if not (Clause.equal a b) then
        let show (c : Clause.t) =
          let ids vs = String.concat " " (Array.to_list (Array.map string_of_int vs)) in
          Printf.sprintf "[%s] => [%s]" (ids c.neg) (ids c.pos)
        in
        Alcotest.failf "clause mismatch: %s vs %s" (show a) (show b))
    (Cnf.clauses cnf_a) (Cnf.clauses cnf_b)

(* Full-GBR byte identity: the refactored harness (which routes item
   inventory and constraints through Frontend_jvm) must produce exactly
   the bytes of the pre-refactor pipeline — Jvars/Constraints/Reducer
   used directly — on the pinned workload. *)
let test_jvm_gbr_byte_identical () =
  let pool, tool, baseline = pinned_instance () in
  let instance =
    {
      Lbr_harness.Corpus.instance_id = "pinned";
      benchmark = { bench_id = "pinned"; seed = 7; pool };
      tool;
      baseline_errors = baseline;
    }
  in
  let _, final_refactored = Lbr_harness.Experiment.run_with Gbr instance in
  (* pre-refactor pipeline, inlined *)
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool pool in
  let cnf = Lbr_jvm.Constraints.generate jv pool in
  let sub_pool_of = Lbr_jvm.Reducer.prepare jv pool in
  let includes_sorted = Lbr_frontend.Jvm.includes_sorted in
  let predicate =
    Lbr.Predicate.make (fun phi ->
        includes_sorted ~baseline (Lbr_decompiler.Tool.errors tool (sub_pool_of phi)))
  in
  let problem =
    Lbr.Problem.make ~pool:vpool ~universe:(Lbr_jvm.Jvars.all jv) ~constraints:cnf ~predicate
  in
  let final_direct =
    match Lbr.Gbr.reduce problem ~order:(Lbr_sat.Order.by_creation vpool) with
    | Ok (result, _) -> sub_pool_of result
    | Error _ -> Alcotest.fail "direct GBR failed"
  in
  Alcotest.(check string) "byte-identical reduced pools"
    (Lbr_jvm.Serialize.to_bytes final_direct)
    (Lbr_jvm.Serialize.to_bytes final_refactored)

(* The harness resolves the predicate from the tool's name, so a tool that
   is not one of [Tool.all] must be refused rather than silently replaced. *)
let test_jvm_rejects_variant_tool () =
  let pool, tool, baseline = pinned_instance () in
  let faulty =
    Lbr_decompiler.Tool.with_faults
      (Lbr_decompiler.Tool.Faults.make ~flaky_rate:0.5 ~seed:1 ())
      tool
  in
  let instance =
    {
      Lbr_harness.Corpus.instance_id = "faulty";
      benchmark = { bench_id = "faulty"; seed = 7; pool };
      tool = faulty;
      baseline_errors = baseline;
    }
  in
  match Lbr_harness.Experiment.run_with Gbr instance with
  | _ -> Alcotest.fail "a with_faults tool was accepted"
  | exception Invalid_argument _ -> ()

let test_jvm_predicate_bridge () =
  let pool, tool, _ = pinned_instance () in
  let vpool = Var.Pool.create () in
  let ctx = ok_exn "derive" (Lbr_frontend.Jvm.derive vpool pool) in
  let check =
    ok_exn "predicate" (Lbr_frontend.Jvm.predicate ctx pool ~spec:tool.Lbr_decompiler.Tool.name)
  in
  Alcotest.(check bool) "full pool reproduces" true (check pool);
  (match Lbr_frontend.Jvm.predicate ctx pool ~spec:"no-such-tool" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tool accepted");
  (* spec "" resolves to the first buggy tool, like the server *)
  let default_check = ok_exn "default spec" (Lbr_frontend.Jvm.predicate ctx pool ~spec:"") in
  Alcotest.(check bool) "default spec reproduces on full pool" true (default_check pool)

(* ------------------------------------------------------------------ *)
(* Outside input that names one member twice is refused before any
   reduction starts, and the message names the class and the member.    *)

let expect_duplicate fe ~text ~spec ~owner ~member =
  let packed = ok_exn "find" (Registry.find fe) in
  let contains m needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length m && (String.sub m i n = needle || go (i + 1)) in
    go 0
  in
  match Run.reduce_text packed ~text ~spec with
  | Ok _ -> Alcotest.failf "%s: input repeating %s in %s accepted" fe member owner
  | Error m ->
      if not (contains m owner && contains m member) then
        Alcotest.failf "%s: error %S does not name %s in %s" fe m member owner

let test_jvm_duplicate_members () =
  let pool, tool, _ = pinned_instance () in
  let first p =
    match List.find_opt p (Lbr_jvm.Classpool.classes pool) with
    | Some c -> c
    | None -> Alcotest.fail "no class of the wanted shape in the pinned pool"
  in
  let repeat (c : Lbr_jvm.Classfile.cls) edit member =
    let text = Lbr_jvm.Serialize.to_bytes (Lbr_jvm.Classpool.set pool (edit c)) in
    expect_duplicate "jvm" ~text ~spec:tool.Lbr_decompiler.Tool.name ~owner:c.name ~member
  in
  let c = first (fun c -> c.methods <> []) in
  let m = List.hd c.methods in
  repeat c (fun c -> { c with methods = c.methods @ [ m ] }) m.m_name;
  let c = first (fun c -> c.fields <> []) in
  let f = List.hd c.fields in
  repeat c (fun c -> { c with fields = c.fields @ [ f ] }) f.f_name;
  let c = first (fun c -> c.interfaces <> []) in
  let i = List.hd c.interfaces in
  repeat c (fun c -> { c with interfaces = c.interfaces @ [ i ] }) i

let test_fj_duplicate_members () =
  expect_duplicate "fj" ~spec:"" ~owner:"Dup" ~member:"twice"
    ~text:
      "class Dup {\n\
      \  String twice() { return new String(); }\n\
      \  String twice() { return new String(); }\n\
       }\n\
       // main\n\
       new Dup().twice()\n";
  expect_duplicate "fj" ~spec:"" ~owner:"Sig" ~member:"twice"
    ~text:
      "class A implements Sig {\n\
      \  String twice() { return new String(); }\n\
       }\n\
       interface Sig {\n\
      \  String twice();\n\
      \  String twice();\n\
       }\n\
       // main\n\
       new A().twice()\n"

(* ------------------------------------------------------------------ *)
(* Speculative reduction: --speculate must be byte-identical to the
   sequential run on every frontend, and must never launch a worker for
   a verdict the replay journal already holds.                          *)

let test_speculate_byte_identical () =
  let jpool, tool, _ = pinned_instance () in
  let cases =
    [
      ("dimacs", php_text, "");
      ("fj", fj_text, "class A");
      ("jvm", Lbr_jvm.Serialize.to_bytes jpool, tool.Lbr_decompiler.Tool.name);
    ]
  in
  let counting () =
    let n = ref 0 in
    ({ Run.default_hooks with on_improvement = Some (fun _ _ _ -> incr n) }, n)
  in
  List.iter
    (fun (fe, text, spec) ->
      let packed = ok_exn "find" (Registry.find fe) in
      let hooks, seq_improvements = counting () in
      let seq_o, seq_printed = ok_exn "sequential" (Run.reduce_text ~hooks packed ~text ~spec) in
      List.iter
        (fun jobs ->
          Lbr_runtime.Pool.with_pool ~jobs @@ fun pool ->
          let hooks, improvements = counting () in
          let o, printed =
            ok_exn "speculative" (Run.reduce_text ~hooks ~speculate:pool packed ~text ~spec)
          in
          let ctx f = Printf.sprintf "%s jobs=%d: %s" fe jobs f in
          Alcotest.(check string) (ctx "byte-identical output") seq_printed printed;
          Alcotest.(check int)
            (ctx "same predicate runs")
            seq_o.Run.predicate_runs o.Run.predicate_runs;
          Alcotest.(check (float 1e-9)) (ctx "same sim time") seq_o.Run.sim_time o.Run.sim_time;
          Alcotest.(check int) (ctx "same improvements") !seq_improvements !improvements)
        [ 2; 4 ])
    cases

let spec_launched () =
  match
    List.find_opt (fun (r : Perf.row) -> r.name = "spec.launched") (Perf.aggregate ())
  with
  | Some r -> r.calls
  | None -> 0

let test_speculate_replay_launches_nothing () =
  let packed = ok_exn "find" (Registry.find "dimacs") in
  let journal : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let record_hooks =
    {
      Run.default_hooks with
      execute =
        Some
          (fun ~key thunk ->
            let ok = thunk () in
            Hashtbl.replace journal key ok;
            ok);
    }
  in
  let _, seq_printed =
    ok_exn "recording run" (Run.reduce_text ~hooks:record_hooks packed ~text:php_text ~spec:"")
  in
  let fresh = ref 0 in
  let replay_hooks =
    {
      Run.default_hooks with
      replay = Some (fun ~key -> Hashtbl.find_opt journal key);
      execute =
        Some
          (fun ~key thunk ->
            if Hashtbl.mem journal key then Alcotest.failf "execute saw replayed key %s" key;
            incr fresh;
            thunk ());
    }
  in
  let before = spec_launched () in
  ( Lbr_runtime.Pool.with_pool ~jobs:2 @@ fun pool ->
    let o, printed =
      ok_exn "replayed run"
        (Run.reduce_text ~hooks:replay_hooks ~speculate:pool packed ~text:php_text ~spec:"")
    in
    Alcotest.(check string) "byte-identical output" seq_printed printed;
    Alcotest.(check int) "no fresh executions on replay" 0 !fresh;
    Alcotest.(check bool) "runs were replayed" true (o.Run.replayed_runs > 0) );
  Alcotest.(check int) "no speculative launches on a replayed workload" before
    (spec_launched ())

(* ------------------------------------------------------------------ *)
(* Wire: the frontend tag                                              *)

let wire_spec frontend =
  {
    Lbr_server.Wire.tool = "";
    strategy = Lbr_harness.Experiment.Gbr;
    priority = Lbr_server.Wire.Normal;
    crash_policy = Lbr_runtime.Oracle.Crash_raises;
    retries = 2;
    pool_bytes = "payload";
    frontend;
    trace_ctx = None;
  }

let test_wire_frontend_tag () =
  let module Wire = Lbr_server.Wire in
  let roundtrip msg =
    let frame = Wire.encode msg in
    Wire.decode_payload (String.sub frame 4 (String.length frame - 4))
  in
  List.iter
    (fun frontend ->
      let spec = wire_spec frontend in
      List.iter
        (fun msg ->
          Alcotest.(check bool) (frontend ^ " frame round-trips") true (roundtrip msg = Ok msg))
        [ Wire.Submit spec; Wire.Submit_seeded { spec; seeds = [ ("k", true) ] } ];
      (* journal spec records carry the tag too *)
      Alcotest.(check bool) (frontend ^ " journal spec round-trips") true
        (Wire.spec_of_string (Wire.spec_to_string spec) = Ok spec))
    [ "jvm"; "dimacs"; "fj" ]

let test_cache_key_frontend () =
  let a = Lbr_cluster.Cache.job_key (wire_spec "jvm") in
  let b = Lbr_cluster.Cache.job_key (wire_spec "dimacs") in
  Alcotest.(check bool) "frontend is verdict-relevant" true (a <> b)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "frontend"
    [
      ( "dimacs",
        [
          Alcotest.test_case "parse php.cnf" `Quick test_dimacs_parse;
          Alcotest.test_case "print is canonical" `Quick test_dimacs_print_canonical;
          Alcotest.test_case "clauses span lines" `Quick test_dimacs_multiline_clause;
          Alcotest.test_case "malformed inputs are Errors" `Quick test_dimacs_malformed;
          Alcotest.test_case "reduce pigeonhole to its core" `Quick test_dimacs_reduce;
          Alcotest.test_case "spec and SAT inputs rejected" `Quick
            test_dimacs_rejects_spec_and_sat;
          Alcotest.test_case "oversized header" `Quick test_dimacs_oversized_header;
          Alcotest.test_case "reductions pinned" `Quick test_dimacs_reductions_pinned;
          Alcotest.test_case "sparse variable numbers" `Quick test_dimacs_sparse_variables;
        ] );
      qsuite "dimacs-prop" [ prop_dimacs_roundtrip; prop_dimacs_bytes; prop_dimacs_verdict ];
      ( "fj",
        [
          Alcotest.test_case "print is a parse fixed point" `Quick test_fj_roundtrip;
          Alcotest.test_case "figure 1 round-trips" `Quick test_fj_figure1_roundtrip;
          Alcotest.test_case "malformed inputs are Errors" `Quick test_fj_malformed;
          Alcotest.test_case "reduce keeps marker, typechecks" `Quick test_fj_reduce;
          Alcotest.test_case "absent marker rejected" `Quick test_fj_unknown_marker;
          Alcotest.test_case "dependency edges well-formed" `Quick test_fj_dependency_edges;
        ] );
      ( "registry",
        [ Alcotest.test_case "ids, find, for_path" `Quick test_registry ] );
      ( "jvm-equivalence",
        [
          Alcotest.test_case "constraints identical to pre-refactor" `Quick
            test_jvm_constraints_equivalent;
          Alcotest.test_case "full GBR byte-identical" `Quick test_jvm_gbr_byte_identical;
          Alcotest.test_case "harness refuses a variant tool" `Quick
            test_jvm_rejects_variant_tool;
          Alcotest.test_case "predicate bridge" `Quick test_jvm_predicate_bridge;
        ] );
      ( "duplicates",
        [
          Alcotest.test_case "jvm class repeats a member" `Quick test_jvm_duplicate_members;
          Alcotest.test_case "fj repeats a method or signature" `Quick
            test_fj_duplicate_members;
        ] );
      ( "speculate",
        [
          Alcotest.test_case "byte-identical on every frontend" `Quick
            test_speculate_byte_identical;
          Alcotest.test_case "replayed workload launches nothing" `Quick
            test_speculate_replay_launches_nothing;
        ] );
      ( "wire-v4",
        [
          Alcotest.test_case "frontend tag encoding" `Quick test_wire_frontend_tag;
          Alcotest.test_case "cache key includes frontend" `Quick test_cache_key_frontend;
        ] );
    ]
