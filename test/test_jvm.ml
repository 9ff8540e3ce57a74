(* Tests for the bytecode substrate: hierarchy queries, the checker, item
   inventory, constraint soundness, and the reducer. *)

open Lbr_logic
open Lbr_jvm
open Lbr_jvm.Classfile

(* A small hand-built pool exercising every hierarchy feature:

     interface I0 { im0 }          interface I1 extends I0 { im1 }
     abstract class A implements I1 { abstract am; concrete im0 }
     class B extends A implements I0 { am, im1, m; 2 ctors; field f }
     class C { main body referencing everything }                       *)
let imeth name = { m_name = name; m_params = []; m_ret = Jtype.Int; m_static = false;
                   m_abstract = true; m_body = [] }

let conc ?(static = false) name body =
  { m_name = name; m_params = []; m_ret = Jtype.Int; m_static = static;
    m_abstract = false; m_body = body }

let sample_pool () =
  let i0 = { name = "app/I0"; super = object_name; interfaces = []; is_interface = true;
             is_abstract = true; fields = []; methods = [ imeth "im0" ]; ctors = [];
             annotations = []; inner_classes = [] } in
  let i1 = { i0 with name = "app/I1"; interfaces = [ "app/I0" ]; methods = [ imeth "im1" ] } in
  let a = { name = "app/A"; super = object_name; interfaces = [ "app/I1" ];
            is_interface = false; is_abstract = true; fields = [];
            methods = [ imeth "am"; conc "im0" [ Arith; Return_insn ] ];
            ctors = [ { k_params = []; k_body = [ Return_insn ] } ];
            annotations = []; inner_classes = [] } in
  let b = { name = "app/B"; super = "app/A"; interfaces = [ "app/I0" ]; is_interface = false;
            is_abstract = false;
            fields = [ { f_name = "f"; f_type = Jtype.Ref "app/A"; f_static = false } ];
            methods =
              [ conc "am" [ Return_insn ]; conc "im1" [ Return_insn ];
                conc "m" [ Invoke_interface { owner = "app/I1"; meth = "im0" }; Return_insn ];
                conc ~static:true "s" [ Return_insn ] ];
            ctors =
              [ { k_params = []; k_body = [ Return_insn ] };
                { k_params = [ Jtype.Int ]; k_body = [ Arith; Return_insn ] } ];
            annotations = [ "app/A" ]; inner_classes = [ "app/C" ] } in
  let c = { name = "app/C"; super = object_name; interfaces = []; is_interface = false;
            is_abstract = false; fields = [];
            methods =
              [ conc "main"
                  [ New_instance { cls = "app/B"; ctor = 1 };
                    Invoke_virtual { owner = "app/B"; meth = "im0" };
                    Invoke_static { owner = "app/B"; meth = "s" };
                    Get_field { owner = "app/B"; field = "f" };
                    Check_cast "app/I0";
                    Upcast { from_ = "app/B"; to_ = "app/I0" };
                    Load_const_class "app/B";
                    Return_insn ] ];
            ctors = [ { k_params = []; k_body = [ Return_insn ] } ];
            annotations = []; inner_classes = [] } in
  Classpool.of_classes [ i0; i1; a; b; c ]

let test_sample_valid () =
  let violations = Checker.check (sample_pool ()) in
  List.iter (fun v -> Format.printf "%a@." Checker.pp_violation v) violations;
  Alcotest.(check int) "sample pool is valid" 0 (List.length violations)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)

let test_super_chain () =
  let pool = sample_pool () in
  Alcotest.(check (list string)) "chain of B" [ "app/B"; "app/A"; object_name ]
    (Hierarchy.super_chain pool "app/B")

let test_subtype_paths () =
  let hx = Hierarchy.Ctx.create (sample_pool ()) in
  let id = Hierarchy.Ctx.id hx in
  (* B <= I0 two ways: directly, and via A implements I1 extends I0. *)
  let paths = Hierarchy.Ctx.subtype_paths hx ~sub:(id "app/B") ~sup:(id "app/I0") in
  Alcotest.(check int) "two witnesses" 2 (List.length paths);
  Alcotest.(check int) "none to unrelated" 0
    (List.length (Hierarchy.Ctx.subtype_paths hx ~sub:(id "app/C") ~sup:(id "app/I0")))

let test_method_candidates () =
  let hx = Hierarchy.Ctx.create (sample_pool ()) in
  let candidates owner meth ~static =
    Hierarchy.Ctx.method_candidates hx ~owner:(Hierarchy.Ctx.id hx owner) ~meth ~static
  in
  let owners cs = List.map (fun (c : Hierarchy.candidate) -> Hierarchy.Ctx.name hx c.def) cs in
  (* im0 on B resolves on A (concrete def) and on I0 (abstract). *)
  let c = candidates "app/B" "im0" ~static:false in
  Alcotest.(check (list string)) "resolution owners" [ "app/A"; "app/I0" ]
    (List.sort_uniq compare (owners c));
  (* static method with matching staticness only *)
  let s = candidates "app/B" "s" ~static:true in
  Alcotest.(check bool) "static found" true (s <> []);
  Alcotest.(check (list string)) "no instance match for s" []
    (owners (candidates "app/B" "s" ~static:false));
  (* external owner resolves trivially *)
  Alcotest.(check bool) "external trivially resolves" true
    (candidates "java/lang/String" "length" ~static:false
    = [ { Hierarchy.def = -1; member = -1; path = [] } ])

let test_abstract_obligations () =
  let hx = Hierarchy.Ctx.create (sample_pool ()) in
  let names =
    Hierarchy.Ctx.abstract_obligations hx (Hierarchy.Ctx.id hx "app/B")
    |> List.map (fun (s, i) ->
           (Hierarchy.Ctx.name hx s, (List.nth (Hierarchy.Ctx.cls hx s).methods i).m_name))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair string string))) "obligations of B"
    [ ("app/A", "am"); ("app/I0", "im0"); ("app/I1", "im1") ]
    names

(* ------------------------------------------------------------------ *)
(* Checker: seeded corruptions must be caught                          *)

let corrupt_and_check mutate expected_fragment =
  let pool = sample_pool () in
  let classes = Classpool.classes pool |> List.map mutate in
  let violations = Checker.check (Classpool.of_classes classes) in
  let found =
    List.exists
      (fun (v : Checker.violation) ->
        let s = Format.asprintf "%a" Checker.pp_violation v in
        let n = String.length expected_fragment in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = expected_fragment || go (i + 1))
        in
        go 0)
      violations
  in
  Alcotest.(check bool) (Printf.sprintf "catches %S" expected_fragment) true found

let test_checker_missing_class () =
  corrupt_and_check
    (fun c -> if c.name = "app/C" then { c with inner_classes = [ "app/Ghost" ] } else c)
    "missing class app/Ghost"

let test_checker_unresolved_method () =
  corrupt_and_check
    (fun c ->
      if c.name = "app/B" then
        { c with
          methods =
            List.filter (fun m -> m.m_name <> "m") c.methods
            @ [ conc "m" [ Invoke_virtual { owner = "app/C"; meth = "nope" }; Return_insn ] ]
        }
      else c)
    "unresolved method"

let test_checker_missing_implementation () =
  corrupt_and_check
    (fun c ->
      if c.name = "app/B" then
        { c with methods = List.filter (fun m -> m.m_name <> "am") c.methods }
      else c)
    "missing implementation of am"

let test_checker_missing_ctor () =
  corrupt_and_check
    (fun c -> if c.name = "app/B" then { c with ctors = [ List.hd c.ctors ] } else c)
    "missing constructor #1"

let test_checker_bad_upcast () =
  (* both witnesses must go: B's own implements and the one through A *)
  corrupt_and_check
    (fun c ->
      if c.name = "app/B" || c.name = "app/A" then { c with interfaces = [] } else c)
    "app/B is not a subtype of app/I0"

let test_checker_abstract_new () =
  corrupt_and_check
    (fun c -> if c.name = "app/B" then { c with is_abstract = true } else c)
    "new on abstract class"

let test_checker_cyclic () =
  (* B extends A already; A extends B closes the cycle. *)
  corrupt_and_check
    (fun c -> if c.name = "app/A" then { c with super = "app/B" } else c)
    "cyclic hierarchy through"

(* ------------------------------------------------------------------ *)
(* Items and variables                                                 *)

let test_item_inventory () =
  let pool = sample_pool () in
  let items = Jvars.items_of_pool pool in
  let count pred = List.length (List.filter pred items) in
  Alcotest.(check int) "classes" 5 (count (function Item.Class _ -> true | _ -> false));
  Alcotest.(check int) "extends (only B has internal super)" 1
    (count (function Item.Extends _ -> true | _ -> false));
  Alcotest.(check int) "implements" 2 (count (function Item.Implements _ -> true | _ -> false));
  Alcotest.(check int) "iface extends" 1
    (count (function Item.Iface_extends _ -> true | _ -> false));
  Alcotest.(check int) "ctors" 4 (count (function Item.Ctor _ -> true | _ -> false));
  Alcotest.(check int) "fields" 1 (count (function Item.Field _ -> true | _ -> false));
  let names = List.map Item.to_string items in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_jvars_roundtrip () =
  let pool = sample_pool () in
  let vpool = Var.Pool.create () in
  let jv = Jvars.derive vpool pool in
  List.iter
    (fun item ->
      let v = Jvars.var jv item in
      Alcotest.(check bool) "item_of inverse" true (Item.equal (Jvars.item_of jv v) item))
    (Jvars.items jv)

(* ------------------------------------------------------------------ *)
(* Constraints and reducer                                             *)

let context pool =
  let vpool = Var.Pool.create () in
  let jv = Jvars.derive vpool pool in
  let cnf = Constraints.generate jv pool in
  (vpool, jv, cnf)

let test_full_assignment_satisfies () =
  let pool = sample_pool () in
  let _, jv, cnf = context pool in
  Alcotest.(check bool) "R(I)" true (Cnf.holds cnf (Jvars.all jv))

let prop_constraint_soundness =
  QCheck.Test.make ~count:60 ~name:"satisfying assignments reduce to checker-valid pools"
    QCheck.(make Gen.(pair (int_range 1 1000) (int_bound 999)))
    (fun (pool_seed, req_seed) ->
      let profile = { Lbr_workload.Generator.default_profile with classes = 18 } in
      let pool = Lbr_workload.Generator.generate ~seed:pool_seed profile in
      let vpool, jv, cnf = context pool in
      let order = Lbr_sat.Order.by_creation vpool in
      let universe = Jvars.all jv in
      let rng = Random.State.make [| req_seed |] in
      let required = Assignment.filter (fun _ -> Random.State.float rng 1.0 < 0.08) universe in
      match Lbr_sat.Msa.compute cnf ~order ~universe ~required () with
      | None -> false
      | Some phi -> Cnf.holds cnf phi && Checker.is_valid (Reducer.apply jv pool phi))

(* The generated clause list, order included, pinned by MD5.  Reduction
   outputs depend on clause order through the engine trail, so any change
   to how the model is built must reproduce these digests exactly. *)
let cnf_digest pool =
  let _, _, cnf = context pool in
  let b = Buffer.create 4096 in
  let lits arr = Array.iter (fun v -> Buffer.add_string b (string_of_int v ^ " ")) arr in
  List.iter
    (fun (c : Clause.t) ->
      lits c.neg;
      Buffer.add_string b "| ";
      lits c.pos;
      Buffer.add_char b '\n')
    (Cnf.clauses cnf);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Hand-built pools, each reaching one branch of the generator that the
   generated pools may not. *)
let cls ?(super = object_name) ?(interfaces = []) ?(is_interface = false) ?(fields = [])
    ?(methods = []) ?(ctors = []) name =
  { name; super; interfaces; is_interface; is_abstract = is_interface; fields; methods; ctors;
    annotations = []; inner_classes = [] }

let iface ?(interfaces = []) ?(methods = []) name = cls ~is_interface:true ~interfaces ~methods name
let ctor body = { k_params = []; k_body = body }

(* Six stacked interface diamonds: 64 paths from C to I0's abstract [m],
   past the 48-path premise cap, and one path to L6a's abstract [n]. *)
let diamonds_pool () =
  let name k = Printf.sprintf "d/I%d" k in
  let level k =
    let a = Printf.sprintf "d/L%da" k and b = Printf.sprintf "d/L%db" k in
    [ iface ~interfaces:[ name (k - 1) ] ~methods:(if k = 6 then [ imeth "n" ] else []) a;
      iface ~interfaces:[ name (k - 1) ] b;
      iface ~interfaces:[ a; b ] (name k) ]
  in
  Classpool.of_classes
    ((iface ~methods:[ imeth "m" ] (name 0) :: List.concat_map level [ 1; 2; 3; 4; 5; 6 ])
    @ [ cls ~interfaces:[ name 6 ]
          ~methods:[ conc "m" [ Return_insn ]; conc "n" [ Return_insn ] ]
          ~ctors:[ ctor [ Return_insn ] ] "d/C" ])

(* [m] resolves on C, A, I1, I2 and I3: weight 3 each, so the product
   passes 64 at the fourth candidate and the disjunction keeps three. *)
let truncated_pool () =
  let ifaces = [ "t/I1"; "t/I2"; "t/I3" ] in
  Classpool.of_classes
    (List.map (fun n -> iface ~methods:[ imeth "m" ] n) ifaces
    @ [ cls ~methods:[ conc "m" [ Return_insn ] ] ~ctors:[ ctor [ Return_insn ] ] "t/A";
        cls ~super:"t/A" ~interfaces:ifaces ~methods:[ conc "m" [ Arith; Return_insn ] ]
          ~ctors:[ ctor [ Return_insn ] ] "t/C";
        cls ~methods:[ conc "main" [ Invoke_virtual { owner = "t/C"; meth = "m" }; Return_insn ] ]
          "t/U" ])

(* Reflection on B, whose supertypes meet again at I0. *)
let reflection_pool () =
  Classpool.of_classes
    [ iface "r/I0"; iface ~interfaces:[ "r/I0" ] "r/Ia"; iface ~interfaces:[ "r/I0" ] "r/Ib";
      cls ~interfaces:[ "r/Ia"; "r/Ib" ] "r/A";
      cls ~super:"r/A" ~interfaces:[ "r/I0" ] "r/B";
      cls ~methods:[ conc "main" [ Load_const_class "r/B"; Arith; Return_insn ] ] "r/U" ]

(* B reaches I0 three ways and C two; [one] is a one-instruction body. *)
let upcast_pool () =
  Classpool.of_classes
    [ iface "u/I0"; iface ~interfaces:[ "u/I0" ] "u/Ia"; iface ~interfaces:[ "u/I0" ] "u/Ib";
      cls ~interfaces:[ "u/I0" ] "u/A";
      cls ~super:"u/A" ~interfaces:[ "u/Ia"; "u/Ib" ] "u/B";
      cls ~interfaces:[ "u/Ia"; "u/Ib" ] "u/C";
      cls
        ~methods:
          [ conc "main"
              [ Upcast { from_ = "u/B"; to_ = "u/I0" }; Upcast { from_ = "u/C"; to_ = "u/I0" };
                Return_insn ];
            conc "one" [ Upcast { from_ = "u/B"; to_ = "u/I0" } ] ]
        "u/U" ]

(* C extends B extends A, every constructor body calling into its class. *)
let ctor_chain_pool () =
  let f = { f_name = "f"; f_type = Jtype.Int; f_static = false } in
  Classpool.of_classes
    [ cls ~fields:[ f ] ~ctors:[ ctor [ Return_insn ]; ctor [ Put_field { owner = "k/A"; field = "f" } ] ]
        "k/A";
      cls ~super:"k/A"
        ~ctors:[ ctor [ Get_field { owner = "k/B"; field = "f" }; Return_insn ]; ctor [ Arith ] ]
        "k/B";
      cls ~super:"k/B" ~ctors:[ ctor [ New_instance { cls = "k/A"; ctor = 1 } ] ] "k/C";
      cls ~methods:[ conc "main" [ New_instance { cls = "k/C"; ctor = 0 }; Return_insn ] ] "k/U" ]

let branch_pools () =
  [ ("stacked diamonds", diamonds_pool ()); ("truncated disjunction", truncated_pool ());
    ("reflection diamond", reflection_pool ()); ("upcast paths", upcast_pool ());
    ("constructor chain", ctor_chain_pool ()) ]

let test_branch_pools_valid () =
  List.iter
    (fun (what, pool) ->
      List.iter (fun v -> Format.printf "%s: %a@." what Checker.pp_violation v) (Checker.check pool);
      Alcotest.(check bool) (what ^ " is valid") true (Checker.is_valid pool))
    (branch_pools ())

let pinned_cnfs () =
  let njr seed =
    ( Printf.sprintf "njr 150 seed %d" seed,
      Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes:150) )
  in
  [ njr 1; njr 2; njr 42; njr 1000;
    ( "default 18 seed 5",
      Lbr_workload.Generator.generate ~seed:5
        { Lbr_workload.Generator.default_profile with classes = 18 } );
    ("sample", sample_pool ()) ]
  @ branch_pools ()
  |> List.map (fun (what, pool) -> (what, cnf_digest pool))

let test_cnf_pinned () =
  let expected =
    [
      ("njr 150 seed 1", "79ffeb72fd7aa6dfaeceb8b3ee6bcf65");
      ("njr 150 seed 2", "b50d9f6bc2ec96ece2394c18dae002ef");
      ("njr 150 seed 42", "c617bfa666f928a35c5ad643ac7e1b64");
      ("njr 150 seed 1000", "ac67bd1cdcd5fa117e30b4a8349f887a");
      ("default 18 seed 5", "e9f3d9effa413ef3d69e7dc4f49c54d8");
      ("sample", "7981009371899328c9e4e5c5268ab9e7");
      ("stacked diamonds", "ae99a6b1873b6f194046b8e52c0d9776");
      ("truncated disjunction", "232f4ecf11863bc0274e0ccbe7ef61ce");
      ("reflection diamond", "05f9b00c08f0b940f29f6caa45d74a11");
      ("upcast paths", "17425d6882f0243ed2688df53d863a2b");
      ("constructor chain", "f0097852362d2a4c943323102718ec3a");
    ]
  in
  Alcotest.(check (list (pair string string))) "clause-list digests" expected (pinned_cnfs ())

let test_reducer_full_assignment_identity () =
  let pool = sample_pool () in
  let _, jv, _ = context pool in
  let reduced = Reducer.apply jv pool (Jvars.all jv) in
  Alcotest.(check int) "same classes" (Size.classes pool) (Size.classes reduced);
  Alcotest.(check int) "same bytes" (Size.bytes pool) (Size.bytes reduced);
  Alcotest.(check int) "same items" (Size.items pool) (Size.items reduced)

let test_reducer_empty_assignment () =
  let pool = sample_pool () in
  let _, jv, _ = context pool in
  let reduced = Reducer.apply jv pool Assignment.empty in
  Alcotest.(check int) "no classes" 0 (Size.classes reduced);
  Alcotest.(check bool) "empty pool is valid" true (Checker.is_valid reduced)

let test_reducer_stubs_code () =
  let pool = sample_pool () in
  let _, jv, _ = context pool in
  let phi =
    Assignment.of_list
      [ Jvars.var jv (Item.Class "app/C");
        Jvars.var jv (Item.Method { cls = "app/C"; meth = "main" }) ]
  in
  let reduced = Reducer.apply jv pool phi in
  match Classpool.find reduced "app/C" with
  | None -> Alcotest.fail "C missing"
  | Some c -> (
      match find_method c "main" with
      | None -> Alcotest.fail "main missing"
      | Some m -> Alcotest.(check bool) "stubbed" true (m.m_body = [ Return_insn ]))

let test_reducer_extends_reparent () =
  let pool = sample_pool () in
  let _, jv, _ = context pool in
  let phi = Assignment.of_list [ Jvars.var jv (Item.Class "app/B") ] in
  let reduced = Reducer.apply jv pool phi in
  match Classpool.find reduced "app/B" with
  | None -> Alcotest.fail "B missing"
  | Some b -> Alcotest.(check string) "reparented to Object" object_name b.super

let test_reducer_ctor_renumbering () =
  let pool = sample_pool () in
  let _, jv, _ = context pool in
  (* drop B's ctor #0; C's New_instance of ctor #1 must renumber to #0 *)
  let phi = Jvars.all jv in
  let phi = Assignment.remove (Jvars.var jv (Item.Ctor { cls = "app/B"; index = 0 })) phi in
  let phi = Assignment.remove (Jvars.var jv (Item.Ctor_code { cls = "app/B"; index = 0 })) phi in
  let reduced = Reducer.apply jv pool phi in
  (match Classpool.find reduced "app/B" with
  | None -> Alcotest.fail "B missing"
  | Some b -> Alcotest.(check int) "one ctor left" 1 (List.length b.ctors));
  match Classpool.find reduced "app/C" with
  | None -> Alcotest.fail "C missing"
  | Some c ->
      let main = Option.get (find_method c "main") in
      let has_renumbered =
        List.exists
          (function New_instance { cls = "app/B"; ctor = 0 } -> true | _ -> false)
          main.m_body
      in
      Alcotest.(check bool) "New_instance renumbered" true has_renumbered;
      Alcotest.(check bool) "still valid" true (Checker.is_valid reduced)

(* One prepared applier, fed a sequence of assignments, against a fresh
   [Reducer.apply] of each.  The sequence mixes what GBR feeds it — prefix
   unions of one order, in binary-search hops — with arbitrary subsets
   (which drop constructors under classes that instantiate them), the empty
   and the full set, and revisits of earlier assignments. *)
let prop_reducer_applier_is_fresh_apply =
  QCheck.Test.make ~count:60 ~name:"a prepared applier's sequence = fresh applications"
    QCheck.(make Gen.(pair (int_range 1 1000) (int_bound 100_000)))
    (fun (pool_seed, seq_seed) ->
      let profile = { Lbr_workload.Generator.default_profile with classes = 16 } in
      let pool = Lbr_workload.Generator.generate ~seed:pool_seed profile in
      let _, jv, _ = context pool in
      let rng = Random.State.make [| seq_seed |] in
      let vars = Array.of_list (Assignment.to_list (Jvars.all jv)) in
      let n = Array.length vars in
      let order = Array.copy vars in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let prefix k = Assignment.of_list (Array.to_list (Array.sub order 0 k)) in
      let subset () =
        let p = Random.State.float rng 1.0 in
        Assignment.of_list
          (List.filter (fun _ -> Random.State.float rng 1.0 < p) (Array.to_list vars))
      in
      let seen = ref [] in
      let next () =
        let phi =
          match Random.State.int rng 10 with
          | 0 -> Assignment.empty
          | 1 -> Jvars.all jv
          | 2 | 3 when !seen <> [] -> List.nth !seen (Random.State.int rng (List.length !seen))
          | 4 | 5 | 6 -> prefix (Random.State.int rng (n + 1))
          | _ -> subset ()
        in
        seen := phi :: !seen;
        phi
      in
      let applier = Reducer.prepare jv pool in
      let agrees phi =
        let sub = applier phi and fresh = Reducer.apply jv pool phi in
        let unmemoized = Size.bytes (Classpool.of_classes (Classpool.classes sub)) in
        String.equal (Serialize.to_bytes sub) (Serialize.to_bytes fresh)
        && Size.bytes sub = unmemoized
        && Size.bytes fresh = unmemoized
        && Size.classes sub = Size.classes fresh
      in
      List.for_all agrees (List.init 40 (fun _ -> next ())))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let test_serialize_roundtrip_sample () =
  let pool = sample_pool () in
  match Serialize.of_bytes (Serialize.to_bytes pool) with
  | Error m -> Alcotest.failf "deserialization failed: %s" m
  | Ok pool' ->
      Alcotest.(check (list string)) "same classes" (Classpool.names pool) (Classpool.names pool');
      Alcotest.(check bool) "structurally equal" true
        (Classpool.classes pool = Classpool.classes pool')

let prop_serialize_roundtrip =
  QCheck.Test.make ~count:60 ~name:"serialize/deserialize round-trips generated pools"
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let pool =
        Lbr_workload.Generator.generate ~seed
          { Lbr_workload.Generator.default_profile with classes = 20 }
      in
      match Serialize.of_bytes (Serialize.to_bytes pool) with
      | Error _ -> false
      | Ok pool' -> Classpool.classes pool = Classpool.classes pool')

let test_serialize_rejects_garbage () =
  (match Serialize.of_bytes "not a class pool" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (match Serialize.of_bytes "" with
  | Ok _ -> Alcotest.fail "accepted empty"
  | Error _ -> ());
  (* truncation *)
  let bytes = Serialize.to_bytes (sample_pool ()) in
  match Serialize.of_bytes (String.sub bytes 0 (String.length bytes / 2)) with
  | Ok _ -> Alcotest.fail "accepted truncated input"
  | Error _ -> ()

(* The server feeds of_bytes/class_of_bytes attacker-shaped bytes straight
   off a socket: every truncation and every bit flip must come back as
   [Error _] — an exception here is a daemon crash. *)
let never_raises ~what parse data =
  match parse data with
  | (Ok _ : (_, string) result) -> true
  | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s on %S" what (Printexc.to_string e)
        (String.escaped (String.sub data 0 (min 64 (String.length data))))

let prop_serialize_truncation_safe =
  QCheck.Test.make ~count:100 ~name:"of_bytes: truncated inputs give Error, never raise"
    QCheck.(make Gen.(pair (int_range 1 5_000) (int_bound 10_000)))
    (fun (seed, cut) ->
      let pool =
        Lbr_workload.Generator.generate ~seed
          { Lbr_workload.Generator.default_profile with classes = 12 }
      in
      let bytes = Serialize.to_bytes pool in
      let cut = cut mod String.length bytes in
      let truncated = String.sub bytes 0 cut in
      never_raises ~what:"of_bytes" Serialize.of_bytes truncated
      && never_raises ~what:"class_of_bytes" Serialize.class_of_bytes truncated
      &&
      match Serialize.of_bytes truncated with
      | Ok _ -> cut = String.length bytes (* only the untruncated input may parse *)
      | Error _ -> true)

let prop_serialize_bitflip_safe =
  QCheck.Test.make ~count:200 ~name:"of_bytes: bit-flipped inputs give Ok or Error, never raise"
    QCheck.(make Gen.(triple (int_range 1 5_000) (int_bound 100_000) (int_bound 7)))
    (fun (seed, pos, bit) ->
      let pool =
        Lbr_workload.Generator.generate ~seed
          { Lbr_workload.Generator.default_profile with classes = 12 }
      in
      let bytes = Bytes.of_string (Serialize.to_bytes pool) in
      let pos = pos mod Bytes.length bytes in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)));
      let flipped = Bytes.to_string bytes in
      never_raises ~what:"of_bytes" Serialize.of_bytes flipped
      && never_raises ~what:"class_of_bytes" Serialize.class_of_bytes flipped)

let prop_serialize_random_bytes_safe =
  QCheck.Test.make ~count:200 ~name:"of_bytes: arbitrary bytes give Error, never raise"
    QCheck.(string_gen Gen.char)
    (fun data ->
      (* arbitrary strings are overwhelmingly not valid pools, but the only
         contract is: no exception escapes *)
      never_raises ~what:"of_bytes" Serialize.of_bytes data
      && never_raises ~what:"class_of_bytes" Serialize.class_of_bytes data)

let test_serialize_deep_array_nesting_safe () =
  (* a class whose first field's type is tag-6 ("array of") repeated: an
     unbounded reader would recurse once per byte *)
  let b = Buffer.create 256 in
  let u16 n =
    Buffer.add_char b (Char.chr (n lsr 8));
    Buffer.add_char b (Char.chr (n land 0xFF))
  in
  u16 1 (* strtab count *);
  u16 1;
  Buffer.add_string b "A" (* one string "A" *);
  u16 0 (* name *);
  u16 0 (* super *);
  Buffer.add_char b '\000' (* flags *);
  u16 0 (* interfaces *);
  u16 1 (* one field *);
  u16 0 (* f_name *);
  Buffer.add_string b (String.make 100_000 '\006') (* Array (Array (... *);
  match Serialize.class_of_bytes (Buffer.contents b) with
  | Ok _ -> Alcotest.fail "accepted absurdly nested array type"
  | Error _ -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

let test_serialize_file_io () =
  let pool = sample_pool () in
  let path = Filename.temp_file "lbr" ".pool" in
  Serialize.write_file path pool;
  let result = Serialize.read_file path in
  Sys.remove path;
  match result with
  | Error m -> Alcotest.failf "read_file: %s" m
  | Ok pool' ->
      Alcotest.(check bool) "file round-trip" true
        (Classpool.classes pool = Classpool.classes pool');
      Alcotest.(check int) "serialized_size = file size" (Serialize.serialized_size pool)
        (String.length (Serialize.to_bytes pool'))

let test_serialized_size_shrinks () =
  let pool = sample_pool () in
  let _, jv, _ = context pool in
  let reduced = Reducer.apply jv pool Assignment.empty in
  Alcotest.(check bool) "empty pool serializes smaller" true
    (Serialize.serialized_size reduced < Serialize.serialized_size pool)

(* ------------------------------------------------------------------ *)
(* Item counts and memory budgets                                      *)

let generated_pools () =
  List.map
    (fun seed ->
      Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes:150))
    [ 1; 2; 42; 1000 ]

let test_size_items_counts_inventory () =
  List.iter
    (fun pool ->
      Alcotest.(check int) "Size.items = inventory length"
        (List.length (Jvars.items_of_pool pool))
        (Size.items pool))
    (sample_pool ()
    :: List.map
         (fun seed ->
           Lbr_workload.Generator.generate ~seed
             { Lbr_workload.Generator.default_profile with classes = 18 })
         [ 1; 5; 9; 33 ]
    @ generated_pools ())

(* Words allocated so far: [Gc.minor_words] counts the minor heap exactly,
   and words allocated straight into the major heap are major words less
   promoted ones. *)
let allocated_words () =
  let q = Gc.quick_stat () in
  Gc.minor_words () +. q.major_words -. q.promoted_words

(* Deriving numbers the variables without building the inventory: a few
   words per item for the per-class position arrays.  Counted as
   generation is below: a warm-up call first, and a full major collection
   on each side of the count, since the runtime adds blocks allocated
   straight into the major heap to [major_words] only at a major slice. *)
let test_derive_words_per_item () =
  List.iter
    (fun pool ->
      ignore (Jvars.derive (Var.Pool.create ()) pool);
      Gc.full_major ();
      let before = allocated_words () in
      let jv = Jvars.derive (Var.Pool.create ()) pool in
      Gc.full_major ();
      let words = allocated_words () -. before in
      let per_item = words /. float_of_int (Assignment.cardinal (Jvars.all jv)) in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f words per item <= 16" per_item)
        true (per_item <= 16.))
    (generated_pools ())

(* Generating the model allocates the packed store it returns, about two
   words per literal, and little besides: conclusions are packed into
   per-domain scratch, resolved once each, and emitted by index.  The first
   generation warms the scratch.  The runtime adds blocks allocated straight
   into the major heap to [major_words] only at a major slice, so a full
   major collection on each side of the count settles them. *)
let test_generate_words_per_literal () =
  List.iter
    (fun pool ->
      let jv = Jvars.derive (Var.Pool.create ()) pool in
      ignore (Constraints.generate jv pool);
      Gc.full_major ();
      let before = allocated_words () in
      let cnf = Constraints.generate jv pool in
      Gc.full_major ();
      let words = allocated_words () -. before in
      let per_literal = words /. float_of_int (Array.length (Cnf.lits cnf)) in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f words per literal <= 5" per_literal)
        true (per_literal <= 5.))
    (generated_pools ())

(* The model is one packed clause store: about a word per literal, plus
   two offsets per clause. *)
let test_cnf_words_per_literal () =
  List.iter
    (fun pool ->
      let _, _, cnf = context pool in
      let literals = Array.length (Cnf.lits cnf) in
      Alcotest.(check bool) "at least 10,000 literals" true (literals >= 10_000);
      let words =
        float_of_int (Obj.reachable_words (Obj.repr cnf)) /. float_of_int literals
      in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f words per literal <= 2.5" words)
        true (words <= 2.5))
    (generated_pools ())

(* ------------------------------------------------------------------ *)
(* Class pools against a map model                                     *)

module SMap = Map.Make (String)

let pool_name i = Printf.sprintf "p/C%02d" i

(* A class whose version is told by its annotation list. *)
let versioned i version =
  { name = pool_name i; super = object_name; interfaces = []; is_interface = false;
    is_abstract = false; fields = []; methods = []; ctors = [];
    annotations = [ Printf.sprintf "v%d" version ]; inner_classes = [] }

type pool_op = Set of int * int | Unset of int | Sub of int

let show_op = function
  | Set (i, v) -> Printf.sprintf "set %d v%d" i v
  | Unset i -> Printf.sprintf "unset %d" i
  | Sub seed -> Printf.sprintf "sub %d" seed

(* The pool starts with some of names 0-9; random operations touch names
   0-10, and one [set] of name 11, which no pool has yet, sits among
   them. *)
let pool_ops_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map2 (fun i v -> Set (i, v)) (int_bound 10) (int_bound 3));
        (2, map (fun i -> Unset i) (int_bound 10));
        (2, map (fun s -> Sub s) (int_bound 1000));
      ]
  in
  map3
    (fun initial (before, after) v -> (initial, before @ [ Set (11, v) ] @ after))
    (list_size (int_bound 10) (int_bound 9))
    (pair (list_size (int_bound 8) op) (list_size (int_bound 8) op))
    (int_bound 3)

let matches_model pool model =
  let bindings = SMap.bindings model in
  List.for_all
    (fun i ->
      let n = pool_name i in
      let s = Classpool.slot pool n in
      Classpool.find pool n = SMap.find_opt n model
      && Classpool.mem pool n = SMap.mem n model
      && (s >= 0 || not (SMap.mem n model))
      && (s < 0 || Classpool.find_slot pool s = SMap.find_opt n model))
    (List.init 12 Fun.id)
  && Classpool.classes pool = List.map snd bindings
  && Classpool.names pool = List.map fst bindings
  && Classpool.size pool = SMap.cardinal model
  && Classpool.fold (fun c acc -> c :: acc) pool [] = SMap.fold (fun _ c acc -> c :: acc) model []

let prop_classpool_matches_map =
  QCheck.Test.make ~count:300 ~name:"set, unset and slot sub-pools match a Map model"
    (QCheck.make
       ~print:(fun (initial, ops) ->
         String.concat "," (List.map string_of_int initial)
         ^ " / " ^ String.concat "; " (List.map show_op ops))
       pool_ops_gen)
    (fun (initial, ops) ->
      let initial = List.sort_uniq Int.compare initial in
      let classes = List.rev_map (fun i -> versioned i 0) initial in
      let pool = Classpool.of_classes classes in
      let model =
        List.fold_left (fun m (c : cls) -> SMap.add c.name c m) SMap.empty classes
      in
      let step (pool, model, ok) op =
        let pool', model', shared =
          match op with
          | Set (i, v) ->
              let c = versioned i v in
              (Classpool.set pool c, SMap.add c.name c model, true)
          | Unset i ->
              (Classpool.unset pool (pool_name i), SMap.remove (pool_name i) model, true)
          | Sub seed ->
              let kept (c : cls) = Hashtbl.hash (seed, c.name) land 1 = 0 in
              let slots =
                Array.init (Classpool.slot_count pool) (fun s ->
                    match Classpool.find_slot pool s with
                    | Some c when kept c -> c
                    | Some _ | None -> Classpool.vacant)
              in
              let sub = Classpool.of_slots pool slots in
              (sub, SMap.filter (fun _ c -> kept c) model, Classpool.same_index sub pool)
        in
        (pool', model', ok && shared && matches_model pool' model')
      in
      let _, _, ok = List.fold_left step (pool, model, matches_model pool model) ops in
      ok)

let test_classpool_of_slots_checks () =
  let pool = Classpool.of_classes [ versioned 1 0; versioned 2 0 ] in
  Alcotest.check_raises "short slot array"
    (Invalid_argument "Classpool.of_slots: not one slot per indexed name") (fun () ->
      ignore (Classpool.of_slots pool [| versioned 1 0 |]));
  Alcotest.check_raises "class in another name's slot"
    (Invalid_argument "Classpool.of_slots: class in the slot of another name: p/C02") (fun () ->
      ignore (Classpool.of_slots pool [| versioned 2 0; Classpool.vacant |]));
  (* The first class, in list order, whose name came before. *)
  Alcotest.check_raises "duplicate class"
    (Invalid_argument "Classpool.of_classes: duplicate class p/C02") (fun () ->
      ignore (Classpool.of_classes [ versioned 2 0; versioned 1 0; versioned 2 1; versioned 1 1 ]))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lbr_jvm"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "sample valid" `Quick test_sample_valid;
          Alcotest.test_case "super chain" `Quick test_super_chain;
          Alcotest.test_case "subtype paths" `Quick test_subtype_paths;
          Alcotest.test_case "method candidates" `Quick test_method_candidates;
          Alcotest.test_case "abstract obligations" `Quick test_abstract_obligations;
        ] );
      ( "checker",
        [
          Alcotest.test_case "missing class" `Quick test_checker_missing_class;
          Alcotest.test_case "unresolved method" `Quick test_checker_unresolved_method;
          Alcotest.test_case "missing implementation" `Quick test_checker_missing_implementation;
          Alcotest.test_case "missing ctor" `Quick test_checker_missing_ctor;
          Alcotest.test_case "bad upcast" `Quick test_checker_bad_upcast;
          Alcotest.test_case "new on abstract" `Quick test_checker_abstract_new;
          Alcotest.test_case "cyclic hierarchy" `Quick test_checker_cyclic;
        ] );
      ( "items",
        [
          Alcotest.test_case "inventory" `Quick test_item_inventory;
          Alcotest.test_case "jvars roundtrip" `Quick test_jvars_roundtrip;
          Alcotest.test_case "Size.items counts the inventory" `Quick
            test_size_items_counts_inventory;
          Alcotest.test_case "derive allocates at most 16 words per item" `Quick
            test_derive_words_per_item;
        ] );
      ( "classpool",
        [ Alcotest.test_case "of_slots and of_classes refuse bad input" `Quick
            test_classpool_of_slots_checks ] );
      qsuite "classpool-prop" [ prop_classpool_matches_map ];
      ( "constraints",
        [
          Alcotest.test_case "full assignment satisfies" `Quick test_full_assignment_satisfies;
          Alcotest.test_case "branch pools are valid" `Quick test_branch_pools_valid;
          Alcotest.test_case "clause list pinned" `Quick test_cnf_pinned;
          Alcotest.test_case "at most 2.5 words per literal" `Quick test_cnf_words_per_literal;
          Alcotest.test_case "generation allocates at most 5 words per literal" `Quick
            test_generate_words_per_literal;
        ] );
      qsuite "constraints-prop" [ prop_constraint_soundness ];
      ( "serialize",
        [
          Alcotest.test_case "sample round-trip" `Quick test_serialize_roundtrip_sample;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          Alcotest.test_case "deep array nesting" `Quick test_serialize_deep_array_nesting_safe;
          Alcotest.test_case "file io" `Quick test_serialize_file_io;
          Alcotest.test_case "size shrinks" `Quick test_serialized_size_shrinks;
        ] );
      qsuite "serialize-prop"
        [
          prop_serialize_roundtrip;
          prop_serialize_truncation_safe;
          prop_serialize_bitflip_safe;
          prop_serialize_random_bytes_safe;
        ];
      ( "reducer",
        [
          Alcotest.test_case "identity on full assignment" `Quick
            test_reducer_full_assignment_identity;
          Alcotest.test_case "empty assignment" `Quick test_reducer_empty_assignment;
          Alcotest.test_case "stub bodies" `Quick test_reducer_stubs_code;
          Alcotest.test_case "extends reparenting" `Quick test_reducer_extends_reparent;
          Alcotest.test_case "ctor renumbering" `Quick test_reducer_ctor_renumbering;
        ] );
      qsuite "reducer-prop" [ prop_reducer_applier_is_fresh_apply ];
    ]
