(* Tests for the simulated decompilers: determinism, monotonicity of the
   error sets along reduction chains, the requires-items contract, and the
   pseudo-source backend. *)

open Lbr_logic
open Lbr_sat
open Lbr_jvm

let gen_pool seed =
  Lbr_workload.Generator.generate ~seed
    { Lbr_workload.Generator.default_profile with classes = 30 }

let test_determinism () =
  let pool = gen_pool 5 in
  List.iter
    (fun tool ->
      let e1 = Lbr_decompiler.Tool.errors tool pool in
      let e2 = Lbr_decompiler.Tool.errors tool pool in
      Alcotest.(check (list string))
        (Lbr_decompiler.Tool.(tool.name) ^ " deterministic")
        e1 e2)
    Lbr_decompiler.Tool.all

let test_errors_sorted_unique () =
  let pool = gen_pool 11 in
  List.iter
    (fun tool ->
      let errors = Lbr_decompiler.Tool.errors tool pool in
      Alcotest.(check (list string)) "sorted + deduplicated"
        (List.sort_uniq String.compare errors)
        errors)
    Lbr_decompiler.Tool.all

(* The requires contract: removing all items listed in an instance's
   [requires] makes that instance's message disappear. *)
let test_requires_items_sufficient_to_kill () =
  let pool = gen_pool 7 in
  let vpool = Var.Pool.create () in
  let jv = Jvars.derive vpool pool in
  let checked = ref 0 in
  List.iter
    (fun tool ->
      List.iter
        (fun (inst : Lbr_decompiler.Pattern.instance) ->
          let removable = List.filter_map (Jvars.var_opt jv) inst.requires in
          if removable <> [] then begin
            incr checked;
            let phi =
              List.fold_left (fun acc v -> Assignment.remove v acc) (Jvars.all jv) removable
            in
            let reduced = Reducer.apply jv pool phi in
            let still =
              List.exists
                (fun (i : Lbr_decompiler.Pattern.instance) -> i.message = inst.message)
                (Lbr_decompiler.Tool.instances tool reduced)
            in
            if still then Alcotest.failf "removing requires should kill %s" inst.message
          end)
        (Lbr_decompiler.Tool.instances tool pool))
    Lbr_decompiler.Tool.all;
  Alcotest.(check bool) "exercised at least one instance" true (!checked > 0)

(* Monotonicity along a random reduction chain: shrinking the kept set can
   only lose baseline messages monotonically — once a message is gone from
   some sub-input, the predicate "all baseline messages present" stays false
   for all smaller sub-inputs of that chain. *)
let prop_monotone_on_chains =
  QCheck.Test.make ~count:40 ~name:"baseline-preservation is monotone on valid chains"
    QCheck.(make Gen.(pair (int_range 1 500) (int_range 1 500)))
    (fun (pool_seed, chain_seed) ->
      let pool = gen_pool pool_seed in
      let vpool = Var.Pool.create () in
      let jv = Jvars.derive vpool pool in
      let cnf = Constraints.generate jv pool in
      let order = Lbr_sat.Order.by_creation vpool in
      let universe = Jvars.all jv in
      let rng = Random.State.make [| chain_seed |] in
      List.for_all
        (fun tool ->
          match Lbr_decompiler.Tool.errors tool pool with
          | [] -> true
          | baseline ->
              let errors_of = Lbr_decompiler.Tool.prepare tool pool in
              let holds phi =
                let errors = errors_of (Reducer.apply jv pool phi) in
                List.for_all (fun m -> List.mem m errors) baseline
              in
              (* build a decreasing chain of valid sub-inputs via MSA with
                 shrinking required sets *)
              let base_req =
                Assignment.filter (fun _ -> Random.State.float rng 1.0 < 0.3) universe
              in
              let smaller_req =
                Assignment.filter (fun _ -> Random.State.float rng 1.0 < 0.5) base_req
              in
              let closure req =
                Msa.compute cnf ~order ~universe ~required:req ()
                |> Option.value ~default:universe
              in
              let big = closure base_req and small = closure smaller_req in
              (* small ⊆ big by monotonicity of the MSA fixpoint *)
              (not (Assignment.subset small big)) || (not (holds small)) || holds big)
        Lbr_decompiler.Tool.all)

(* Byte-identity pin: every sub-pool GBR probes on a few fixed-seed
   programs, run through all three tools; the digest covers each probe's
   sorted error list.  Recorded once and never edited: any change to what
   the tools report on any probed sub-pool moves it. *)
let probed_errors_digest = "905c1397a85ccb6ffd6b12e70427e425"

let test_probed_errors_pinned () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun seed ->
      let pool =
        Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes:60)
      in
      List.iter
        (fun (tool : Lbr_decompiler.Tool.t) ->
          match Lbr_decompiler.Tool.errors tool pool with
          | [] -> ()
          | baseline ->
              let vpool = Var.Pool.create () in
              let jv = Jvars.derive vpool pool in
              let cnf = Constraints.generate jv pool in
              let predicate =
                Lbr.Predicate.make (fun phi ->
                    let sub = Reducer.apply jv pool phi in
                    let mine = ref [] in
                    List.iter
                      (fun (t : Lbr_decompiler.Tool.t) ->
                        let errors = Lbr_decompiler.Tool.errors t sub in
                        if t.name = tool.name then mine := errors;
                        Buffer.add_string buf t.name;
                        List.iter (fun m -> Buffer.add_char buf '\t'; Buffer.add_string buf m) errors;
                        Buffer.add_char buf '\n')
                      Lbr_decompiler.Tool.all;
                    List.for_all (fun m -> List.mem m !mine) baseline)
              in
              let problem =
                Lbr.Problem.make ~pool:vpool ~universe:(Jvars.all jv) ~constraints:cnf
                  ~predicate
              in
              match Lbr.Gbr.reduce problem ~order:(Order.by_creation vpool) with
              | Ok _ -> ()
              | Error _ -> Alcotest.failf "seed %d, %s: GBR failed" seed tool.name)
        Lbr_decompiler.Tool.all)
    [ 4; 17; 23 ];
  Alcotest.(check bool) "probes recorded" true (Buffer.length buf > 0);
  Alcotest.(check string) "digest of probed errors" probed_errors_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A random sub-pool of [pool], built by the reducer that builds every
   probed sub-pool: it drops classes, constructors (renumbering the rest)
   and method and constructor code (stubbing the body) at random rates,
   and other items less often. *)
let random_sub_pool jv pool rng =
  let drop = 0.1 +. Random.State.float rng 0.5 in
  let phi =
    Assignment.filter
      (fun v ->
        let rate =
          match Jvars.item_of jv v with
          | Item.Class _ -> drop /. 4.
          | Item.Ctor _ | Item.Ctor_code _ | Item.Code _ -> drop
          | _ -> drop /. 2.
        in
        Random.State.float rng 1.0 >= rate)
      (Jvars.all jv)
  in
  Reducer.apply jv pool phi

let prop_prepared_equals_self =
  QCheck.Test.make ~count:150 ~name:"prepared on the original = prepared on the sub-pool"
    QCheck.(make Gen.(pair (int_range 1 10_000) (int_range 20 80)))
    (fun (seed, classes) ->
      let pool =
        Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes)
      in
      let jv = Jvars.derive (Var.Pool.create ()) pool in
      let rng = Random.State.make [| seed |] in
      let subs = List.init 4 (fun _ -> random_sub_pool jv pool rng) in
      List.for_all
        (fun tool ->
          let prepared = Lbr_decompiler.Tool.prepare tool pool in
          List.for_all
            (fun sub -> prepared sub = Lbr_decompiler.Tool.prepare tool sub sub)
            subs)
        Lbr_decompiler.Tool.all)

(* The property above only means something if its sub-pools renumber
   constructors and stub bodies. *)
let test_random_sub_pools_reduce_members () =
  let renumbered = ref 0 and stubbed = ref 0 in
  for seed = 1 to 5 do
    let pool =
      Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes:40)
    in
    let jv = Jvars.derive (Var.Pool.create ()) pool in
    let sub = random_sub_pool jv pool (Random.State.make [| seed |]) in
    Classpool.fold
      (fun (c : Classfile.cls) () ->
        match Classpool.find pool c.name with
        | None -> Alcotest.failf "%s is not in the original" c.name
        | Some o ->
            if List.length c.ctors < List.length o.ctors && c.ctors <> [] then incr renumbered;
            List.iter
              (fun (m : Classfile.meth) ->
                match Classfile.find_method o m.m_name with
                | Some om when om.m_body <> m.m_body && m.m_body = [ Classfile.Return_insn ] ->
                    incr stubbed
                | Some _ | None -> ())
              c.methods)
      sub ()
  done;
  Alcotest.(check bool) "some class keeps fewer constructors" true (!renumbered > 0);
  Alcotest.(check bool) "some method body is stubbed" true (!stubbed > 0)

(* [Run] shares one prepared check between the driver and its speculative
   workers: two domains running it at once on the same sub-pools must see
   what one domain sees. *)
let test_prepared_shared_across_domains () =
  let pool =
    Lbr_workload.Generator.generate ~seed:13 (Lbr_workload.Generator.njr_profile ~classes:80)
  in
  let jv = Jvars.derive (Var.Pool.create ()) pool in
  let rng = Random.State.make [| 13 |] in
  let subs = List.init 120 (fun _ -> random_sub_pool jv pool rng) in
  let verdict =
    match Lbr_frontend.Jvm.tool_predicate pool ~spec:"" with
    | Ok check -> check
    | Error m -> Alcotest.fail m
  in
  let tools = List.map (fun t -> Lbr_decompiler.Tool.prepare t pool) Lbr_decompiler.Tool.all in
  let run_all () =
    List.map (fun sub -> (verdict sub, List.map (fun errors -> errors sub) tools)) subs
  in
  let sequential = run_all () in
  Alcotest.(check bool) "some sub-pool keeps the bug" true (List.exists fst sequential);
  let go = Atomic.make false in
  let spawn () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        run_all ())
  in
  let d1 = spawn () and d2 = spawn () in
  Atomic.set go true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "first domain = sequential" true (r1 = sequential);
  Alcotest.(check bool) "second domain = sequential" true (r2 = sequential)

let test_source_backend () =
  let pool = gen_pool 3 in
  let text = Lbr_decompiler.Source.decompile pool in
  Alcotest.(check bool) "non-empty" true (String.length text > 500);
  let lines = Lbr_decompiler.Source.line_count pool in
  Alcotest.(check bool) "line count plausible" true (lines > 50);
  (* decompiled source shrinks when the pool shrinks *)
  let vpool = Var.Pool.create () in
  let jv = Jvars.derive vpool pool in
  let half =
    Assignment.filter (fun v -> v mod 2 = 0) (Jvars.all jv)
  in
  let reduced = Reducer.apply jv pool half in
  Alcotest.(check bool) "fewer lines after reduction" true
    (Lbr_decompiler.Source.line_count reduced < lines)

let test_tools_have_distinct_profiles () =
  let names =
    List.map (fun (t : Lbr_decompiler.Tool.t) -> t.name) Lbr_decompiler.Tool.all
  in
  Alcotest.(check int) "three tools" 3 (List.length (List.sort_uniq compare names));
  List.iter
    (fun (t : Lbr_decompiler.Tool.t) ->
      Alcotest.(check bool) (t.name ^ " has patterns") true (t.patterns <> []))
    Lbr_decompiler.Tool.all

let test_pattern_catalog () =
  let names = List.map (fun (p : Lbr_decompiler.Pattern.t) -> p.name) Lbr_decompiler.Pattern.all in
  Alcotest.(check int) "eight patterns, unique names" 8
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check string) "find roundtrip" name (Lbr_decompiler.Pattern.find name).name)
    names

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lbr_decompiler"
    [
      ( "tools",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "sorted unique errors" `Quick test_errors_sorted_unique;
          Alcotest.test_case "distinct profiles" `Quick test_tools_have_distinct_profiles;
          Alcotest.test_case "pattern catalog" `Quick test_pattern_catalog;
          Alcotest.test_case "probed sub-pool errors pinned" `Quick test_probed_errors_pinned;
        ] );
      ( "contract",
        [
          Alcotest.test_case "removing requires kills the message" `Quick
            test_requires_items_sufficient_to_kill;
        ] );
      qsuite "monotonicity" [ prop_monotone_on_chains ];
      ( "prepared",
        [
          Alcotest.test_case "random sub-pools renumber and stub" `Quick
            test_random_sub_pools_reduce_members;
          Alcotest.test_case "one prepared check, two domains" `Quick
            test_prepared_shared_across_domains;
          QCheck_alcotest.to_alcotest ~long:false prop_prepared_equals_self;
        ] );
      ( "source",
        [ Alcotest.test_case "pseudo-java backend" `Quick test_source_backend ] );
    ]
