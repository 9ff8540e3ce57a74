(* Seeded input generation.  The same seed gives byte-identical inputs.
   MD5 fingerprints pin them (the canary below, and each workload's full
   set at seed 42 in lbr_bench.ml), because the generators (lib/workload,
   Lbr_harness.Corpus, the LBRC and DIMACS printers) live outside the
   benchmark and a silent change there would make two runs incomparable. *)

type t = {
  id : string;
  spec : string;  (** the frontend's predicate spec: decompiler name or [""] *)
  text : string;  (** the serialized input, as the reducer receives it *)
  check : string -> (unit, string) result;
      (** independent output check; it holds the input's text, not its
          parsed form, so the inputs add little to the heap the timed
          region's collector has to trace *)
}

(* Every program has the corpus's mean size.  Per-input time grows about
   quadratically with classes, so drawing sizes from the corpus's
   log-normal would make one run's mean depend on a few large draws; at a
   fixed size the per-input spread is about 0.4 of the mean. *)
let classes = 150

(* One program per seed offset, reduced against every simulated decompiler
   that is buggy on it: 1 to 3 inputs per program. *)
let jvm ~seed ~programs =
  List.concat
    (List.init programs (fun i ->
         let bench_seed = (seed * 10_000) + i in
         let pool =
           Lbr_workload.Generator.generate ~seed:bench_seed
             (Lbr_workload.Generator.njr_profile ~classes)
         in
         let text = Lbr_jvm.Serialize.to_bytes pool in
         Lbr_harness.Corpus.instances
           [ { Lbr_harness.Corpus.bench_id = Printf.sprintf "p%04d" i; seed = bench_seed; pool } ]
         |> List.map (fun (inst : Lbr_harness.Corpus.instance) ->
                {
                  id = inst.instance_id;
                  spec = inst.tool.name;
                  text;
                  check = Checks.jvm ~input:text ~tool:inst.tool ~baseline:inst.baseline_errors;
                })))

let cnf_vars = 30
let cnf_clauses = 150

(* A random 3-CNF with distinct clauses, [c lbr implies] on 20% of its
   clauses and two [c lbr keep]s; redrawn until the reference DPLL proves
   it UNSAT. *)
let cnf_formula ~seed j =
  let rec attempt a =
    let rng = Random.State.make [| seed; j; a; 0xc4f |] in
    let seen = Hashtbl.create cnf_clauses in
    let rec clause () =
      let rec vars acc =
        if List.length acc = 3 then acc
        else
          let v = 1 + Random.State.int rng cnf_vars in
          if List.mem v acc then vars acc else vars (v :: acc)
      in
      let lits =
        Array.of_list (List.map (fun v -> if Random.State.bool rng then v else -v) (vars []))
      in
      let key = List.sort compare (Array.to_list lits) in
      if Hashtbl.mem seen key then clause ()
      else begin
        Hashtbl.add seen key ();
        lits
      end
    in
    let clauses = Array.init cnf_clauses (fun _ -> clause ()) in
    let pick_other i =
      let j = 1 + Random.State.int rng (cnf_clauses - 1) in
      if j >= i then j + 1 else j
    in
    let implications =
      List.filter_map
        (fun i -> if Random.State.float rng 1.0 < 0.2 then Some (i, pick_other i) else None)
        (List.init cnf_clauses succ)
    in
    let k = 1 + Random.State.int rng cnf_clauses in
    let keeps = [ k; pick_other k ] in
    if Dpll.satisfiable ~num_vars:cnf_vars clauses then attempt (a + 1)
    else { Lbr_frontend.Dimacs.num_vars = cnf_vars; clauses; keeps; implications }
  in
  attempt 0

let cnf ~seed ~count =
  List.init count (fun j ->
      let formula = cnf_formula ~seed j in
      {
        id = Printf.sprintf "f%04d" j;
        spec = "";
        text = Lbr_frontend.Dimacs.print formula;
        check = Checks.cnf formula;
      })

let fingerprint inputs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      Buffer.add_string buf (Digest.string (String.concat "\000" [ i.id; i.spec; i.text ])))
    inputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One program and one formula at seed 42, checked on every run whatever
   its seed, so generator drift aborts any run rather than only seed-42
   runs. *)
let canary_pin = "15f50d1249dd121104c29f04c20ecc41"

let canary () = fingerprint (jvm ~seed:42 ~programs:1 @ cnf ~seed:42 ~count:1)
