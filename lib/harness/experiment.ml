open Lbr_logic
open Lbr_jvm

type strategy = Jreduce | Lossy_first | Lossy_last | Gbr

let strategy_name = function
  | Jreduce -> "j-reduce"
  | Lossy_first -> "lossy-first"
  | Lossy_last -> "lossy-last"
  | Gbr -> "gbr"

let all_strategies = [ Jreduce; Lossy_first; Lossy_last; Gbr ]

type outcome = {
  instance_id : string;
  strategy : strategy;
  ok : bool;
  sim_time : float;
  wall_time : float;
  predicate_runs : int;
  replayed_runs : int;
  classes0 : int;
  classes1 : int;
  bytes0 : int;
  bytes1 : int;
  items0 : int;
  items1 : int;
  lines0 : int;
  lines1 : int;
  timeline : (float * int * int) list;
}

module Run = Lbr_frontend.Run

(* ------------------------------------------------------------------ *)
(* J-Reduce: class-granularity dependency graph + binary reduction.   *)

let class_references pool (c : Classfile.cls) =
  let open Classfile in
  let acc = ref [] in
  let add name = if Classpool.mem pool name && name <> c.name then acc := name :: !acc in
  let add_ty ty = match Jtype.ref_name ty with Some n -> add n | None -> () in
  add c.super;
  List.iter add c.interfaces;
  List.iter (fun (f : field) -> add_ty f.f_type) c.fields;
  let add_insn = function
    | Invoke_virtual { owner; _ } | Invoke_interface { owner; _ } | Invoke_static { owner; _ } ->
        add owner
    | New_instance { cls; _ } -> add cls
    | Get_field { owner; _ } | Put_field { owner; _ } -> add owner
    | Check_cast t | Instance_of t | Load_const_class t -> add t
    | Upcast { from_; to_ } -> add from_; add to_
    | Arith | Load_store | Return_insn -> ()
  in
  List.iter
    (fun (m : meth) ->
      List.iter add_ty (m.m_ret :: m.m_params);
      List.iter add_insn m.m_body)
    c.methods;
  List.iter
    (fun (k : ctor) ->
      List.iter add_ty k.k_params;
      List.iter add_insn k.k_body)
    c.ctors;
  List.iter add c.annotations;
  List.iter add c.inner_classes;
  List.sort_uniq String.compare !acc

let restrict_classes pool keep_names =
  Classpool.classes pool
  |> List.filter (fun (c : Classfile.cls) -> List.mem c.Classfile.name keep_names)
  |> Classpool.of_classes

(* J-Reduce's view of a pool: one item per class, and one graph constraint
   per class reference.  Serialization, sizes and the predicate are the
   JVM frontend's. *)
module Classes = struct
  let id = "jvm-classes"
  let doc = "a JVM class pool, one item per class (J-Reduce's granularity)"
  let extensions = []

  type input = Classpool.t
  type ctx = string array

  let parse = Lbr_frontend.Jvm.parse
  let print = Lbr_frontend.Jvm.print
  let items = Lbr_frontend.Jvm.items
  let bytes = Lbr_frontend.Jvm.bytes

  let derive vpool pool =
    let names = Array.of_list (Classpool.names pool) in
    Array.iter (fun n -> ignore (Var.Pool.fresh vpool n : Var.t)) names;
    Ok names

  let universe names = Assignment.of_list (List.init (Array.length names) Fun.id)

  let constraints names pool =
    let index_of =
      let tbl = Hashtbl.create (Array.length names) in
      Array.iteri (fun i n -> Hashtbl.add tbl n i) names;
      Hashtbl.find tbl
    in
    Classpool.classes pool
    |> List.concat_map (fun (c : Classfile.cls) ->
           List.map
             (fun target -> Clause.edge (index_of c.Classfile.name) (index_of target))
             (class_references pool c))
    |> Cnf.make |> Result.ok

  let prepare names pool assignment =
    Lbr_logic.Perf.time "jvm.restrict-classes" @@ fun () ->
    restrict_classes pool (List.map (fun i -> names.(i)) (Assignment.to_list assignment))

  let predicate (_ : ctx) = Lbr_frontend.Jvm.tool_predicate
end

(* ------------------------------------------------------------------ *)
(* Binary reduction over the lossy graph encoding of a frontend's
   constraints (§4.3).  On J-Reduce's all-graph class constraints the
   encoding is the identity and [pick] is moot.                        *)

let closures ~pick vpool cnf =
  let edges, required = Lbr.Lossy.to_graph (Lbr.Lossy.encode cnf ~pick) in
  Lbr_baselines.Binary_reduction.Graph_encoding.closures ~num_vars:(Var.Pool.size vpool)
    ~edges ~required

let reduce ?hooks ?speculate strategy pool ~spec =
  let jvm = (module Lbr_frontend.Jvm : Lbr_frontend.Frontend.S
      with type input = Classpool.t and type ctx = Jvars.t)
  in
  match strategy with
  | Gbr -> Run.reduce_input ?hooks ?speculate jvm pool ~spec
  | Jreduce -> Run.reduce_closures ?hooks (module Classes) pool ~spec (closures ~pick:First_first)
  | Lossy_first -> Run.reduce_closures ?hooks jvm pool ~spec (closures ~pick:First_first)
  | Lossy_last -> Run.reduce_closures ?hooks jvm pool ~spec (closures ~pick:Last_last)

let run_with ?hooks ?speculate strategy (instance : Corpus.instance) =
  Lbr_obs.Trace.with_span "harness.instance"
    ~args:(fun () ->
      [
        ("instance", Lbr_obs.Trace.Str instance.instance_id);
        ("strategy", Lbr_obs.Trace.Str (strategy_name strategy));
      ])
  @@ fun () ->
  (* The predicate is resolved from the tool's name, so a variant of a
     built-in tool (e.g. one with injected faults) would be swapped for the
     clean tool; refuse it instead. *)
  if not (List.memq instance.tool Lbr_decompiler.Tool.all) then
    invalid_arg
      ("Experiment.run_with: " ^ instance.tool.name ^ " is not one of Tool.all");
  let pool = instance.benchmark.pool in
  match reduce ?hooks ?speculate strategy pool ~spec:instance.tool.name with
  | Error m -> invalid_arg ("Experiment.run_with: " ^ m)
  | Ok ((o : Run.outcome), final) ->
      ( {
          instance_id = instance.instance_id;
          strategy;
          ok = o.ok;
          sim_time = o.sim_time;
          wall_time = o.wall_time;
          predicate_runs = o.predicate_runs;
          replayed_runs = o.replayed_runs;
          classes0 = o.items0;
          classes1 = o.items1;
          bytes0 = o.bytes0;
          bytes1 = o.bytes1;
          items0 = Size.items pool;
          items1 = Size.items final;
          lines0 = Lbr_decompiler.Source.line_count pool;
          lines1 = Lbr_decompiler.Source.line_count final;
          timeline = o.timeline;
        },
        final )

let run strategy instance = fst (run_with strategy instance)

(* Instances are independent — each run builds its own variable pool,
   constraints, predicate, and driver — so fanning them across a domain
   pool changes nothing but wall clock.  [jobs = 1] deliberately bypasses
   the pool: it is byte-for-byte the sequential path above. *)
let run_corpus_full ?(jobs = 1) ?(hooks = fun (_ : Corpus.instance) -> Run.default_hooks)
    ?speculate strategy instance_list =
  if jobs < 1 then invalid_arg "Experiment.run_corpus: jobs must be >= 1";
  let run_one instance =
    run_with ~hooks:(hooks instance) ?speculate strategy instance
  in
  if jobs = 1 then List.map run_one instance_list
  else
    Lbr_runtime.Pool.with_pool ~jobs (fun pool ->
        Lbr_runtime.Pool.map_list pool run_one instance_list)

let run_corpus ?(jobs = 1) strategy instance_list =
  List.map fst (run_corpus_full ~jobs strategy instance_list)
