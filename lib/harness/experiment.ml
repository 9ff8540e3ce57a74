open Lbr_jvm

module Run = Lbr_frontend.Run

type strategy = Run.strategy = Gbr | Jreduce | Lossy_first | Lossy_last

let strategy_name = Run.strategy_name
let all_strategies = Run.all_strategies

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
  let spec = instance.tool.name in
  (* The timeline is recorded here, from the improvements the driver
     reports, ahead of any hook the caller passes. *)
  let timeline = ref [] in
  let hooks = Option.value hooks ~default:Run.default_hooks in
  let on_improvement sim classes bytes =
    timeline := (sim, classes, bytes) :: !timeline;
    Option.iter (fun f -> f sim classes bytes) hooks.on_improvement
  in
  let hooks = { hooks with on_improvement = Some on_improvement } in
  let reduced =
    match strategy with
    | Jreduce -> Run.reduce_input ~hooks ~strategy (module Lbr_frontend.Jvm_classes) pool ~spec
    | _ -> Run.reduce_input ~hooks ~strategy ?speculate (module Lbr_frontend.Jvm) pool ~spec
  in
  match reduced with
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
          timeline = List.rev !timeline;
        },
        final )

let run strategy instance = fst (run_with strategy instance)

(* Instances are independent — each run builds its own variable pool,
   constraints, predicate, and driver — so fanning them across a domain
   pool changes nothing but wall clock.  [jobs = 1] deliberately bypasses
   the pool: it is byte-for-byte the sequential path above. *)
let run_corpus_full ?(jobs = 1) ?speculate strategy instance_list =
  if jobs < 1 then invalid_arg "Experiment.run_corpus: jobs must be >= 1";
  let run_one instance = run_with ?speculate strategy instance in
  if jobs = 1 then List.map run_one instance_list
  else
    Lbr_runtime.Pool.with_pool ~jobs (fun pool ->
        Lbr_runtime.Pool.map_list pool run_one instance_list)

let run_corpus ?(jobs = 1) strategy instance_list =
  List.map fst (run_corpus_full ~jobs strategy instance_list)
