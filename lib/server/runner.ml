module Experiment = Lbr_harness.Experiment
module Oracle = Lbr_runtime.Oracle
module Run = Lbr_frontend.Run

let reduce (ctx : Scheduler.runner_ctx) (spec : Wire.spec) =
  let config =
    {
      Oracle.default_config with
      crash_policy = spec.crash_policy;
      retries = spec.retries;
      transient = (function Lbr_decompiler.Tool.Transient_failure _ -> true | _ -> false);
    }
  in
  let oracle = Oracle.make ~config ~name:ctx.job_id () in
  let evaluate ~key thunk =
    match Hashtbl.find_opt ctx.replay key with
    | Some cached -> Run.Replayed cached
    | None ->
        let retries0 = Oracle.retries_used oracle in
        let t0 = Unix.gettimeofday () in
        let ok = Oracle.run oracle ~key thunk in
        ctx.record ~key ~ok
          ~latency:(Unix.gettimeofday () -. t0)
          ~retries:(Oracle.retries_used oracle - retries0);
        Run.Fresh ok
  in
  let hooks =
    {
      Run.on_improvement = Some ctx.progress;
      should_stop = Some ctx.should_stop;
      evaluate = Some evaluate;
      peek = Some (fun ~key -> Hashtbl.find_opt ctx.replay key);
    }
  in
  let frontend = if spec.frontend = "" then "jvm" else spec.frontend in
  let reduced =
    match (Lbr_frontend.Registry.find frontend, spec.strategy) with
    | (Error _ as e), _ -> e
    | Ok packed, Experiment.Gbr ->
        Run.reduce_text ~hooks packed ~text:spec.pool_bytes ~spec:spec.tool
    | Ok _, strategy when frontend = "jvm" -> (
        match Lbr_jvm.Serialize.of_bytes spec.pool_bytes with
        | Error m -> Error ("jvm: unparsable input: " ^ m)
        | Ok pool ->
            Experiment.reduce ~hooks strategy pool ~spec:spec.tool
            |> Result.map (fun (outcome, final) -> (outcome, Lbr_jvm.Serialize.to_bytes final)))
    | Ok _, _ ->
        Error (Printf.sprintf "frontend %S only supports the gbr strategy" spec.frontend)
  in
  Result.map
    (fun ((outcome : Run.outcome), printed) ->
      ( {
          Wire.ok = outcome.ok;
          predicate_runs = outcome.predicate_runs;
          replayed_runs = outcome.replayed_runs;
          tool_executions = Oracle.executions oracle;
          oracle_retries = Oracle.retries_used oracle;
          oracle_crashes = Oracle.crashes oracle;
          sim_time = outcome.sim_time;
          wall_time = outcome.wall_time;
          classes0 = outcome.items0;
          classes1 = outcome.items1;
          bytes0 = outcome.bytes0;
          bytes1 = outcome.bytes1;
        },
        printed ))
    reduced
