(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the simulated corpus, and times the core
   components with Bechamel.

   Usage:
     dune exec bench/main.exe                     # default scale (a few minutes)
     dune exec bench/main.exe -- --full           # paper scale (94 programs)
     dune exec bench/main.exe -- --programs 20 --mean-classes 80
     dune exec bench/main.exe -- --skip-micro | --skip-tables

   Absolute times are on a simulated clock (see Lbr_frontend.Run);
   the paper's shapes — who wins, by what factor, where the curves sit —
   are the reproduction target.  EXPERIMENTS.md records paper-vs-measured
   for every entry printed here. *)

open Lbr_logic
open Lbr_harness

type options = {
  programs : int;
  mean_classes : int;
  seed : int;
  jobs : int;
  run_tables : bool;
  run_micro : bool;
  json_path : string option;
  trace_path : string option;
  prometheus_path : string option;
}

let parse_options () =
  let options =
    ref
      {
        programs = 30;
        mean_classes = 60;
        seed = 42;
        jobs = 1;
        run_tables = true;
        run_micro = true;
        json_path = None;
        trace_path = None;
        prometheus_path = None;
      }
  in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        options := { !options with programs = 94; mean_classes = 150 };
        go rest
    | "--programs" :: n :: rest ->
        options := { !options with programs = int_of_string n };
        go rest
    | "--mean-classes" :: n :: rest ->
        options := { !options with mean_classes = int_of_string n };
        go rest
    | "--seed" :: n :: rest ->
        options := { !options with seed = int_of_string n };
        go rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | None -> failwith (Printf.sprintf "--jobs: %S is not an integer" n)
        | Some jobs when jobs < 1 ->
            failwith (Printf.sprintf "--jobs: %d is not a positive integer (expected >= 1)" jobs)
        | Some jobs -> options := { !options with jobs });
        go rest
    | "--skip-micro" :: rest ->
        options := { !options with run_micro = false };
        go rest
    | "--skip-tables" :: rest ->
        options := { !options with run_tables = false };
        go rest
    | "--json" :: path :: rest ->
        (* fail before the (possibly long) run, not at write time *)
        (try close_out (open_out path) with Sys_error msg -> failwith msg);
        options := { !options with json_path = Some path };
        go rest
    | "--trace" :: path :: rest ->
        (try close_out (open_out path) with Sys_error msg -> failwith msg);
        options := { !options with trace_path = Some path };
        go rest
    | "--prometheus" :: path :: rest ->
        (try close_out (open_out path) with Sys_error msg -> failwith msg);
        options := { !options with prometheus_path = Some path };
        go rest
    | [ (("--programs" | "--mean-classes" | "--seed" | "--jobs" | "--json" | "--trace"
         | "--prometheus") as flag) ] ->
        failwith (flag ^ " requires a value")
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  (* a clean one-line usage error, not an uncaught-exception backtrace *)
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure msg ->
     prerr_endline ("bench: " ^ msg);
     exit 2);
  !options

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

(* ================================================================== *)
(* E1: the running example (§2, §4.5, Figures 1 and 2)                 *)

let table_e1 () =
  header "E1: Running example (Figures 1-2, §4.5)";
  let model = Lbr_fji.Example.model () in
  let universe = Lbr_fji.Vars.all model.vars in
  let over = Assignment.to_list universe in
  Printf.printf "variables |V(P)|:            %d   (paper: 20)\n" (Assignment.cardinal universe);
  let no_req =
    Cnf.make
      (List.filter (fun c -> Clause.kind c <> Clause.Unit_pos) (Cnf.clauses model.constraints))
  in
  Printf.printf "valid sub-inputs (no req):   %d (paper: 6,766 via sharpSAT)\n"
    (Model_count.count no_req ~over);
  Printf.printf "valid sub-inputs (with req): %d\n"
    (Model_count.count model.constraints ~over);
  let predicate = Lbr.Predicate.make (Lbr_fji.Example.buggy model.vars) in
  let problem =
    Lbr.Problem.make ~pool:model.pool ~universe ~constraints:model.constraints ~predicate
  in
  match Lbr.Gbr.reduce problem ~order:(Lbr_sat.Order.by_creation model.pool) with
  | Error _ -> print_endline "GBR FAILED"
  | Ok (result, stats) ->
      Printf.printf "GBR predicate runs:          %d   (paper: 11; order-dependent)\n"
        stats.predicate_runs;
      Printf.printf "GBR result size:             %d variables (paper: 11, optimal)\n"
        (Assignment.cardinal result);
      Printf.printf "matches the optimum:         %b\n"
        (Assignment.equal result (Lbr_fji.Example.optimal model.vars));
      let reduced = Lbr_fji.Reduce.reduce model.vars model.program result in
      print_endline "reduced program (Figure 1b):";
      print_endline (Lbr_fji.Pretty.program_to_string reduced)

(* ================================================================== *)
(* Corpus + outcomes shared by E2/E3/E5                                *)

(* Effective parallelism of one strategy sweep: process CPU seconds (all
   domains) over elapsed wall clock.  Sequentially this sits just below 1;
   with N workers on >= N free cores it approaches N.  The true cross-run
   speedup is elapsed(jobs=1) / elapsed(jobs=N) over two invocations —
   this per-run figure tracks it without double-counting wait time when
   cores are oversubscribed.

   The ratio is only meaningful when parallelism was requested AND the
   host can deliver it: with jobs=1, or on a single-core host, CPU/wall
   sits just below 1.0 (~0.97 of scheduler noise) and reporting it as a
   "speedup" pollutes trend dashboards with a phantom slowdown.  Those
   runs report no speedup (null in --json); host_cores in the dump lets
   the reader see why. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let speedup_measurable jobs = jobs > 1 && Domain.recommended_domain_count () > 1

let run_corpus options =
  let t0 = Unix.gettimeofday () in
  let benchmarks =
    Corpus.build ~seed:options.seed ~programs:options.programs
      ~mean_classes:options.mean_classes
  in
  let instances = Corpus.instances benchmarks in
  Printf.printf "\n[corpus] %d programs, %d reduction instances (%.1fs to build)\n"
    (List.length benchmarks) (List.length instances)
    (Unix.gettimeofday () -. t0);
  (* Corpus generation exercises the same instrumented phases as the runs
     (baseline error computation, sanity reductions), so the counter window
     for the strategy tables opens here, after the corpus is built. *)
  let counters_before = Perf.aggregate () in
  (* The wall time a strategy row reports is normalised by the host-speed
     factor of the e2e benchmark's reference kernel ([Speed], the same
     file): on a shared host the CPU's speed drifts by tens of percent, and
     a raw wall figure then fails any fixed band for every tree alike.  As
     in the e2e benchmark, the kernel is sampled before each instance
     (sequential sweeps; a parallel sweep is sampled around the whole
     run), and the sweep's wall time, sampling excluded, is divided by the
     median.  Speedups stay ratios of raw times. *)
  let outcomes =
    List.map
      (fun strategy ->
        let speed = Speed.create () in
        let t1 = Unix.gettimeofday () in
        let c1 = cpu_seconds () in
        let sampling = ref 0.0 in
        let sample () = sampling := !sampling +. Speed.sample speed in
        let outcomes =
          if options.jobs = 1 then
            List.concat_map
              (fun instance ->
                sample ();
                Experiment.run_corpus strategy [ instance ])
              instances
          else begin
            sample ();
            let os = Experiment.run_corpus ~jobs:options.jobs strategy instances in
            sample ();
            os
          end
        in
        let wall = Unix.gettimeofday () -. t1 -. !sampling in
        let speedup =
          if speedup_measurable options.jobs && wall > 0.0 then
            (cpu_seconds () -. c1) /. wall
          else nan
        in
        let factor = Speed.factor speed in
        let norm_wall = wall /. factor in
        if options.jobs = 1 then
          Printf.printf "[run] %-12s done in %.1fs wall (%.3fs normalised, host x%.2f)\n%!"
            (Experiment.strategy_name strategy)
            wall norm_wall factor
        else if Float.is_nan speedup then
          Printf.printf
            "[run] %-12s done in %.1fs wall (%.3fs normalised, host x%.2f; jobs=%d, speedup \
             n/a on 1 core)\n%!"
            (Experiment.strategy_name strategy)
            wall norm_wall factor options.jobs
        else
          Printf.printf
            "[run] %-12s done in %.1fs wall (%.3fs normalised, host x%.2f; jobs=%d, speedup \
             x%.1f)\n%!"
            (Experiment.strategy_name strategy)
            wall norm_wall factor options.jobs speedup;
        (strategy, (norm_wall, speedup, outcomes)))
      Experiment.all_strategies
  in
  (* Intra-instance speedup: the same GBR sweep run sequentially and with
     speculative predicate pipelining ([--jobs] worker domains inside each
     reduction, instances processed one at a time).  The two sweeps must
     be byte-identical outcome-for-outcome and pool-for-pool — that gate
     runs whenever [--jobs > 1], even on one core, so CI exercises the
     speculation path; the wall-clock ratio is only reported when the
     host can actually run domains in parallel (the PR 6 honesty
     convention: a 1-core "speedup" is scheduler noise, not signal). *)
  let intra =
    if options.jobs <= 1 then nan
    else begin
      let strip (o : Experiment.outcome) = { o with Experiment.wall_time = 0.0 } in
      let t_seq = Unix.gettimeofday () in
      let seq = Experiment.run_corpus_full Experiment.Gbr instances in
      let seq_wall = Unix.gettimeofday () -. t_seq in
      let t_spec = Unix.gettimeofday () in
      let spec =
        Lbr_runtime.Pool.with_pool ~jobs:options.jobs @@ fun pool ->
        Experiment.run_corpus_full ~speculate:pool Experiment.Gbr instances
      in
      let spec_wall = Unix.gettimeofday () -. t_spec in
      let identical =
        List.length seq = List.length spec
        && List.for_all2
             (fun (o1, p1) (o2, p2) ->
               strip o1 = strip o2
               && String.equal (Lbr_jvm.Serialize.to_bytes p1) (Lbr_jvm.Serialize.to_bytes p2))
             seq spec
      in
      if not identical then begin
        prerr_endline
          "[run] FATAL: speculative GBR diverged from sequential GBR on the corpus";
        exit 1
      end;
      if speedup_measurable options.jobs && spec_wall > 0.0 then begin
        let intra = seq_wall /. spec_wall in
        Printf.printf "[run] %-12s intra-instance speculation x%.2f (%.1fs -> %.1fs, jobs=%d)\n%!"
          "gbr" intra seq_wall spec_wall options.jobs;
        intra
      end
      else begin
        Printf.printf
          "[run] %-12s speculative sweep byte-identical (%.1fs seq -> %.1fs spec, jobs=%d, \
           intra speedup n/a on 1 core)\n%!"
          "gbr" seq_wall spec_wall options.jobs;
        nan
      end
    end
  in
  (benchmarks, instances, outcomes, intra, counters_before)

let outcomes_of strategy outcomes =
  let _, _, os = List.assoc strategy outcomes in
  os

(* ================================================================== *)
(* E4: corpus statistics (§5 "Statistics")                             *)

let table_e4 benchmarks instances =
  header "E4: Corpus statistics (geometric means; §5 'Statistics')";
  let stats = Corpus.stats benchmarks instances in
  Printf.printf "%-28s %12s %12s\n" "metric" "measured" "paper";
  Printf.printf "%-28s %12d %12d\n" "programs" stats.programs 94;
  Printf.printf "%-28s %12d %12d\n" "reduction instances" stats.instance_count 227;
  Printf.printf "%-28s %12.0f %12d\n" "classes" stats.geo_classes 184;
  Printf.printf "%-28s %11.0fK %11s" "size (bytes)" (stats.geo_bytes /. 1024.) "285K";
  print_newline ();
  Printf.printf "%-28s %12.1f %12.1f\n" "compiler errors" stats.geo_errors 9.2;
  Printf.printf "%-28s %11.1fk %11.1fk\n" "reducible items" (stats.geo_items /. 1000.) 2.9;
  Printf.printf "%-28s %11.1fk %11.1fk\n" "model clauses" (stats.geo_clauses /. 1000.) 8.7;
  Printf.printf "%-28s %11.1f%% %11.1f%%\n" "graph-edge clauses"
    (100. *. stats.mean_graph_fraction) 97.5

(* ================================================================== *)
(* E2: Figure 8a — CDFs of time and final relative size + geo-means    *)

let cdf_row values thresholds =
  List.map (fun t -> Stats.fraction_below values t) thresholds

let print_cdf name thresholds fmt rows =
  subheader name;
  Printf.printf "%-12s" "reducer";
  List.iter (fun t -> Printf.printf " %8s" (fmt t)) thresholds;
  print_newline ();
  List.iter
    (fun (label, fractions) ->
      Printf.printf "%-12s" label;
      List.iter (fun f -> Printf.printf " %7.0f%%" (100. *. f)) fractions;
      print_newline ())
    rows

let table_e2 outcomes =
  header "E2: Figure 8a — cumulative frequencies and geometric means";
  let our = outcomes_of Experiment.Gbr outcomes in
  let jreduce = outcomes_of Experiment.Jreduce outcomes in
  let times os = List.map (fun (o : Experiment.outcome) -> o.sim_time) os in
  let class_ratios os =
    List.map
      (fun (o : Experiment.outcome) -> float_of_int o.classes1 /. float_of_int o.classes0)
      os
  in
  let byte_ratios os =
    List.map (fun (o : Experiment.outcome) -> float_of_int o.bytes1 /. float_of_int o.bytes0) os
  in
  let time_grid = [ 60.; 300.; 900.; 1800.; 3600.; 7200.; 36000. ] in
  print_cdf "time spent (simulated s)" time_grid
    (fun t -> Printf.sprintf "<=%.0fm" (t /. 60.))
    [
      ("our reducer", cdf_row (times our) time_grid);
      ("j-reduce", cdf_row (times jreduce) time_grid);
    ];
  let size_grid = [ 0.025; 0.05; 0.10; 0.20; 0.40; 0.60; 1.0 ] in
  print_cdf "final relative size (classes)" size_grid
    (fun s -> Printf.sprintf "<=%.0f%%" (100. *. s))
    [
      ("our reducer", cdf_row (class_ratios our) size_grid);
      ("j-reduce", cdf_row (class_ratios jreduce) size_grid);
    ];
  print_cdf "final relative size (bytes)" size_grid
    (fun s -> Printf.sprintf "<=%.0f%%" (100. *. s))
    [
      ("our reducer", cdf_row (byte_ratios our) size_grid);
      ("j-reduce", cdf_row (byte_ratios jreduce) size_grid);
    ];
  subheader "geometric means (the dots of Figure 8a)";
  let our_s = Stats.summarize our and jr_s = Stats.summarize jreduce in
  Printf.printf "%-22s %14s %14s %22s\n" "metric" "our reducer" "j-reduce" "paper (ours/JR)";
  Printf.printf "%-22s %13.1fs %13.1fs %22s\n" "time (simulated)" our_s.geo_time jr_s.geo_time
    "680.7s / 218.6s";
  Printf.printf "%-22s %13.1f%% %13.1f%% %22s\n" "classes left"
    (100. *. our_s.geo_class_ratio)
    (100. *. jr_s.geo_class_ratio)
    "8.4% / 22.8%";
  Printf.printf "%-22s %13.1f%% %13.1f%% %22s\n" "bytes left"
    (100. *. our_s.geo_byte_ratio)
    (100. *. jr_s.geo_byte_ratio)
    "4.6% / 24.3%";
  Printf.printf "%-22s %13.1f%% %13.1f%% %22s\n" "decompiled lines left"
    (100. *. our_s.geo_line_ratio)
    (100. *. jr_s.geo_line_ratio)
    "(order-of-magnitude)";
  Printf.printf "\nheadline: our reducer leaves %.1fx less bytes than J-Reduce (paper: 5.3x)\n"
    (jr_s.geo_byte_ratio /. our_s.geo_byte_ratio);
  Printf.printf "          and is %.1fx slower (paper: 3.1x)\n"
    (our_s.geo_time /. jr_s.geo_time)

(* ================================================================== *)
(* E3: Figure 8b — mean reduction factor over time                     *)

let table_e3 outcomes =
  header "E3: Figure 8b — reduction over time (mean 'times smaller')";
  let our = outcomes_of Experiment.Gbr outcomes in
  let jreduce = outcomes_of Experiment.Jreduce outcomes in
  let grid = [ 0.; 120.; 300.; 600.; 1200.; 2400.; 3600.; 5400.; 7200. ] in
  List.iter
    (fun (metric, label) ->
      subheader label;
      Printf.printf "%-12s" "time";
      List.iter (fun t -> Printf.printf " %7.0fm" (t /. 60.)) grid;
      print_newline ();
      List.iter
        (fun (name, os) ->
          Printf.printf "%-12s" name;
          List.iter
            (fun t -> Printf.printf " x%7.1f" (Timeline.mean_factor_at os t ~metric))
            grid;
          print_newline ())
        [ ("our reducer", our); ("j-reduce", jreduce) ])
    [
      (`Classes, "number of classes (paper at 2h: JR ~x4.4, ours ~x11.9)");
      (`Bytes, "number of bytes (paper at 2h: JR ~x4.1, ours ~x21.7)");
    ]

(* ================================================================== *)
(* E5: the two lossy encodings (§4.3 / §5)                             *)

let graph_fraction_of_instance (instance : Corpus.instance) =
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool instance.benchmark.pool in
  let cnf = Lbr_jvm.Constraints.generate jv instance.benchmark.pool in
  Cnf.graph_fraction cnf

let table_e5 instances outcomes =
  header "E5: Lossy encodings vs GBR (§5)";
  let our = outcomes_of Experiment.Gbr outcomes in
  let first = outcomes_of Experiment.Lossy_first outcomes in
  let last = outcomes_of Experiment.Lossy_last outcomes in
  let our_s = Stats.summarize our in
  let report name lossy paper_bytes paper_time =
    let s = Stats.summarize lossy in
    Printf.printf "%-14s bytes %+.0f%% vs GBR (paper: %s)   lines %+.0f%%   time %+.0f%% (paper: %s)\n"
      name
      (100. *. (s.geo_byte_ratio /. our_s.geo_byte_ratio -. 1.))
      paper_bytes
      (100. *. (s.geo_line_ratio /. our_s.geo_line_ratio -. 1.))
      (100. *. (s.geo_time /. our_s.geo_time -. 1.))
      paper_time
  in
  report "lossy-first" first "+5% bytes" "-4% time";
  report "lossy-last" last "+8% bytes" "+2% time";
  (* strictly-better percentages *)
  let strictly_better lossy ~subset =
    let pairs = List.combine our lossy in
    let pairs =
      List.filter (fun ((o : Experiment.outcome), _) -> subset o.instance_id) pairs
    in
    match pairs with
    | [] -> nan
    | _ ->
        let better =
          List.length
            (List.filter
               (fun ((o : Experiment.outcome), (l : Experiment.outcome)) ->
                 o.bytes1 < l.bytes1)
               pairs)
        in
        100. *. float_of_int better /. float_of_int (List.length pairs)
  in
  let everything _ = true in
  Printf.printf "\nGBR strictly better than lossy-first: %5.0f%% of instances (paper: 48%%)\n"
    (strictly_better first ~subset:everything);
  Printf.printf "GBR strictly better than lossy-last:  %5.0f%% of instances (paper: 51%%)\n"
    (strictly_better last ~subset:everything);
  (* the >= 5% non-graph subset *)
  let fractions =
    List.map (fun i -> (i.Corpus.instance_id, graph_fraction_of_instance i)) instances
  in
  let non_graph_heavy id =
    match List.assoc_opt id fractions with Some f -> f <= 0.95 | None -> false
  in
  Printf.printf "on instances with >=5%% non-graph clauses (%d of %d):\n"
    (List.length (List.filter (fun (_, f) -> f <= 0.95) fractions))
    (List.length fractions);
  Printf.printf "  strictly better than lossy-first:   %5.0f%% (paper: 79%%)\n"
    (strictly_better first ~subset:non_graph_heavy);
  Printf.printf "  strictly better than lossy-last:    %5.0f%% (paper: 84%%)\n"
    (strictly_better last ~subset:non_graph_heavy)

(* ================================================================== *)
(* E6: ablation — variable orders and ddmin (beyond the paper's table) *)

let table_e6 instances =
  header "E6 (ablation): variable order and a ddmin baseline";
  (* GBR with creation order vs closure order on a few instances *)
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let sample = take 6 instances in
  subheader "GBR: creation order vs closure-size order (Thm 4.5's 'pick < well')";
  List.iter
    (fun (instance : Corpus.instance) ->
      let pool = instance.benchmark.pool in
      let run_with order_of =
        let vpool = Var.Pool.create () in
        let jv = Lbr_jvm.Jvars.derive vpool pool in
        let cnf = Lbr_jvm.Constraints.generate jv pool in
        let universe = Lbr_jvm.Jvars.all jv in
        let baseline = instance.baseline_errors in
        let sub_pool_of = Lbr_jvm.Reducer.prepare jv pool in
        let errors_of = Lbr_decompiler.Tool.prepare instance.tool pool in
        let predicate =
          Lbr.Predicate.make (fun phi ->
              let errors = errors_of (sub_pool_of phi) in
              List.for_all (fun m -> List.mem m errors) baseline)
        in
        let problem = Lbr.Problem.make ~pool:vpool ~universe ~constraints:cnf ~predicate in
        match Lbr.Gbr.reduce problem ~order:(order_of vpool cnf universe) with
        | Error _ -> (nan, 0)
        | Ok (result, stats) ->
            let final = sub_pool_of result in
            ( 100.
              *. float_of_int (Lbr_jvm.Size.bytes final)
              /. float_of_int (Lbr_jvm.Size.bytes pool),
              stats.predicate_runs )
      in
      let creation_pct, creation_runs =
        run_with (fun vpool _ _ -> Lbr_sat.Order.by_creation vpool)
      in
      let closure_pct, closure_runs =
        run_with (fun _ cnf universe -> Lbr.Order_heuristics.closure_order cnf ~universe)
      in
      Printf.printf "%-24s creation: %5.1f%% (%3d runs)   closure-order: %5.1f%% (%3d runs)\n"
        instance.instance_id creation_pct creation_runs closure_pct closure_runs)
    sample;
  subheader "ddmin at class granularity (the pre-J-Reduce baseline)";
  List.iter
    (fun (instance : Corpus.instance) ->
      let pool = instance.benchmark.pool in
      let names = Lbr_jvm.Classpool.names pool in
      let baseline = instance.baseline_errors in
      let errors_of = Lbr_decompiler.Tool.prepare instance.tool pool in
      let tests = ref 0 in
      let test subset =
        incr tests;
        let sub =
          Lbr_jvm.Classpool.classes pool
          |> List.filter (fun (c : Lbr_jvm.Classfile.cls) ->
                 List.mem c.Lbr_jvm.Classfile.name subset)
          |> Lbr_jvm.Classpool.of_classes
        in
        if not (Lbr_jvm.Checker.is_valid sub) then Lbr_baselines.Ddmin.Unresolved
        else
          let errors = errors_of sub in
          if List.for_all (fun m -> List.mem m errors) baseline then Lbr_baselines.Ddmin.Fail
          else Lbr_baselines.Ddmin.Pass
      in
      let result, stats = Lbr_baselines.Ddmin.run ~items:names ~test in
      Printf.printf "%-24s ddmin: %3d of %3d classes left (%d tests)\n" instance.instance_id
        (List.length result) (List.length names) stats.tests)
    (take 3 instances)

(* ================================================================== *)
(* Bechamel micro-benchmarks                                           *)

(* Direct GBR on one corpus instance, bypassing the experiment wrapper, to
   contrast the incremental and rebuild reduction cores head to head.  The
   model derivation and the tool's immutable gate index are built once
   (setup); each timed run gets a fresh predicate and a fresh prepared
   applier so no memoization — predicate or reducer-cache — can leak
   between runs. *)
let gbr_direct_setup (instance : Corpus.instance) =
  let pool = instance.benchmark.pool in
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool pool in
  let cnf = Lbr_jvm.Constraints.generate jv pool in
  let universe = Lbr_jvm.Jvars.all jv in
  let order = Lbr_sat.Order.by_creation vpool in
  let errors_of = Lbr_decompiler.Tool.prepare instance.tool pool in
  fun ~incremental ->
    let sub_pool_of = Lbr_jvm.Reducer.prepare jv pool in
    let predicate =
      Lbr.Predicate.make (fun phi ->
          let errors = errors_of (sub_pool_of phi) in
          List.for_all (fun m -> List.mem m errors) instance.baseline_errors)
    in
    let problem = Lbr.Problem.make ~pool:vpool ~universe ~constraints:cnf ~predicate in
    Lbr.Gbr.reduce problem ~order ~incremental

(* GBR's own loop on one instance with the decompiler taken out: setup
   runs the reduction once with the real predicate and records every
   verdict; each timed run reduces with a fresh predicate that answers
   from that table, so the time is GBR's — progressions, probes, engine
   updates — and not the simulated tool's. *)
let gbr_replay_setup (instance : Corpus.instance) =
  let pool = instance.benchmark.pool in
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool pool in
  let constraints = Lbr_jvm.Constraints.generate jv pool in
  let universe = Lbr_jvm.Jvars.all jv in
  let order = Lbr_sat.Order.by_creation vpool in
  let errors_of = Lbr_decompiler.Tool.prepare instance.tool pool in
  let sub_pool_of = Lbr_jvm.Reducer.prepare jv pool in
  let verdicts = Hashtbl.create 256 in
  let record phi =
    let errors = errors_of (sub_pool_of phi) in
    let verdict = List.for_all (fun m -> List.mem m errors) instance.baseline_errors in
    Hashtbl.replace verdicts phi verdict;
    verdict
  in
  let reduce black_box =
    let predicate = Lbr.Predicate.make black_box in
    Lbr.Gbr.reduce (Lbr.Problem.make ~pool:vpool ~universe ~constraints ~predicate) ~order
  in
  ignore (reduce record);
  fun () -> reduce (Hashtbl.find verdicts)

(* The JVM reducer on one instance's probes: setup runs the reduction once
   with the real predicate and records every assignment the applier is
   given, in order; each timed run prepares a fresh applier and replays
   that sequence through it, so the time is one input's [prepare] and
   applies — GBR's prefix-union probes, where consecutive assignments
   differ in a few items. *)
let reducer_replay_setup (instance : Corpus.instance) =
  let pool = instance.benchmark.pool in
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool pool in
  let constraints = Lbr_jvm.Constraints.generate jv pool in
  let universe = Lbr_jvm.Jvars.all jv in
  let errors_of = Lbr_decompiler.Tool.prepare instance.tool pool in
  let sub_pool_of = Lbr_jvm.Reducer.prepare jv pool in
  let probes = ref [] in
  let predicate =
    Lbr.Predicate.make (fun phi ->
        probes := phi :: !probes;
        let errors = errors_of (sub_pool_of phi) in
        List.for_all (fun m -> List.mem m errors) instance.baseline_errors)
  in
  ignore
    (Lbr.Gbr.reduce
       (Lbr.Problem.make ~pool:vpool ~universe ~constraints ~predicate)
       ~order:(Lbr_sat.Order.by_creation vpool));
  let probes = Array.of_list (List.rev !probes) in
  fun () ->
    let apply = Lbr_jvm.Reducer.prepare jv pool in
    Array.iter (fun phi -> ignore (Sys.opaque_identity (apply phi))) probes

(* A generated non-Horn formula on which the MSA engine conflicts, so
   [Msa.compute] takes the general fallback (solve, then greedy
   minimization).  Variable 0 is required; each of [gadgets] gadgets has
   [0 ⇒ a ∨ b], [0 ⇒ c] and [¬a ∨ ¬c], so the engine's [<]-smallest head
   [a] meets the negative clause while [b] satisfies it.  Each [b] then
   implies a random pair of tail variables, and random edges link the
   tail, so minimization has choices to make.  Setting every tail
   variable true satisfies the tail: the formula is satisfiable. *)
let msa_fallback_setup ~gadgets ~tail =
  let rng = Random.State.make [| 42 |] in
  let nvars = 1 + (3 * gadgets) + tail in
  let tail_var () = 1 + (3 * gadgets) + Random.State.int rng tail in
  let clauses =
    List.concat
      (List.init gadgets (fun g ->
           let a = 1 + (3 * g) and b = 2 + (3 * g) and c = 3 + (3 * g) in
           [
             Clause.make ~neg:[ 0 ] ~pos:[ a; b ];
             Clause.make ~neg:[ 0 ] ~pos:[ c ];
             Clause.make ~neg:[ a; c ] ~pos:[];
             Clause.make ~neg:[ b ] ~pos:[ tail_var (); tail_var () ];
             Clause.make ~neg:[ tail_var () ] ~pos:[ tail_var () ];
           ]))
    |> List.filter_map Fun.id
  in
  let cnf = Cnf.make clauses in
  let order = Lbr_sat.Order.of_list (List.init nvars Fun.id) in
  let universe = Assignment.of_list (List.init nvars Fun.id) in
  let required = Assignment.singleton 0 in
  (match Lbr_sat.Msa.Engine.create cnf ~order ~universe with
  | Ok e when Lbr_sat.Msa.Engine.assume_all e [ 0 ] = Ok () ->
      failwith "sat:msa-fallback: the engine does not conflict"
  | Ok _ | Error `Conflict -> ());
  fun () ->
    match Lbr_sat.Msa.compute cnf ~order ~universe ~required () with
    | Some m -> m
    | None -> failwith "sat:msa-fallback: unexpectedly unsatisfiable"

let micro () =
  header "Micro-benchmarks (Bechamel; ns per run)";
  let open Bechamel in
  let model = Lbr_fji.Example.model () in
  let universe = Lbr_fji.Vars.all model.vars in
  let over = Assignment.to_list universe in
  let pool40 =
    Lbr_workload.Generator.generate ~seed:7 (Lbr_workload.Generator.njr_profile ~classes:40)
  in
  let vpool = Var.Pool.create () in
  let jv = Lbr_jvm.Jvars.derive vpool pool40 in
  let cnf40 = Lbr_jvm.Constraints.generate jv pool40 in
  let order40 = Lbr_sat.Order.by_creation vpool in
  let universe40 = Lbr_jvm.Jvars.all jv in
  (* The e2e benchmark's pool size: constraint generation at the scale its
     ledger row measures. *)
  let pool150 =
    Lbr_workload.Generator.generate ~seed:7 (Lbr_workload.Generator.njr_profile ~classes:150)
  in
  let jv150 = Lbr_jvm.Jvars.derive (Var.Pool.create ()) pool150 in
  let instance150 =
    List.nth_opt
      (Corpus.instances [ { Corpus.bench_id = "micro150"; seed = 7; pool = pool150 } ])
      0
  in
  let instance40 =
    let benchmarks = Corpus.build ~seed:7 ~programs:1 ~mean_classes:40 in
    List.nth_opt (Corpus.instances benchmarks) 0
  in
  let tests =
    [
      Test.make ~name:"e1:model-count-6766"
        (Staged.stage (fun () ->
             Model_count.count
               (Cnf.make
                  (List.filter
                     (fun c -> Clause.kind c <> Clause.Unit_pos)
                     (Cnf.clauses model.constraints)))
               ~over));
      Test.make ~name:"e1:gbr-example"
        (Staged.stage (fun () ->
             let predicate = Lbr.Predicate.make (Lbr_fji.Example.buggy model.vars) in
             let problem =
               Lbr.Problem.make ~pool:model.pool ~universe ~constraints:model.constraints
                 ~predicate
             in
             Lbr.Gbr.reduce problem ~order:(Lbr_sat.Order.by_creation model.pool)));
      Test.make ~name:"jvm:constraint-gen-40cls"
        (Staged.stage (fun () -> Lbr_jvm.Constraints.generate jv pool40));
      Test.make ~name:"jvm:constraint-gen-150cls"
        (Staged.stage (fun () -> Lbr_jvm.Constraints.generate jv150 pool150));
      Test.make ~name:"sat:msa-closure-40cls"
        (Staged.stage (fun () ->
             Lbr_sat.Msa.compute cnf40 ~order:order40 ~universe:universe40
               ~required:Assignment.empty ()));
      Test.make ~name:"sat:msa-fallback"
        (Staged.stage (msa_fallback_setup ~gadgets:24 ~tail:24));
      Test.make ~name:"core:progression-40cls"
        (Staged.stage (fun () ->
             Lbr.Progression.make ~cnf:cnf40 ~order:order40 ~learned:[] ~universe:universe40));
      (Test.make ~name:"sat:propagate-watched-40cls"
         (* Watched propagation on a warm engine: assume a spread of
            universe variables, then reset with [narrow] to the same
            universe.  No engine construction in the timed loop, but the
            reset recomputes the base closure, so each run times that
            closure as well as the assumptions' watcher-list walks. *)
         (let engine =
            match Lbr_sat.Msa.Engine.create cnf40 ~order:order40 ~universe:universe40 with
            | Ok e -> e
            | Error `Conflict -> failwith "sat:propagate-watched-40cls: unexpected conflict"
          in
          let vars =
            Assignment.to_list universe40 |> List.filteri (fun i _ -> i mod 7 = 0)
          in
          Staged.stage (fun () ->
              match Lbr_sat.Msa.Engine.assume_all engine vars with
              | Ok () -> (
                  match Lbr_sat.Msa.Engine.narrow engine ~keep:universe40 with
                  | Ok () -> ()
                  | Error `Conflict -> failwith "sat:propagate-watched-40cls: narrow conflicts")
              | Error `Conflict -> failwith "sat:propagate-watched-40cls: unexpected conflict")));
      (Test.make ~name:"sat:engine-reset"
         (* One create-or-reset + release cycle against a private arena:
            the amortized cost of engine acquisition once the pool is
            warm (the second iteration onward reuses the shell). *)
         (let arena = Lbr_sat.Msa.Arena.create () in
          Staged.stage (fun () ->
              match Lbr_sat.Msa.Engine.create ~arena cnf40 ~order:order40 ~universe:universe40 with
              | Ok e -> Lbr_sat.Msa.Arena.release arena e
              | Error `Conflict -> failwith "sat:engine-reset: unexpected conflict")));
      Test.make ~name:"sat:trace-disabled-overhead"
        (* The cost contract of Lbr_obs.Trace: a span at a disabled call
           site is one atomic load and a branch (budget: 50ns/run).  Under
           bench --trace this instead measures the enabled recording path. *)
        (Staged.stage (fun () -> Lbr_obs.Trace.with_span "noop" (fun () -> ())));
      Test.make ~name:"graph:closure-table-40cls"
        (Staged.stage (fun () ->
             let edges =
               Cnf.clauses cnf40
               |> List.filter_map (fun (c : Clause.t) ->
                      match Clause.kind c with
                      | Clause.Edge -> Some (c.neg.(0), c.pos.(0))
                      | _ -> None)
             in
             Lbr_graph.Scc.all_closures
               (Lbr_graph.Digraph.make ~n:(Var.Pool.size vpool) ~edges)));
    ]
    @ (match instance150 with
      | None -> []
      | Some instance ->
          [
            Test.make ~name:"core:gbr-replay-150cls"
              (Staged.stage (gbr_replay_setup instance));
            Test.make ~name:"jvm:reducer-apply-150cls"
              (Staged.stage (reducer_replay_setup instance));
          ])
    @
    match instance40 with
    | None -> []
    | Some instance ->
        let run_gbr_direct = gbr_direct_setup instance in
        [
          Test.make ~name:"fig8a:gbr-one-instance"
            (Staged.stage (fun () -> Experiment.run Experiment.Gbr instance));
          Test.make ~name:"fig8a:jreduce-one-instance"
            (Staged.stage (fun () -> Experiment.run Experiment.Jreduce instance));
          Test.make ~name:"core:gbr-incremental-one-instance"
            (Staged.stage (fun () -> run_gbr_direct ~incremental:true));
          Test.make ~name:"core:gbr-rebuild-one-instance"
            (Staged.stage (fun () -> run_gbr_direct ~incremental:false));
        ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let samples = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
          let estimate = Analyze.one ols Toolkit.Instance.monotonic_clock samples in
          let ns =
            match Analyze.OLS.estimates estimate with
            | Some (t :: _) -> t
            | Some [] | None -> nan
          in
          Printf.printf "%-32s %12.0f ns/run  (%.3f ms)\n%!" (Test.Elt.name elt) ns
            (ns /. 1e6);
          (Test.Elt.name elt, ns))
        (Test.elements test))
    tests

(* ================================================================== *)
(* Non-JVM frontends: one deterministic reduction per frontend over a
   fixed input, so `--json` rows are labelled by frontend and the dump
   tracks every workload the service can reduce, not just class pools.
   The inputs mirror the checked-in examples (examples/data/): the
   PHP(3,2) pigeonhole CNF with its reduction directives, and the
   Figure 1 FJ program with "class A" as the failure marker.          *)

let frontend_php_cnf =
  String.concat "\n"
    [ "c lbr keep 1"; "c lbr implies 3 2"; "p cnf 8 11";
      "1 2 0"; "3 4 0"; "5 6 0"; "-1 -3 0"; "-1 -5 0"; "-3 -5 0";
      "-2 -4 0"; "-2 -6 0"; "-4 -6 0"; "7 8 0"; "-7 8 0"; "" ]

let run_frontends () =
  header "Frontend reductions (DIMACS core extraction, FJ tree reduction)";
  let fj_text =
    Lbr_fji.Pretty.program_to_string (Lbr_fji.Example.model ()).Lbr_fji.Example.program
  in
  List.filter_map
    (fun (id, text, spec) ->
      match Lbr_frontend.Registry.find id with
      | Error m ->
          Printf.printf "%-8s SKIPPED: %s\n" id m;
          None
      | Ok packed -> (
          match Lbr_frontend.Run.reduce_text packed ~text ~spec with
          | Error m ->
              Printf.printf "%-8s FAILED: %s\n" id m;
              None
          | Ok (o, _) ->
              Printf.printf
                "%-8s %4d -> %4d items  %6d -> %6d bytes  %3d predicate runs  %7.1f s simulated\n"
                id o.Lbr_frontend.Run.items0 o.items1 o.bytes0 o.bytes1
                o.predicate_runs o.sim_time;
              Some (id, o)))
    [ ("dimacs", frontend_php_cnf, ""); ("fj", fj_text, "class A") ]

(* ================================================================== *)
(* --json: machine-readable dump of the headline numbers               *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

(* Attribution for trajectory points: which commit produced this dump, on
   how many cores.  Best effort — outside a git checkout the commit is
   "unknown". *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let write_json path options strategies frontend_rows micro_rows counter_rows metric_rows =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"programs\": %d,\n" options.programs;
  p "  \"mean_classes\": %d,\n" options.mean_classes;
  p "  \"seed\": %d,\n" options.seed;
  p "  \"jobs\": %d,\n" options.jobs;
  p "  \"git_commit\": \"%s\",\n" (json_escape (git_commit ()));
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"strategies\": [";
  List.iteri
    (fun i (name, wall, speedup, intra, (s : Stats.summary)) ->
      p
        "%s\n    { \"name\": \"%s\", \"frontend\": \"jvm\", \"wall_seconds\": %s, \
         \"speedup\": %s, \"intra_speedup\": %s, \"geo_sim_time_seconds\": %s, \
         \"geo_class_ratio\": %s, \"geo_byte_ratio\": %s, \"geo_line_ratio\": %s, \
         \"geo_predicate_runs\": %s }"
        (if i > 0 then "," else "")
        (json_escape name) (json_num wall) (json_num speedup) (json_num intra)
        (json_num s.geo_time) (json_num s.geo_class_ratio) (json_num s.geo_byte_ratio)
        (json_num s.geo_line_ratio) (json_num s.geo_runs))
    strategies;
  p "\n  ],\n";
  (* One row per non-JVM frontend over its fixed input; everything but
     wall_seconds is deterministic.  The frontend label keys trajectory
     tracking the same way "name" does for strategies. *)
  p "  \"frontends\": [";
  List.iteri
    (fun i (id, (o : Lbr_frontend.Run.outcome)) ->
      p
        "%s\n    { \"frontend\": \"%s\", \"items0\": %d, \"items1\": %d, \
         \"bytes0\": %d, \"bytes1\": %d, \"predicate_runs\": %d, \
         \"sim_time_seconds\": %s, \"wall_seconds\": %s }"
        (if i > 0 then "," else "")
        (json_escape id) o.items0 o.items1 o.bytes0 o.bytes1 o.predicate_runs
        (json_num o.sim_time) (json_num o.wall_time))
    frontend_rows;
  p "\n  ],\n";
  p "  \"micro\": [";
  List.iteri
    (fun i (name, ns) ->
      p "%s\n    { \"name\": \"%s\", \"ns_per_run\": %s }"
        (if i > 0 then "," else "")
        (json_escape name) (json_num ns))
    micro_rows;
  p "\n  ],\n";
  (* The Lbr_obs metric registry (oracle/scheduler/span aggregates).  Every
     row carries a "kind" field so the CI determinism diff can strip them
     wholesale — counts vary with timing and parallel interleaving. *)
  let p_metric_rows rows =
    List.iteri
      (fun i (r : Lbr_obs.Metrics.row) ->
        let sep = if i > 0 then "," else "" in
        match r with
        | Lbr_obs.Metrics.Counter_row { name; value } ->
            p "%s\n    { \"kind\": \"counter\", \"name\": \"%s\", \"value\": %d }" sep
              (json_escape name) value
        | Lbr_obs.Metrics.Gauge_row { name; value } ->
            p "%s\n    { \"kind\": \"gauge\", \"name\": \"%s\", \"value\": %s }" sep
              (json_escape name) (json_num value)
        | Lbr_obs.Metrics.Histogram_row { name; count; sum; p50; p90; p99 } ->
            p
              "%s\n    { \"kind\": \"histogram\", \"name\": \"%s\", \"count\": %d, \"sum\": \
               %s, \"p50\": %s, \"p90\": %s, \"p99\": %s }"
              sep (json_escape name) count (json_num sum) (json_num p50) (json_num p90)
              (json_num p99))
      rows
  in
  p "  \"metrics\": [";
  p_metric_rows metric_rows;
  p "\n  ],\n";
  (* Metrics federation round-trip: the same registry as a cluster
     coordinator would see it — snapshotted with Metrics.dump, pushed
     through the wire codec, and exact-merged with itself.  Counters and
     histogram counts come out at exactly 2x the "metrics" section (the
     merge-is-exact-sum invariant, visible in the artifact); rows are
     "kind"-tagged like "metrics" so determinism diffs strip them. *)
  p "  \"federated\": [";
  (let d = Lbr_obs.Metrics.dump () in
   match Lbr_obs.Metrics.decode_dump (Lbr_obs.Metrics.encode_dump d) with
   | Ok d' -> p_metric_rows (Lbr_obs.Metrics.rows_of_dump (Lbr_obs.Metrics.merge_dumps [ d; d' ]))
   | Error m -> failwith ("bench: metrics dump codec round-trip failed: " ^ m));
  p "\n  ],\n";
  (* Phase counters for the strategy-table runs (micro and corpus
     generation excluded — see the capture site in the main driver). *)
  p "  \"counters\": [";
  List.iteri
    (fun i (r : Perf.row) ->
      p
        "%s\n    { \"name\": \"%s\", \"calls\": %d, \"seconds\": %s, \
         \"minor_words\": %s }"
        (if i > 0 then "," else "")
        (json_escape r.name) r.calls (json_num r.seconds) (json_num r.minor_words))
    counter_rows;
  p "\n  ]\n}\n";
  close_out oc;
  Printf.printf "[json] wrote %s\n" path

(* ================================================================== *)

let () =
  let options = parse_options () in
  if options.trace_path <> None then Lbr_obs.Trace.start ();
  Printf.printf
    "Logical Bytecode Reduction — evaluation harness (programs=%d, mean-classes=%d, seed=%d)\n"
    options.programs options.mean_classes options.seed;
  let strategy_rows = ref [] in
  let counter_rows = ref [] in
  if options.run_tables then begin
    table_e1 ();
    let benchmarks, instances, outcomes, intra, counters_before = run_corpus options in
    strategy_rows :=
      List.map
        (fun (strategy, (wall, speedup, os)) ->
          let intra = if strategy = Experiment.Gbr then intra else nan in
          (Experiment.strategy_name strategy, wall, speedup, intra, Stats.summarize os))
        outcomes;
    table_e4 benchmarks instances;
    table_e2 outcomes;
    table_e3 outcomes;
    table_e5 instances outcomes;
    table_e6 instances;
    (* Counters are captured here, before the micro loops, and windowed to
       the strategy runs: Bechamel runs each micro under a time quota, so
       its counter contribution scales with host speed — folding it in
       would make the dump useless as a deterministic workload measure (and
       would hide improvements: faster code does more quota iterations,
       keeping phase seconds constant).  Corpus generation is excluded by
       the [since] delta for the same reason: it is setup, not workload. *)
    counter_rows := Perf.since ~before:counters_before ~after:(Perf.aggregate ())
  end;
  let frontend_rows = if options.run_tables then run_frontends () else [] in
  let micro_rows = if options.run_micro then micro () else [] in
  if not options.run_tables then counter_rows := Perf.aggregate ();
  let counter_rows = !counter_rows in
  header "Phase counters (tables phase, all domains)";
  print_string (Perf.report counter_rows);
  let metric_rows = Lbr_obs.Metrics.rows () in
  (match options.json_path with
  | Some path ->
      write_json path options !strategy_rows frontend_rows micro_rows counter_rows
        metric_rows
  | None -> ());
  (match options.prometheus_path with
  | Some path ->
      let oc = open_out path in
      output_string oc (Lbr_obs.Metrics.render_views [ ("", Lbr_obs.Metrics.dump ()) ]);
      close_out oc;
      Printf.printf "[prometheus] wrote %s\n" path
  | None -> ());
  (match options.trace_path with
  | Some path ->
      Lbr_obs.Trace.stop ();
      Lbr_obs.Trace.write_file path;
      Printf.printf "[trace] wrote %s (%d events, %d dropped)\n" path
        (List.length (Lbr_obs.Trace.events ()))
        (Lbr_obs.Trace.dropped ())
  | None -> ());
  print_newline ()
