(* lbr_bench: the repository's end-to-end benchmark.

     bash bench/e2e/run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]

   Four workloads (see README.md): [oneshot-jvm] and [oneshot-cnf] call
   Lbr_frontend.Run.reduce_text in-process; [cluster-fresh] and
   [cluster-replay] drive an lbr-reduce coordinator and two workers over
   loopback.  Each run times its workload for [--seconds] (and for at least
   [min_samples] inputs), checks every output independently, prints a table
   per workload and, as its last line, one JSON object with the end-to-end
   metrics ([--trace 0]) or the per-layer metrics ([--trace 1]). *)

let now = Unix.gettimeofday

type scale = {
  jvm_programs : int;  (** programs behind oneshot-jvm's inputs (1-3 inputs each) *)
  cnf_count : int;
  fresh_programs : int;  (** cluster-fresh never resubmits, so it needs the most *)
  replay_programs : int;  (** primed once, then resubmitted in a cycle *)
  setup_reps : int;  (** setup_s is the median over this many set-ups *)
  min_samples : int;  (** timed inputs at least: p95 then has >= 10 samples beyond it *)
}

let full =
  {
    jvm_programs = 160;
    cnf_count = 400;
    fresh_programs = 300;
    replay_programs = 80;
    setup_reps = 3;
    min_samples = 200;
  }

let smoke =
  {
    jvm_programs = 2;
    cnf_count = 4;
    fresh_programs = 2;
    replay_programs = 2;
    setup_reps = 1;
    min_samples = 1;
  }

let workloads = [ "oneshot-jvm"; "oneshot-cnf"; "cluster-fresh"; "cluster-replay" ]

(* MD5 of each workload's full-scale inputs at seed 42 (Inputs.fingerprint). *)
let pins =
  [
    ("oneshot-jvm", "c78eec723b4577913602f81b2370cb81");
    ("oneshot-cnf", "e9817bcfbdf8251b90c26d9b14477c4f");
    ("cluster-fresh", "1f77e582b37ba983fa6f5203b3f4889b");
    ("cluster-replay", "43313923fa5f65130c01af2afd09ffef");
  ]

let generate scale ~seed = function
  | "oneshot-jvm" -> Inputs.jvm ~seed ~programs:scale.jvm_programs
  | "oneshot-cnf" -> Inputs.cnf ~seed ~count:scale.cnf_count
  | "cluster-fresh" -> Inputs.jvm ~seed ~programs:scale.fresh_programs
  | _ -> Inputs.jvm ~seed ~programs:scale.replay_programs

let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* Ledger and cluster values are means per input (one-shot) or per job
   (cluster); a layer a workload does not run reports 0. *)
let per_layer =
  [
    ("frontend.parse_ms", "ms");
    ("frontend.derive_ms", "ms");
    ("frontend.constraints_ms", "ms");
    ("predicate.baseline_ms", "ms");
    ("frontend.prepare_ms", "ms");
    ("core.problem_validate_ms", "ms");
    ("core.gbr_self_ms", "ms");
    ("frontend.apply_ms", "ms");
    ("frontend.size_ms", "ms");
    ("predicate.check_ms", "ms");
    ("frontend.print_ms", "ms");
    ("run.residual_ms", "ms");
    ("run.traced_ms", "ms");
    ("run.untraced_ms", "ms");
    ("frontend.constraints_mwords", "Mword");
    ("core.gbr_self_mwords", "Mword");
    ("predicate.check_mwords", "Mword");
    ("frontend.apply_calls", "count");
    ("predicate.check_calls", "count");
    ("core.predicate_queries", "count");
    ("core.predicate_runs", "count");
    ("wire.admit_ms", "ms");
    ("server.queue_wait_ms", "ms");
    ("server.runner_ms", "ms");
    ("cluster.overhead_ms", "ms");
    ("cluster.latency_ms", "ms");
    ("runtime.oracle_executions", "count");
    ("runtime.replayed_runs", "count");
    ("cluster.cache_hits", "count");
    ("cluster.cache_misses", "count");
    ("cluster.steals", "count");
    ("server.journal_bytes", "bytes");
    ("cluster.coordinator_rss_mb", "MB");
    ("server.worker_rss_mb", "MB");
    ("quality.predicate_runs_geo", "count");
    ("quality.byte_ratio_geo", "ratio");
    ("quality.sim_time_geo", "sim_s");
  ]

(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let per n x = if n = 0 then 0.0 else x /. float_of_int n
let mean xs = per (List.length xs) (List.fold_left ( +. ) 0.0 xs)
let geomean xs = if xs = [] then 0.0 else exp (mean (List.map log xs))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Resets this process's VmHWM to its current RSS. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

type report = {
  attempted : int;
  failures : string list;
  e2e : (string * float * string) list;  (** name, value, note *)
  layers : (string * float) list;
}

(* Geometric means over the first [min_samples] inputs, a set fixed by the
   seed, so they repeat exactly run to run: (runs, sim time, out/in bytes). *)
let quality window =
  [
    ("quality.predicate_runs_geo", geomean (List.map (fun (r, _, _) -> float_of_int r) window));
    ("quality.sim_time_geo", geomean (List.map (fun (_, s, _) -> s) window));
    ("quality.byte_ratio_geo", geomean (List.map (fun (_, _, b) -> b) window));
  ]

let print_table title rows =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (name, value, unit, note) ->
      Printf.printf "    %-28s %12.4f %-6s %s\n" name value unit note)
    rows

(* Sets the inputs up [reps] times; the median of the speed-normalized
   times is setup_s.  Every repetition must generate the same inputs. *)
let set_up ~reps ~fail ~teardown setup =
  let times = ref [] and prints = ref [] and last = ref None in
  for _ = 1 to reps do
    Option.iter teardown !last;
    let speed = Speed.create () in
    let probe () = for _ = 1 to 5 do ignore (Speed.sample speed : float) done in
    probe ();
    let t0 = now () in
    let ((inputs, _) as r) = setup () in
    let dt = now () -. t0 in
    probe ();
    times := (dt /. Speed.factor speed) :: !times;
    prints := Inputs.fingerprint inputs :: !prints;
    last := Some r
  done;
  if List.length (List.sort_uniq compare !prints) > 1 then
    fail "setup generated different inputs on a repetition";
  (percentile !times 0.5, Option.get !last)

let tail_note count = Printf.sprintf "%d samples, %d beyond" count (count / 20)

(* ------------------------------------------------------------------ *)
(* One-shot workloads: sequential in-process calls.                    *)

let oneshot ~scale ~seconds ~trace ~inputs ~setup_s frontend =
  let (Lbr_frontend.Frontend.Packed (module F)) = frontend in
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let failures = ref [] in
  let fail k m = failures := Printf.sprintf "%s: %s" inputs.(k mod n).Inputs.id m :: !failures in
  let ledger = Ledger.create () in
  (* Set-up garbage is collected first, so the peak is the reducer's. *)
  Gc.compact ();
  reset_peak_rss ();
  let samples = ref [] and speed = Speed.create () and sampling = ref 0.0 in
  let t_start = now () in
  let k = ref 0 in
  while !k < scale.min_samples || now () -. t_start < seconds do
    sampling := !sampling +. Speed.sample speed;
    let input = inputs.(!k mod n) in
    let t0 = now () in
    let r = Lbr_frontend.Run.reduce_text frontend ~text:input.text ~spec:input.spec in
    let latency = now () -. t0 in
    if trace then begin
      ledger.untraced <- ledger.untraced +. latency;
      let traced =
        Ledger.reduce ledger ~input:input.id (module F) ~text:input.text ~spec:input.spec
      in
      match (r, traced) with
      | Ok (o, out), Ok t
        when o.predicate_runs = t.runs && o.sim_time = t.sim_time && o.ok = t.ok
             && out = t.output ->
          ()
      | Error _, Error _ -> ()
      | _ -> fail !k "the traced pipeline disagrees with Run.reduce_text"
    end;
    samples := (!k, latency, r) :: !samples;
    incr k
  done;
  let wall = now () -. t_start -. !sampling in
  let f = Speed.factor speed in
  Printf.printf "  host speed factor %.3f: the timings below are the measured ones / %.3f\n" f f;
  let peak_rss = Cluster.vm_hwm_mb "self" in
  let samples = List.rev !samples in
  (* Check each input's first output; repeats of it must be identical. *)
  let first = Hashtbl.create n in
  List.iter
    (fun (k, _, r) ->
      match r with
      | Error m -> fail k m
      | Ok ((o : Lbr_frontend.Run.outcome), _) when not o.ok -> fail k "failure not reproduced"
      | Ok (_, out) -> (
          match Hashtbl.find_opt first (k mod n) with
          | Some out0 -> if out <> out0 then fail k "output differs from an earlier run"
          | None -> (
              Hashtbl.add first (k mod n) out;
              match inputs.(k mod n).check out with Ok () -> () | Error m -> fail k m)))
    samples;
  let layers =
    if not trace then []
    else begin
      let inputs = ledger.inputs in
      let ms x = 1000.0 *. per inputs x /. f in
      let rows =
        List.map (fun (r : Ledger.row) -> (r.name ^ "_ms", ms r.time)) (Ledger.rows ledger)
        @ [ ("run.residual_ms", ms (Ledger.residual ledger)) ]
      in
      let traced = ms ledger.traced in
      let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows in
      if Float.abs (sum -. traced) > 0.01 *. traced
         || List.assoc "run.residual_ms" rows < -0.01 *. traced
      then failures := "ledger rows do not add up to the traced total" :: !failures;
      print_table
        (Printf.sprintf "ledger: ms per input over %d inputs, share of the traced %.3f ms" inputs
           traced)
        (List.map
           (fun (name, v) -> (name, v, "ms", Printf.sprintf "%5.1f%%" (100.0 *. v /. traced)))
           rows
        @ [
            ("run.traced_ms", traced, "ms", "= sum of the rows above");
            ("run.untraced_ms", ms ledger.untraced, "ms", "Run.reduce_text, same inputs");
          ]);
      let mwords (r : Ledger.row) = per inputs r.words /. 1e6 in
      let calls (r : Ledger.row) = per inputs (float_of_int r.calls) in
      let window =
        List.filter_map
          (fun (k, _, r) ->
            match r with
            | Ok ((o : Lbr_frontend.Run.outcome), _) when k < scale.min_samples ->
                Some (o.predicate_runs, o.sim_time, float_of_int o.bytes1 /. float_of_int o.bytes0)
            | _ -> None)
          samples
      in
      rows
      @ [
          ("run.traced_ms", traced);
          ("run.untraced_ms", ms ledger.untraced);
          ("frontend.constraints_mwords", mwords ledger.constraints);
          ("core.gbr_self_mwords", mwords ledger.gbr);
          ("predicate.check_mwords", mwords ledger.check);
          ("frontend.apply_calls", calls ledger.apply);
          ("predicate.check_calls", calls ledger.check);
          ("core.predicate_queries", per inputs (float_of_int ledger.queries));
          ("core.predicate_runs", per inputs (float_of_int ledger.runs));
        ]
      @ quality window
    end
  in
  let count = List.length samples in
  let latencies = List.map (fun (_, l, _) -> 1000.0 *. l /. f) samples in
  {
    attempted = count;
    failures = List.rev !failures;
    e2e =
      [
        ( "throughput_per_s",
          float_of_int count /. wall *. f,
          Printf.sprintf "%d inputs in %.2f s measured" count wall );
        ("latency_p50_ms", percentile latencies 0.5, Printf.sprintf "%d samples" count);
        ("latency_p95_ms", percentile latencies 0.95, tail_note count);
        ("peak_rss_mb", peak_rss, "VmHWM, reset after setup");
        ("setup_s", setup_s, Printf.sprintf "median of %d, %d distinct inputs" scale.setup_reps n);
      ];
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Cluster workloads: closed loop over two connections.                *)

let cluster ~scale ~seconds ~replay ~inputs ~setup_s (c : Cluster.t) =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let failures = ref [] in
  let fail (j : Cluster.job) m =
    let id = if j.index < 0 then "connection" else inputs.(j.index mod n).Inputs.id in
    failures := Printf.sprintf "%s: %s" id m :: !failures
  in
  let check_job (j : Cluster.job) k =
    match j.result with
    | Error m -> fail j m
    | Ok (_, stats, _) when not stats.ok -> fail j "failure not reproduced"
    | Ok (_, stats, out) -> k stats out
  in
  let check_fresh (j : Cluster.job) out =
    match inputs.(j.index mod n).check out with Ok () -> () | Error m -> fail j m
  in
  (* cluster-replay's priming pass: every input once, checked, kept. *)
  let primed = Array.make n "" in
  let prime_s =
    if not replay then 0.0
    else begin
      let jobs, wall =
        Cluster.closed_loop c ~lanes:2 ~inputs ~more:(fun ~started ~elapsed:_ -> started < n)
      in
      List.iter
        (fun (j : Cluster.job) ->
          check_job j (fun _ out ->
              primed.(j.index) <- out;
              check_fresh j out))
        jobs;
      wall
    end
  in
  let before = Cluster.snapshot c and journal0 = Cluster.disk_bytes c.state in
  let more ~started ~elapsed =
    (replay || started < n) && (started < scale.min_samples || elapsed < seconds)
  in
  let jobs, wall = Cluster.closed_loop c ~lanes:2 ~inputs ~more in
  let after = Cluster.snapshot c and journal1 = Cluster.disk_bytes c.state in
  let rss (d : Cluster.daemon) = Cluster.vm_hwm_mb (string_of_int d.pid) in
  let coordinator_rss = rss c.coordinator in
  let worker_rss = List.fold_left (fun m w -> max m (rss w)) 0.0 c.workers in
  if not (Cluster.stop_all ()) then failures := "a daemon did not drain cleanly" :: !failures;
  if (not replay) && List.length jobs >= n && wall < seconds then
    Printf.printf "  note: all %d fresh inputs were used after %.2f s\n" n wall;
  List.iter
    (fun (j : Cluster.job) ->
      check_job j (fun stats out ->
          if not replay then check_fresh j out
          else if out <> primed.(j.index mod n) then fail j "result differs from the priming pass"
          else if stats.tool_executions <> 0 then fail j "a replayed job executed the tool"))
    jobs;
  let ok =
    List.filter_map
      (fun (j : Cluster.job) -> match j.result with Ok (_, s, _) -> Some (j, s) | Error _ -> None)
      jobs
  in
  let done_ = List.length ok in
  let ms_mean g = 1000.0 *. mean (List.map g ok) in
  let latency = ms_mean (fun ((j : Cluster.job), _) -> j.finished -. j.submitted) in
  let admit = ms_mean (fun ((j : Cluster.job), _) -> j.accepted -. j.submitted) in
  let runner = ms_mean (fun (_, (s : Lbr_server.Wire.stats)) -> s.wall_time) in
  let queue_wait =
    1000.0 *. per done_ (Cluster.workers_delta ~before ~after "lbr_queue_wait_seconds")
  in
  let stat f = per done_ (float_of_int (List.fold_left (fun acc (_, s) -> acc + f s) 0 ok)) in
  let coordinator name = per done_ (Cluster.coordinator_delta ~before ~after name) in
  (* In submission order, so the means add up in the same order every run. *)
  let window =
    List.sort (fun ((a : Cluster.job), _) ((b : Cluster.job), _) -> compare a.index b.index) ok
    |> List.filter_map (fun ((j : Cluster.job), (s : Lbr_server.Wire.stats)) ->
           if j.index < scale.min_samples then
             Some (s.predicate_runs, s.sim_time, float_of_int s.bytes1 /. float_of_int s.bytes0)
           else None)
  in
  let layers =
    [
      ("wire.admit_ms", admit);
      ("server.queue_wait_ms", queue_wait);
      ("server.runner_ms", runner);
      ("cluster.overhead_ms", latency -. admit -. queue_wait -. runner);
      ("cluster.latency_ms", latency);
      ("runtime.oracle_executions", stat (fun s -> s.tool_executions));
      ("runtime.replayed_runs", stat (fun s -> s.replayed_runs));
      ("cluster.cache_hits", coordinator "lbr_cluster_cache_hits_total");
      ("cluster.cache_misses", coordinator "lbr_cluster_cache_misses_total");
      ("cluster.steals", coordinator "lbr_cluster_steals_total");
      ("server.journal_bytes", per done_ (float_of_int (journal1 - journal0)));
      ("cluster.coordinator_rss_mb", coordinator_rss);
      ("server.worker_rss_mb", worker_rss);
    ]
    @ quality window
  in
  print_table
    (Printf.sprintf
       "cluster ledger: per job over %d jobs; latency %.3f ms = admit + queue + runner + overhead"
       done_ latency)
    (List.map (fun (name, v) -> (name, v, List.assoc name per_layer, "")) layers);
  let latencies = List.map (fun (j : Cluster.job) -> 1000.0 *. (j.finished -. j.submitted)) jobs in
  let count = List.length jobs in
  {
    attempted = count;
    failures = List.rev !failures;
    e2e =
      [
        ( "throughput_per_s",
          float_of_int done_ /. wall,
          Printf.sprintf "%d jobs in %.2f s, 2 connections" done_ wall );
        ( "latency_p50_ms",
          percentile latencies 0.5,
          Printf.sprintf "%d samples, submit to result" count );
        ("latency_p95_ms", percentile latencies 0.95, tail_note count);
        ("peak_rss_mb", max coordinator_rss worker_rss, "max VmHWM over the daemons");
        ( "setup_s",
          setup_s +. prime_s,
          Printf.sprintf "median of %d set-ups%s, %d distinct inputs" scale.setup_reps
            (if replay then Printf.sprintf " + %.2f s priming" prime_s else "")
            n );
      ];
    layers;
  }

(* ------------------------------------------------------------------ *)

let run_workload ~scale ~seed ~seconds ~trace ~tmp name =
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let generate () = generate scale ~seed name in
  let inputs_ready inputs =
    let fingerprint = Inputs.fingerprint inputs in
    if seed = 42 && scale = full && fingerprint <> List.assoc name pins then begin
      Printf.eprintf "lbr_bench: %s inputs at seed 42 drifted: fingerprint %s, pinned %s\n" name
        fingerprint (List.assoc name pins);
      exit 2
    end;
    Printf.printf "  inputs: %d, fingerprint %s\n%!" (List.length inputs) fingerprint
  in
  Printf.printf "== %s  seed %d  %s\n%!" name seed (if trace then "traced" else "untraced");
  let report =
    match name with
    | "oneshot-jvm" | "oneshot-cnf" ->
        let setup_s, (inputs, ()) =
          set_up ~reps:scale.setup_reps ~fail ~teardown:ignore (fun () -> (generate (), ()))
        in
        inputs_ready inputs;
        let id = if name = "oneshot-jvm" then "jvm" else "dimacs" in
        let frontend = Result.get_ok (Lbr_frontend.Registry.find id) in
        oneshot ~scale ~seconds ~trace ~inputs ~setup_s frontend
    | _ ->
        Fun.protect ~finally:(fun () -> ignore (Cluster.stop_all ())) @@ fun () ->
        let rep = ref 0 in
        let teardown _ = if not (Cluster.stop_all ()) then fail "a daemon did not drain cleanly" in
        let setup_s, (inputs, c) =
          set_up ~reps:scale.setup_reps ~fail ~teardown (fun () ->
              incr rep;
              let inputs = generate () in
              (inputs, Cluster.start ~dir:(Filename.concat tmp (Printf.sprintf "%s-%d" name !rep))))
        in
        inputs_ready inputs;
        cluster ~scale ~seconds ~replay:(name = "cluster-replay") ~inputs ~setup_s c
  in
  let report = { report with failures = List.rev !failures @ report.failures } in
  if not trace then
    print_table "end-to-end"
      (List.map (fun (name, v, note) -> (name, v, List.assoc name end_to_end, note)) report.e2e);
  Printf.printf "  checks: %d attempted, %d failed\n" report.attempted
    (List.length report.failures);
  List.iteri (fun i m -> if i < 10 then Printf.printf "    FAILED %s\n" m) report.failures;
  report

(* Runs [f] with this process's stdout sent to /dev/null. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

(* The metric names BENCHMARK.json lists: (end_to_end, per_layer).  The
   file lists end_to_end before per_layer, and every ["name"] after
   ["end_to_end"] names a metric, so a scan for ["name": "..."] suffices. *)
let benchmark_names json =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then String.length json
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let rec names i stop acc =
    let i = find "\"name\"" i in
    if i >= stop then List.rev acc
    else
      let q1 = String.index_from json (String.index_from json i ':') '"' in
      let q2 = String.index_from json (q1 + 1) '"' in
      names q2 stop (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
  in
  let e2e = find "\"end_to_end\"" 0 and layers = find "\"per_layer\"" 0 in
  (names e2e layers [], names layers (String.length json) [])

(* The reported metrics, in BENCHMARK.json's order; keys carry the
   workload when one run covers several. *)
let metrics ~trace reports =
  List.concat_map
    (fun (w, r) ->
      let key name = if List.length reports = 1 then name else w ^ "/" ^ name in
      if trace then
        List.map
          (fun (name, unit) ->
            (key name, Option.value ~default:0.0 (List.assoc_opt name r.layers), unit))
          per_layer
      else List.map (fun (name, v, _) -> (key name, v, List.assoc name end_to_end)) r.e2e)
    reports

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              (if Float.is_finite value then value else 0.0)
              unit)
          metrics))

let smoke_test ~seed ~tmp ~names benchmark_json =
  let e2e, layers =
    benchmark_names (In_channel.with_open_bin benchmark_json In_channel.input_all)
  in
  let bad = ref [] in
  List.iter
    (fun trace ->
      let expected = if trace then layers else e2e in
      if expected = [] then bad := ("no metric names found in " ^ benchmark_json) :: !bad;
      List.iter
        (fun name ->
          let r =
            quietly (fun () -> run_workload ~scale:smoke ~seed ~seconds:0.2 ~trace ~tmp name)
          in
          let reported = List.map (fun (m, _, _) -> m) (metrics ~trace [ (name, r) ]) in
          List.iter
            (fun m ->
              if not (List.mem m reported) then
                bad := Printf.sprintf "%s: %s not reported" name m :: !bad)
            expected;
          List.iter (fun f -> bad := Printf.sprintf "%s: %s" name f :: !bad) r.failures)
        names)
    [ false; true ];
  List.iter (fun m -> Printf.printf "SMOKE FAILED %s\n" m) (List.rev !bad);
  if !bad = [] then
    Printf.printf "lbr_bench smoke: %d workloads, untraced and traced, all checks passed\n"
      (List.length names);
  !bad = []

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let names = ref [] and seed = ref 42 and seconds = ref 20.0 and trace = ref 0 in
  let smoke_json = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun w -> names := !names @ [ w ]),
        "NAME  run this workload (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  timed seconds per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ( "--smoke",
        Arg.Set_string smoke_json,
        "BENCHMARK.json  tiny inputs, untraced and traced; check every listed metric is reported" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lbr_bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]";
  let names = if !names = [] then workloads else !names in
  (match List.find_opt (fun w -> not (List.mem w workloads)) names with
  | Some w ->
      Printf.eprintf "lbr_bench: unknown workload %S (known: %s)\n" w
        (String.concat ", " workloads);
      exit 2
  | None -> ());
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "lbr_bench: --trace takes 0 or 1";
    exit 2
  end;
  let canary = Inputs.canary () in
  if canary <> Inputs.canary_pin then begin
    Printf.eprintf "lbr_bench: the input generators drifted: canary %s, pinned %s\n" canary
      Inputs.canary_pin;
    exit 2
  end;
  let tmp = Filename.concat ".bench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Cluster.mkdir_p tmp;
  at_exit (fun () ->
      ignore (Cluster.stop_all ());
      rm_rf tmp);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  if !smoke_json <> "" then exit (if smoke_test ~seed:!seed ~tmp ~names !smoke_json then 0 else 1);
  let epoch = now () in
  let trace = !trace = 1 in
  Spans.enabled := trace;
  let reports =
    List.map
      (fun name -> (name, run_workload ~scale:full ~seed:!seed ~seconds:!seconds ~trace ~tmp name))
      names
  in
  if trace then begin
    let path = Printf.sprintf ".bench/trace-%s-seed%d.json" (String.concat "+" names) !seed in
    Spans.write path ~epoch;
    Printf.printf "bench-side spans written to %s\n" path
  end;
  let attempted = List.fold_left (fun acc (_, r) -> acc + r.attempted) 0 reports in
  let failed = List.fold_left (fun acc (_, r) -> acc + List.length r.failures) 0 reports in
  print_endline (json_line ~correct:(failed = 0) ~attempted ~failed (metrics ~trace reports));
  exit (if failed = 0 then 0 else 1)
