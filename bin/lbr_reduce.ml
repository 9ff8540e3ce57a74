(* lbr-reduce: command-line front end for logical bytecode reduction.

   Subcommands:
     example     — run the paper's Figure 1 example end to end
     reduce      — reduce a workload file (or a generated pool) in-process
     serve       — reduction-as-a-service daemon on a Unix socket
     coordinate  — cluster coordinator in front of several serve daemons
     submit      — send a workload to a running daemon and collect the result
     top         — queue, running jobs and metrics of a live daemon
     trace-dump  — capture a live daemon's span rings into a .tdump file
     trace-merge — merge nodes' traces into one skew-corrected Chrome trace
     report      — post-mortem report from a daemon's journal directory
     stats       — corpus statistics (the §5 'Statistics' table)
     export      — dump a benchmark's pool (binary), model (DIMACS) and source
     tools       — list the simulated decompilers and their bug patterns *)

open Cmdliner
open Lbr_logic

(* ------------------------------------------------------------------ *)

let example_cmd =
  let run () =
    let model = Lbr_fji.Example.model () in
    let universe = Lbr_fji.Vars.all model.vars in
    print_endline "input (Figure 1a):";
    print_endline (Lbr_fji.Pretty.program_to_string model.program);
    let predicate = Lbr.Predicate.make (Lbr_fji.Example.buggy model.vars) in
    let problem =
      Lbr.Problem.make ~pool:model.pool ~universe ~constraints:model.constraints ~predicate
    in
    match Lbr.Gbr.reduce problem ~order:(Lbr_sat.Order.by_creation model.pool) with
    | Error _ -> prerr_endline "reduction failed"; exit 1
    | Ok (solution, stats) ->
        Printf.printf "\nreduced in %d tool runs; kept %d of %d items\n\n"
          stats.predicate_runs
          (Assignment.cardinal solution)
          (Assignment.cardinal universe);
        print_endline "output (Figure 1b):";
        print_endline
          (Lbr_fji.Pretty.program_to_string
             (Lbr_fji.Reduce.reduce model.vars model.program solution))
  in
  Cmd.v (Cmd.info "example" ~doc:"Run the paper's Figure 1 example end to end.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let classes_arg =
  Arg.(value & opt int 60 & info [ "classes" ] ~docv:"N" ~doc:"Classes in the generated program.")

let strategy_arg =
  let strategies =
    Lbr_frontend.Run.
      [
        ("gbr", Gbr);
        ("jreduce", Jreduce);
        ("lossy-first", Lossy_first);
        ("lossy-last", Lossy_last);
      ]
  in
  Arg.(
    value
    & opt (enum strategies) Lbr_frontend.Run.Gbr
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "One of gbr, jreduce, lossy-first, lossy-last, on every frontend.  jreduce needs \
           graph constraints (jvm reduces at class granularity; dimacs qualifies, fj does \
           not).")

(* Frontends are validated at argument-parse time: a typo'd --frontend
   should be a cmdliner error listing the known ones, not a failure after
   the workload is generated or read. *)
let frontend_conv =
  let parse s =
    match Lbr_frontend.Registry.find s with
    | Ok _ -> Ok s
    | Error m -> Error (`Msg m)
  in
  Arg.conv ~docv:"FRONTEND" (parse, Format.pp_print_string)

let frontend_arg =
  Arg.(
    value
    & opt (some frontend_conv) None
    & info [ "frontend" ] ~docv:"FRONTEND"
        ~doc:
          "Workload frontend: $(b,jvm) (generated benchmark class pools), $(b,dimacs) \
           (clause-level CNF reduction preserving unsatisfiability) or $(b,fj) \
           (Featherweight Java tree reduction).  Default: inferred from INPUT's \
           extension; jvm when there is no INPUT.")

let input_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"INPUT"
        ~doc:
          "Workload file: an LBRC class pool (.lbrc, jvm), a DIMACS CNF (.cnf) or a \
           Featherweight Java program (.fj).  Without it, jvm generates a benchmark pool \
           from --seed/--classes.")

let require_arg =
  Arg.(
    value & opt string ""
    & info [ "require" ] ~docv:"SPEC"
        ~doc:
          "Frontend predicate spec.  For jvm: the simulated decompiler to reduce against \
           (see `lbr-reduce tools'); empty picks the first one that is buggy on the input.  \
           For fj: a substring the reduced program must still contain (the failure \
           marker); empty preserves typechecking only.  dimacs accepts no spec — the \
           preserved property is unsatisfiability.")

(* Resolve the effective frontend from the explicit flag and the input
   path's extension, rejecting mismatches before anything is read: a
   --frontend that contradicts what the extension says is almost always a
   wrong file, and the reduction would otherwise fail only after parsing
   (or worse, mis-parse). *)
let resolve_frontend ~frontend ~input =
  match (frontend, input) with
  | None, None -> Ok "jvm"
  | Some id, None -> Ok id
  | None, Some path -> (
      match Lbr_frontend.Registry.for_path path with
      | Ok p -> Ok (Lbr_frontend.Frontend.id_of p)
      | Error m -> Error m)
  | Some id, Some path -> (
      match Lbr_frontend.Registry.for_path path with
      | Ok p when Lbr_frontend.Frontend.id_of p <> id ->
          Error
            (Printf.sprintf
               "%s looks like a %s workload (extension %S) but --frontend %s was given; \
                pass a matching file or drop --frontend"
               path
               (Lbr_frontend.Frontend.id_of p)
               (Filename.extension path) id)
      | Ok _ | Error _ ->
          (* an unknown extension defers to the explicit flag *)
          Ok id)

let read_text_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> Ok data
  | exception Sys_error m -> Error m

(* The workload bytes to reduce: INPUT when given, else (jvm only) a
   generated benchmark pool. *)
let read_workload ~frontend_id ~input ~seed ~classes =
  match input with
  | Some path -> read_text_file path
  | None when frontend_id = "jvm" ->
      Ok
        (Lbr_jvm.Serialize.to_bytes
           (Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes)))
  | None -> Error (Printf.sprintf "frontend %s needs an INPUT file" frontend_id)

(* What --output writes: the decompiled source of a reduced jvm pool, the
   frontend's own text otherwise. *)
let readable ~frontend_id printed =
  if frontend_id <> "jvm" then printed
  else
    match Lbr_jvm.Serialize.of_bytes printed with
    | Ok pool -> Lbr_decompiler.Source.decompile pool
    | Error m -> failwith ("undecodable reduced pool: " ^ m)

let write_file file data =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

(* Output paths are validated at argument-parse time, not at first write:
   a reduction can run for minutes before anything is written, and
   discovering a typo'd directory only then wastes the whole run.  The
   file may not exist yet — its parent directory must exist and be
   writable. *)
let writable_file =
  let parse s =
    if s = "" then Error (`Msg "output path is empty")
    else if Sys.file_exists s && Sys.is_directory s then
      Error (`Msg (s ^ ": is a directory"))
    else
      let dir = Filename.dirname s in
      if not (Sys.file_exists dir) then
        Error (`Msg (Printf.sprintf "%s: parent directory %s does not exist" s dir))
      else if not (Sys.is_directory dir) then
        Error (`Msg (Printf.sprintf "%s: %s is not a directory" s dir))
      else
        match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
        | () -> Ok s
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (`Msg (Printf.sprintf "%s: directory %s: %s" s dir (Unix.error_message e)))
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

(* Same idea for directories the command will create (e.g. a fresh journal
   dir): walk up to the nearest existing ancestor and require it to be a
   writable directory. *)
let writable_dir =
  let parse s =
    if s = "" then Error (`Msg "directory path is empty")
    else
      let rec nearest d =
        if Sys.file_exists d then d
        else
          let parent = Filename.dirname d in
          if parent = d then d else nearest parent
      in
      let anc = nearest s in
      if not (Sys.file_exists anc) || not (Sys.is_directory anc) then
        Error (`Msg (Printf.sprintf "%s: %s is not a directory" s anc))
      else if Sys.file_exists s && not (Sys.is_directory s) then
        Error (`Msg (s ^ ": exists and is not a directory"))
      else
        match Unix.access anc [ Unix.W_OK; Unix.X_OK ] with
        | () -> Ok s
        | exception Unix.Unix_error (e, _, _) ->
            Error (`Msg (Printf.sprintf "%s: %s: %s" s anc (Unix.error_message e)))
  in
  Arg.conv ~docv:"DIR" (parse, Format.pp_print_string)

let trace_arg =
  Arg.(
    value
    & opt (some writable_file) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event timeline of the run and write it to FILE on exit; \
           load it in chrome://tracing or ui.perfetto.dev.")

(* Flush the recorded timeline — shared by reduce (normal and interrupted
   exits) and serve's drain hook. *)
let write_trace = function
  | None -> ()
  | Some file ->
      Lbr_obs.Trace.stop ();
      Lbr_obs.Trace.write_file file;
      Printf.eprintf "trace (%d events%s) written to %s\n%!"
        (List.length (Lbr_obs.Trace.events ()))
        (match Lbr_obs.Trace.dropped () with
        | 0 -> ""
        | n -> Printf.sprintf ", %d dropped" n)
        file

let prometheus_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "prometheus-listen" ] ~docv:"PORT"
        ~doc:
          "Serve the metric registry as a Prometheus text endpoint on 127.0.0.1:PORT (0 lets \
           the kernel pick; the chosen port is printed).  On a coordinator the payload is the \
           federated view: local registry, per-worker dumps pulled at scrape time and the \
           merged cluster totals.")

let output_arg =
  Arg.(
    value
    & opt (some writable_file) None
    & info [ "output"; "o" ] ~docv:"FILE"
        ~doc:
          "Write the reduced workload in readable form to FILE: the decompiled source for \
           jvm, the frontend's own text otherwise.")

let output_pool_arg =
  Arg.(
    value
    & opt (some writable_file) None
    & info [ "output-pool" ] ~docv:"FILE"
        ~doc:"Write the reduced workload in its input format (LBRC binary for jvm) to FILE.")

(* A [--jobs 0] or [--jobs -3] should die in argument parsing with a
   cmdliner-formatted error, not reach the domain pool. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is not a positive integer (expected >= 1)" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt pos_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains (a positive integer): the jobs $(b,serve) runs at once, or the \
           domains $(b,reduce --speculate) pipelines its one reduction on.")

let speculate_arg =
  Arg.(
    value & flag
    & info [ "speculate" ]
        ~doc:
          "Speculative predicate pipelining: while each predicate verdict is pending, run \
           the probes both branches would need next on the $(b,--jobs) worker domains, \
           cancelling the losing branch when the verdict lands.  The reduced output is \
           byte-identical to the sequential run; only wall clock changes.  Applies to gbr; \
           combine with $(b,--jobs) N >= 2.")

let reduce_cmd =
  let run seed classes strategy jobs output output_pool trace frontend input require
      speculate =
    let die code m =
      prerr_endline ("lbr-reduce: " ^ m);
      exit code
    in
    let frontend_id =
      match resolve_frontend ~frontend ~input with Ok id -> id | Error m -> die 2 m
    in
    let packed =
      match Lbr_frontend.Registry.find_for ~strategy frontend_id with
      | Ok p -> p
      | Error m -> die 2 m
    in
    let text =
      match read_workload ~frontend_id ~input ~seed ~classes with
      | Ok text -> text
      | Error m -> die 2 m
    in
    if trace <> None then Lbr_obs.Trace.start ();
    (* Graceful ^C / SIGTERM: stop at the next predicate-run boundary,
       report the best sub-input reached so far, and exit with the
       conventional 128+signal status.  Shares the Shutdown drain plumbing
       with the serve daemon. *)
    let shutdown = Lbr_server.Shutdown.install () in
    let best = ref None in
    let hooks =
      {
        Lbr_frontend.Run.default_hooks with
        should_stop = Some (fun () -> Lbr_server.Shutdown.requested shutdown);
        on_improvement = Some (fun sim_time items bytes -> best := Some (sim_time, items, bytes));
      }
    in
    let reduce () =
      if speculate then
        Lbr_runtime.Pool.with_pool ~jobs (fun pool ->
            Lbr_frontend.Run.reduce_text ~hooks ~strategy ~speculate:pool packed ~text
              ~spec:require)
      else Lbr_frontend.Run.reduce_text ~hooks ~strategy packed ~text ~spec:require
    in
    match reduce () with
    | exception Lbr_frontend.Run.Cancelled ->
        Lbr_server.Shutdown.on_drain shutdown (fun () ->
            Printf.eprintf "interrupted by SIG%s; %s\n"
              (Option.value ~default:"?" (Lbr_server.Shutdown.signal_name shutdown))
              (match !best with
              | None -> "no improvement reached yet"
              | Some (sim_time, items, bytes) ->
                  Printf.sprintf "best so far %d items, %d bytes at %.0fs simulated" items
                    bytes sim_time);
            write_trace trace);
        Lbr_server.Shutdown.run_drain shutdown;
        exit (match Lbr_server.Shutdown.signal_name shutdown with Some "TERM" -> 143 | _ -> 130)
    | Error m -> die 1 m
    | Ok (o, printed) ->
        Printf.printf
          "%s [%s %s]: %d -> %d items (%.1f%%), %d -> %d bytes (%.1f%%), %d predicate runs, \
           %.0fs simulated%s\n"
          (Lbr_frontend.Run.strategy_name strategy)
          frontend_id
          (match input with
          | Some path -> Filename.basename path
          | None -> Printf.sprintf "seed %d" seed)
          o.items0 o.items1
          (100. *. float_of_int o.items1 /. float_of_int (max 1 o.items0))
          o.bytes0 o.bytes1
          (100. *. float_of_int o.bytes1 /. float_of_int (max 1 o.bytes0))
          o.predicate_runs o.sim_time
          (if o.ok then "" else " [NOT REPRODUCED]");
        (match output_pool with
        | Some file ->
            write_file file printed;
            Printf.printf "reduced %s workload written to %s\n" frontend_id file
        | None -> ());
        (match output with
        | Some file ->
            write_file file (readable ~frontend_id printed);
            Printf.printf "reduced %s workload (readable) written to %s\n" frontend_id file
        | None when output_pool = None ->
            print_newline ();
            print_string (readable ~frontend_id printed)
        | None -> ());
        write_trace trace
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Reduce a workload in-process with one strategy: an INPUT file (an LBRC pool, a \
          DIMACS CNF or a Featherweight Java program), or a generated benchmark pool \
          (--seed/--classes) when jvm has no INPUT.  Prints a summary, then the reduced \
          workload unless --output or --output-pool is given.")
    Term.(
      const run $ seed_arg $ classes_arg $ strategy_arg $ jobs_arg $ output_arg
      $ output_pool_arg $ trace_arg $ frontend_arg $ input_arg $ require_arg
      $ speculate_arg)

(* ------------------------------------------------------------------ *)
(* Reduction as a service                                              *)

(* Cluster addresses are validated at parse time like output paths: a
   host:port with a port outside 0-65535 (or a bare ":8080") should be a
   cmdliner error, not a connect failure minutes into a run.  Accepts a
   Unix socket path, [unix:PATH], or [tcp:]HOST:PORT; port 0 asks the
   kernel for a free port when listening. *)
let cluster_addr =
  let parse s =
    match Lbr_server.Addr.parse s with Ok a -> Ok a | Error m -> Error (`Msg m)
  in
  let print ppf a = Format.pp_print_string ppf (Lbr_server.Addr.to_string a) in
  Arg.conv ~docv:"ADDR" (parse, print)

let socket_arg =
  Arg.(
    value
    & opt cluster_addr (Lbr_server.Addr.Unix_path "/tmp/lbr-serve.sock")
    & info [ "socket" ] ~docv:"ADDR"
        ~doc:"Daemon address: a Unix socket path (or unix:PATH) or a TCP host:port, \
              e.g. 127.0.0.1:7199 (port 0 lets the kernel pick when serving).")

(* What [serve] and [coordinate] hand the daemon lifecycle once their
   node is up. *)
type daemon = {
  server : Lbr_server.Server.t;
  details : string;  (* the listening line after the bound address *)
  resumed : int;  (* journaled jobs picked up again at startup *)
  close : unit -> unit;  (* drain step after the server stops *)
}

(* The lifecycle both daemons share: tracing, the flight recorder,
   [start] (a startup error exits 1), the Prometheus exporter, the
   listening line, then on SIGINT/SIGTERM a drain that stops the node and
   the exporter, writes the trace and dumps the flight recorder. *)
let run_daemon ~name ~journal_dir ~trace ~prometheus ~metrics_label ~resumed_verb
    ~draining start =
  let prefix = "lbr-" ^ name in
  let die m =
    prerr_endline (prefix ^ ": " ^ m);
    exit 1
  in
  if trace <> None then Lbr_obs.Trace.start ();
  (* The flight recorder needs somewhere durable to drop its dump; the
     journal directory is exactly that.  No journal, no recorder. *)
  Option.iter (fun dir -> Lbr_obs.Flight.arm ~node:name ~dir ()) journal_dir;
  let shutdown = Lbr_server.Shutdown.install () in
  let d =
    try start () with
    | Failure m | Sys_error m -> die m
    | Unix.Unix_error (e, _, _) -> die (Unix.error_message e)
  in
  let exporter =
    Option.map
      (fun port ->
        match
          Lbr_obs.Exporter.start ~port (fun () ->
              Lbr_obs.Metrics.render_views (Lbr_server.Server.metrics d.server))
        with
        | e ->
            Printf.printf "%s: %s on http://127.0.0.1:%d/metrics\n%!" prefix metrics_label
              (Lbr_obs.Exporter.port e);
            e
        | exception (Failure m | Sys_error m) -> die ("--prometheus-listen: " ^ m)
        | exception Unix.Unix_error (e, _, _) ->
            die ("--prometheus-listen: " ^ Unix.error_message e))
      prometheus
  in
  Printf.printf "%s: listening on %s%s\n%!" prefix
    (Lbr_server.Addr.to_string (Lbr_server.Server.bound_addr d.server))
    d.details;
  if d.resumed > 0 then
    Printf.printf "%s: %s %d journaled job%s\n%!" prefix resumed_verb d.resumed
      (if d.resumed = 1 then "" else "s");
  Lbr_server.Shutdown.on_drain shutdown (fun () ->
      Printf.printf "%s: %s received, draining %s jobs...\n%!" prefix
        (match Lbr_server.Shutdown.signal_name shutdown with
        | Some s -> "SIG" ^ s
        | None -> "stop request")
        draining;
      Lbr_server.Server.stop d.server;
      d.close ();
      Option.iter Lbr_obs.Exporter.stop exporter;
      write_trace trace;
      ignore (Lbr_obs.Flight.dump ~reason:"drain" : string option);
      print_endline (prefix ^ ": drained, bye"));
  while not (Lbr_server.Shutdown.requested shutdown) do
    Thread.delay 0.1
  done;
  Lbr_server.Shutdown.run_drain shutdown

let serve_cmd =
  let queue_depth_arg =
    Arg.(
      value & opt pos_int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Maximum jobs waiting for a worker; submissions past this are rejected with a \
                retry-after hint.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some writable_dir) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:"Write-ahead journal directory.  Accepted jobs and completed predicate \
                evaluations are logged there, and a restarted daemon resumes unfinished jobs, \
                replaying paid-for predicate results.")
  in
  let run socket jobs queue_depth journal_dir trace prometheus =
    run_daemon ~name:"serve" ~journal_dir ~trace ~prometheus ~metrics_label:"metrics"
      ~resumed_verb:"resumed" ~draining:"in-flight" (fun () ->
        let server =
          Lbr_server.Server.start
            { Lbr_server.Server.listen = socket; jobs; queue_depth; journal_dir }
        in
        {
          server;
          details =
            Printf.sprintf " (%d worker%s, queue depth %d%s)" jobs
              (if jobs = 1 then "" else "s")
              queue_depth
              (match journal_dir with Some d -> ", journal " ^ d | None -> "");
          resumed = Lbr_server.Server.recovered server;
          close = ignore;
        })
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the reduction daemon: accept LBRC class pools over a Unix domain socket, reduce \
          them on a domain pool, stream progress, and journal for crash recovery.")
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_depth_arg $ journal_arg $ trace_arg
      $ prometheus_arg)

let coordinate_cmd =
  let listen_arg =
    Arg.(
      value
      & opt cluster_addr (Lbr_server.Addr.Unix_path "/tmp/lbr-coordinate.sock")
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Address the coordinator serves on: a Unix socket path or a TCP host:port \
                (use port 0 to let the kernel pick).")
  in
  let workers_arg =
    Arg.(
      non_empty & opt_all cluster_addr []
      & info [ "worker" ] ~docv:"ADDR"
          ~doc:"Address of a worker daemon (repeatable).  Every worker is pinged at startup \
                and must speak the same protocol version.")
  in
  let lanes_arg =
    Arg.(
      value & opt pos_int 1
      & info [ "lanes" ] ~docv:"N"
          ~doc:"Concurrent delegated jobs per worker: the coordinator runs up to N jobs per \
                worker at once, each on the live worker with the fewest delegated jobs.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt pos_int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Cluster-wide cap on queued jobs; submissions past this are rejected with a \
                retry-after hint.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some writable_file) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:"Persist the content-addressed verdict cache to FILE (append-only; reloaded \
                on restart).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some writable_dir) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:"Coordinator write-ahead journal: admitted jobs and terminal markers.  Without \
                --cache, the verdict cache persists to DIR/verdicts.cache.  A restarted \
                coordinator resubmits unfinished jobs seeded with their paid verdicts from \
                the cache.")
  in
  let run listen workers lanes queue_depth cache_path journal_dir trace prometheus =
    run_daemon ~name:"coordinate" ~journal_dir ~trace ~prometheus
      ~metrics_label:"federated metrics" ~resumed_verb:"resubmitted" ~draining:"delegated"
      (fun () ->
        let coordinator =
          Lbr_cluster.Coordinator.create
            {
              Lbr_cluster.Coordinator.workers;
              lanes;
              queue_depth;
              cache_path;
              journal_dir;
            }
        in
        {
          server =
            Lbr_server.Server.serve
              ~metrics:(fun () -> Lbr_cluster.Coordinator.metrics coordinator)
              ~listen
              (Lbr_cluster.Coordinator.scheduler coordinator);
          details =
            Printf.sprintf ", %d worker%s (%s)" (List.length workers)
              (if List.length workers = 1 then "" else "s")
              (String.concat ", " (List.map Lbr_server.Addr.to_string workers));
          resumed = Lbr_cluster.Coordinator.recovered coordinator;
          close = (fun () -> Lbr_cluster.Coordinator.close coordinator);
        })
  in
  Cmd.v
    (Cmd.info "coordinate"
       ~doc:
         "Run the cluster coordinator: front N `lbr-reduce serve' worker daemons behind one \
          service address, dispatching submitted jobs in priority order to whichever worker \
          has a free lane, sharing a content-addressed verdict cache, and failing jobs over \
          (seeded with their paid verdicts) when a worker dies.  Worker metric registries \
          are pulled when asked for: each `top' request or --prometheus-listen scrape pulls \
          every live worker's registry before answering.")
    Term.(
      const run $ listen_arg $ workers_arg $ lanes_arg $ queue_depth_arg $ cache_arg
      $ journal_arg $ trace_arg $ prometheus_arg)

let submit_cmd =
  let priority_arg =
    Arg.(
      value
      & opt (enum [ ("normal", Lbr_server.Wire.Normal); ("high", Lbr_server.Wire.High) ])
          Lbr_server.Wire.Normal
      & info [ "priority" ] ~docv:"PRIORITY" ~doc:"Admission priority: normal or high.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Oracle retries for transient tool failures on the server.")
  in
  let run socket seed classes strategy priority retries output output_pool frontend input
      require =
    let die m =
      prerr_endline ("lbr-reduce submit: " ^ m);
      exit 2
    in
    let frontend_id =
      match resolve_frontend ~frontend ~input with Ok id -> id | Error m -> die m
    in
    let pool_bytes =
      match read_workload ~frontend_id ~input ~seed ~classes with
      | Ok data -> data
      | Error m -> die m
    in
    let spec =
      {
        Lbr_server.Wire.tool = require;
        strategy;
        priority;
        crash_policy = Lbr_runtime.Oracle.Crash_raises;
        retries;
        pool_bytes;
        frontend = frontend_id;
        trace_ctx = None;
      }
    in
    match Lbr_server.Client.connect (Lbr_server.Addr.to_string socket) with
    | Error m ->
        prerr_endline ("lbr-reduce submit: " ^ m);
        exit 1
    | Ok client -> (
        let on_progress (p : Lbr_server.Client.progress) =
          Printf.printf "progress: %d classes, %d bytes at %.0fs simulated\n%!" p.classes
            p.bytes p.sim_time
        in
        match Lbr_server.Client.submit client ~on_progress spec with
        | Error m ->
            Lbr_server.Client.close client;
            prerr_endline ("lbr-reduce submit: " ^ m);
            exit 1
        | Ok (job_id, stats, reduced_bytes) ->
            Lbr_server.Client.close client;
            Printf.printf
              "%s: %d -> %d items, %d -> %d bytes, %d predicate runs (%d replayed), %.0fs \
               simulated%s\n"
              job_id stats.classes0 stats.classes1 stats.bytes0 stats.bytes1
              stats.predicate_runs stats.replayed_runs stats.sim_time
              (if stats.ok then "" else " [NOT REPRODUCED]");
            (match output_pool with
            | None -> ()
            | Some file ->
                write_file file reduced_bytes;
                Printf.printf "reduced %s workload written to %s\n" frontend_id file);
            match output with
            | None -> ()
            | Some file ->
                write_file file (readable ~frontend_id reduced_bytes);
                Printf.printf "reduced %s workload (readable) written to %s\n" frontend_id
                  file)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a workload to a running `lbr-reduce serve' daemon (or a coordinator) and \
          wait for the result: an INPUT file (an LBRC pool, a DIMACS CNF or a \
          Featherweight Java program), or a generated benchmark pool (--seed/--classes) \
          when jvm has no INPUT.")
    Term.(
      const run $ socket_arg $ seed_arg $ classes_arg $ strategy_arg $ priority_arg
      $ retries_arg $ output_arg $ output_pool_arg $ frontend_arg $ input_arg $ require_arg)

(* ------------------------------------------------------------------ *)
(* Live (and post-mortem) daemon introspection                          *)

(* A counter's or gauge's value in a metric dump — the one way [top] and
   [report] read a daemon's metrics. *)
let metric_in dump name =
  match Lbr_obs.Metrics.find_in_dump dump name with
  | Some (D_counter n) -> Some (float_of_int n)
  | Some (D_gauge v) -> Some v
  | Some (D_hist _) | None -> None

(* How a daemon's predicate verdicts were paid for, from its counters:
   fresh ones are oracle executions that were not retries (the
   coordinator's cache-miss formula), replayed ones came from a job's
   replay table. *)
let verdict_counts dump =
  let count name = Option.value ~default:0. (metric_in dump name) in
  ( count "lbr_oracle_executions_total" -. count "lbr_oracle_retries_total",
    count "lbr_replayed_verdicts_total" )

let top_cmd =
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Also print the daemon's full Prometheus metrics snapshot.")
  in
  (* Cluster health lives in the node's own registry (live workers, the
     scheduler's queue depth, cache hit/miss counters); surface it
     without requiring --metrics when the daemon is a coordinator. *)
  let cluster_section own =
    let value = metric_in own in
    (match value "lbr_cluster_workers_alive" with
    | None -> ()
    | Some alive ->
        Printf.printf "cluster: %d worker(s) alive; queue depth %s\n" (int_of_float alive)
          (match value "lbr_queue_depth" with
          | Some d -> string_of_int (int_of_float d)
          | None -> "-"));
    match (value "lbr_cluster_cache_hits_total", value "lbr_cluster_cache_misses_total") with
    | Some hits, Some misses ->
        let total = hits +. misses in
        Printf.printf "cluster cache: %d hits, %d misses (%.1f%% hit rate)\n"
          (int_of_float hits) (int_of_float misses)
          (if total = 0. then 0. else 100. *. hits /. total)
    | _ -> ()
  in
  let online socket metrics =
    match Lbr_server.Client.connect (Lbr_server.Addr.to_string socket) with
    | Error m ->
        prerr_endline ("lbr-reduce top: " ^ m);
        exit 1
    | Ok client -> (
        let result = Lbr_server.Client.stats client in
        Lbr_server.Client.close client;
        match result with
        | Error m ->
            prerr_endline ("lbr-reduce top: " ^ m);
            exit 1
        | Ok (s : Lbr_server.Wire.daemon_stats) ->
            Printf.printf "daemon: up %.0fs   queued: %d   running: %d\n" s.uptime
              s.queued_jobs s.running_jobs;
            let own = Option.value ~default:[] (List.assoc_opt "" s.metrics) in
            (* Verdicts: the merged view on a coordinator, the node's own
               registry on a worker. *)
            let fresh, replayed =
              verdict_counts
                (Option.value ~default:own (List.assoc_opt "cluster" s.metrics))
            in
            Printf.printf "verdicts: %.0f fresh, %.0f replayed\n" fresh replayed;
            cluster_section own;
            (match s.job_stats with
            | [] -> print_endline "no jobs in flight"
            | jobs ->
                List.iter
                  (fun (j : Lbr_server.Wire.job_stat) ->
                    let state = if j.js_running then "running" else "queued" in
                    match j.js_best with
                    | None -> Printf.printf "  %-16s %-8s best: -\n" j.js_id state
                    | Some (sim_time, classes, bytes) ->
                        Printf.printf "  %-16s %-8s best: %d classes, %d bytes at %.0fs\n"
                          j.js_id state classes bytes sim_time)
                  jobs);
            if metrics then (
              print_newline ();
              print_string (Lbr_obs.Metrics.render_views s.metrics)))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Introspect a running `lbr-reduce serve' daemon: queue depth, running jobs with \
          best-so-far sizes, fresh and replayed verdict counts and (with --metrics) the Prometheus \
          metric snapshot.  For a dead daemon's journal, see `lbr-reduce report'.")
    Term.(const online $ socket_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* Distributed trace capture and merging                               *)

let trace_dump_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some writable_file) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write the node's span rings as a binary .tdump capture to FILE.")
  in
  let run socket out =
    match Lbr_cluster.Trace_merge.fetch (Lbr_server.Addr.to_string socket) with
    | Error m ->
        prerr_endline ("lbr-reduce trace-dump: " ^ m);
        exit 1
    | Ok d ->
        Lbr_cluster.Trace_merge.write_file out d;
        Printf.printf "trace-dump: %d events from %s written to %s\n"
          (List.length d.Lbr_cluster.Trace_merge.nd_events)
          d.Lbr_cluster.Trace_merge.nd_node out
  in
  Cmd.v
    (Cmd.info "trace-dump"
       ~doc:
         "Capture a live daemon's span rings into a binary .tdump file — the e2e harness \
          dumps every worker before killing one, so the victim's spans survive into the \
          merged trace.  Requires a daemon with tracing enabled (--trace).")
    Term.(const run $ socket_arg $ out_arg)

let trace_merge_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some writable_file) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the merged Chrome trace JSON to FILE.")
  in
  let sources_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SOURCE"
          ~doc:
            "A trace source: a live daemon address (Unix socket path or host:port), a .tdump \
             file from trace-dump, or either prefixed with LABEL= to name its lane.  Sources \
             sharing a lane name are deduplicated into one lane.")
  in
  let load source =
    let label, src =
      (* A LABEL= prefix names the lane; addresses never contain '='. *)
      match String.index_opt source '=' with
      | Some i when i > 0 ->
          ( Some (String.sub source 0 i),
            String.sub source (i + 1) (String.length source - i - 1) )
      | _ -> (None, source)
    in
    let is_regular_file p =
      (* a Unix-socket daemon address also "exists" — only regular files
         are .tdump captures, everything else is dialed *)
      match (Unix.stat p).Unix.st_kind with
      | Unix.S_REG -> true
      | _ | (exception Unix.Unix_error _) -> false
    in
    let loaded =
      if is_regular_file src then Lbr_cluster.Trace_merge.read_file src
      else Lbr_cluster.Trace_merge.fetch src
    in
    Result.map
      (fun d ->
        match label with
        | None -> d
        | Some l -> { d with Lbr_cluster.Trace_merge.nd_node = l })
      loaded
  in
  let run out sources =
    let dumps, errors =
      List.fold_left
        (fun (ds, es) s ->
          match load s with Ok d -> (d :: ds, es) | Error m -> (ds, (s ^ ": " ^ m) :: es))
        ([], []) sources
    in
    List.iter (fun m -> prerr_endline ("lbr-reduce trace-merge: " ^ m)) (List.rev errors);
    match List.rev dumps with
    | [] ->
        prerr_endline "lbr-reduce trace-merge: no sources could be loaded";
        exit 1
    | dumps ->
        let merged = Lbr_cluster.Trace_merge.merge dumps in
        let oc = open_out out in
        Fun.protect
          (fun () -> output_string oc merged.json)
          ~finally:(fun () -> close_out oc);
        let lanes = merged.lanes in
        Printf.printf "trace-merge: %d lane%s (%s), %d events -> %s\n"
          (List.length lanes)
          (if List.length lanes = 1 then "" else "s")
          (String.concat ", " lanes) merged.events out;
        if errors <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Merge trace dumps from several cluster nodes — live daemons and/or .tdump captures \
          — into one skew-corrected Chrome trace with a process lane per node and flow \
          arrows from each coordinator job span to its worker-side spans.")
    Term.(const run $ out_arg $ sources_arg)

(* ------------------------------------------------------------------ *)
(* Post-mortem flight-recorder reports                                 *)

let report_cmd =
  let journal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:"The dead daemon's journal directory: flight-recorder dumps plus per-job \
                verdict logs.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let metric_json (r : Lbr_obs.Metrics.row) =
    let num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null" in
    let esc = Lbr_obs.Trace.json_escape in
    match r with
    | Counter_row { name; value } ->
        Printf.sprintf {|{"kind":"counter","name":"%s","value":%d}|} (esc name) value
    | Gauge_row { name; value } ->
        Printf.sprintf {|{"kind":"gauge","name":"%s","value":%s}|} (esc name) (num value)
    | Histogram_row { name; count; sum; p50; p90; p99 } ->
        Printf.sprintf
          {|{"kind":"histogram","name":"%s","count":%d,"sum":%s,"p50":%s,"p90":%s,"p99":%s}|}
          (esc name) count (num sum) (num p50) (num p90) (num p99)
  in
  let run dir json =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      prerr_endline ("lbr-reduce report: " ^ dir ^ ": not a journal directory");
      exit 1
    end;
    let flights =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.starts_with ~prefix:"flight-" f && Filename.check_suffix f ".tdump")
      |> List.sort compare
    in
    (* Per-job verdict counts and latency quantiles, from the journal's
       verdict lines — the ground truth that survives any crash. *)
    let journal = Lbr_server.Journal.open_dir dir in
    let per_job =
      Fun.protect
        ~finally:(fun () -> Lbr_server.Journal.close journal)
        (fun () ->
          List.map
            (fun id ->
              let verdicts = Lbr_server.Journal.verdicts journal ~id in
              let hist = Lbr_obs.Metrics.Histogram.create () in
              let fails = ref 0 and retries = ref 0 in
              List.iter
                (fun (v : Lbr_server.Journal.verdict) ->
                  if not v.v_ok then incr fails;
                  retries := !retries + v.v_retries;
                  Lbr_obs.Metrics.Histogram.observe hist v.v_latency)
                verdicts;
              (id, hist, !fails, !retries))
            (Lbr_server.Journal.jobs journal))
    in
    let latency =
      List.fold_left
        (fun acc (_, hist, _, _) -> Lbr_obs.Metrics.Histogram.merge acc hist)
        (Lbr_obs.Metrics.Histogram.create ()) per_job
    in
    let verdict_count = Lbr_obs.Metrics.Histogram.count latency in
    let fail_count = List.fold_left (fun n (_, _, fails, _) -> n + fails) 0 per_job in
    (* Each flight dump, decoded: the span ring (timestamps made absolute
       again), the job.state history, the dump's reason and time, and the
       metric dump beside it.  An unreadable dump is named and skipped. *)
    let decode file =
      match Lbr_obs.Flight.read (Filename.concat dir file) with
      | Error m ->
          prerr_endline ("lbr-reduce report: unreadable flight dump " ^ file ^ ": " ^ m);
          None
      | Ok (d, metrics) ->
          let str = Lbr_obs.Trace.str_arg in
          let named n = List.filter (fun (e : Lbr_obs.Trace.event) -> e.ev_name = n) d.nd_events in
          let reason =
            Option.value ~default:"?"
              (List.find_map (fun e -> str e "reason") (named "flight.dump"))
          in
          let transitions =
            List.filter_map
              (fun (e : Lbr_obs.Trace.event) ->
                match (str e "job", str e "state") with
                | Some job, Some state -> Some (d.nd_epoch +. (e.ev_ts /. 1e6), job, state)
                | _ -> None)
              (named "job.state")
          in
          let spans =
            List.filter_map
              (fun (e : Lbr_obs.Trace.event) ->
                if e.ev_name = "job.state" || e.ev_name = "flight.dump" then None
                else Some { e with ev_ts = e.ev_ts +. (d.nd_epoch *. 1e6) })
              d.nd_events
          in
          Some (file, d.nd_node, reason, d.nd_server_now, spans, transitions, metrics)
    in
    let dumps = List.filter_map decode flights in
    let q hist p =
      let v = Lbr_obs.Metrics.Histogram.quantile hist p in
      if Float.is_finite v then v else 0.
    in
    let jobs = List.length per_job in
    if json then begin
      Printf.printf "{\"journal\":\"%s\",\"jobs\":%d,\"verdicts\":%d,\"failedVerdicts\":%d,"
        (Lbr_obs.Trace.json_escape dir) jobs verdict_count fail_count;
      Printf.printf "\"latency\":{\"count\":%d,\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f},"
        verdict_count (q latency 0.5) (q latency 0.9) (q latency 0.99);
      Printf.printf "\"perJob\":[%s],"
        (String.concat ","
           (List.map
              (fun (id, hist, fails, retries) ->
                Printf.sprintf
                  "{\"id\":\"%s\",\"verdicts\":%d,\"failedVerdicts\":%d,\"oracleRetries\":%d,\"latency\":{\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f}}"
                  (Lbr_obs.Trace.json_escape id)
                  (Lbr_obs.Metrics.Histogram.count hist)
                  fails retries (q hist 0.5) (q hist 0.9) (q hist 0.99))
              per_job));
      Printf.printf "\"flights\":[";
      List.iteri
        (fun i (file, node, reason, time, spans, transitions, metrics) ->
          if i > 0 then print_char ',';
          Printf.printf
            "{\"file\":\"%s\",\"node\":\"%s\",\"reason\":\"%s\",\"time\":%.6f,\"spans\":[%s],\"transitions\":[%s],\"metrics\":[%s]}"
            (Lbr_obs.Trace.json_escape file)
            (Lbr_obs.Trace.json_escape node)
            (Lbr_obs.Trace.json_escape reason)
            time
            (String.concat "," (List.map (fun e -> Lbr_obs.Trace.event_json_string e) spans))
            (String.concat ","
               (List.map
                  (fun (ts, job, state) ->
                    Printf.sprintf {|{"ts":%.6f,"job":"%s","state":"%s"}|} ts
                      (Lbr_obs.Trace.json_escape job) (Lbr_obs.Trace.json_escape state))
                  transitions))
            (String.concat ","
               (List.map metric_json (Lbr_obs.Metrics.rows_of_dump metrics))))
        dumps;
      print_string "]}\n"
    end
    else begin
      Printf.printf "journal %s: %d job%s, %d verdicts (%d failed)\n" dir jobs
        (if jobs = 1 then "" else "s")
        verdict_count fail_count;
      if verdict_count > 0 then
        Printf.printf "verdict latency p50/p90/p99: %.3fs / %.3fs / %.3fs\n" (q latency 0.5)
          (q latency 0.9) (q latency 0.99);
      List.iter
        (fun (id, hist, fails, retries) ->
          let n = Lbr_obs.Metrics.Histogram.count hist in
          Printf.printf "  %-16s %d verdicts (%d fail, %d oracle retries)" id n fails retries;
          if n = 0 then print_endline "  latency: n/a"
          else
            Printf.printf "  latency p50/p90/p99: %.3fs / %.3fs / %.3fs\n" (q hist 0.5)
              (q hist 0.9) (q hist 0.99))
        per_job;
      if dumps = [] then print_endline "no flight-recorder dumps found"
      else
        List.iter
          (fun (file, node, reason, time, spans, transitions, metrics) ->
            Printf.printf "\nflight %s: node %s, reason %s, at %.3f\n" file node reason
              time;
            (* Verdict counts and cache effectiveness straight from the
               recorded metric dump. *)
            let counter = metric_in metrics in
            (match verdict_counts metrics with
            | fresh, replayed when fresh +. replayed > 0. ->
                Printf.printf "  verdicts: %.0f fresh, %.0f replayed\n" fresh replayed
            | _ -> ());
            (match (counter "lbr_cluster_cache_hits_total", counter "lbr_cluster_cache_misses_total") with
            | Some h, Some m when h +. m > 0. ->
                Printf.printf "  cluster cache: %.0f hits, %.0f misses (%.1f%% hit rate)\n"
                  h m (100. *. h /. (h +. m))
            | _ -> ());
            (* Job state histories from the transition ring. *)
            let by_job = Hashtbl.create 8 in
            let job_order = ref [] in
            List.iter
              (fun (_, job, state) ->
                if not (Hashtbl.mem by_job job) then job_order := job :: !job_order;
                Hashtbl.replace by_job job
                  (state :: Option.value ~default:[] (Hashtbl.find_opt by_job job)))
              transitions;
            List.iter
              (fun job ->
                Printf.printf "  %-16s %s\n" job
                  (String.concat " -> " (List.rev (Hashtbl.find by_job job))))
              (List.rev !job_order);
            (* The span tree: roots are spans with no ctx.parent (or whose
               parent is not a recorded span id here); children indent
               under the job they name. *)
            let job e = Lbr_obs.Trace.str_arg e "job" in
            let parented, roots =
              List.partition (fun e -> Lbr_obs.Trace.str_arg e "ctx.parent" <> None) spans
            in
            let print_span indent (e : Lbr_obs.Trace.event) =
              Printf.printf "  %s%-28s %12.3fus  %10.0fus%s\n" indent e.ev_name e.ev_ts
                e.ev_dur
                (match job e with Some j -> "  " ^ j | None -> "")
            in
            List.iter
              (fun root ->
                print_span "" root;
                List.iter
                  (fun child ->
                    if job child = job root || job root = None then print_span "  " child)
                  parented)
              (if roots = [] then parented else roots))
          dumps
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a post-mortem report from a daemon's journal directory: flight-recorder \
          dumps (last spans and job state transitions before death), verdict latency \
          quantiles from the journal, one line per job (verdicts, fails, oracle retries, \
          latency), verdict counts and the cluster cache hit rate.")
    Term.(const run $ journal_arg $ json_arg)

(* ------------------------------------------------------------------ *)

let stats_cmd =
  let programs_arg =
    Arg.(value & opt int 20 & info [ "programs" ] ~docv:"N" ~doc:"Corpus size.")
  in
  let mean_arg =
    Arg.(value & opt int 60 & info [ "mean-classes" ] ~docv:"N" ~doc:"Geometric-mean classes.")
  in
  let run seed programs mean_classes =
    let benchmarks = Lbr_harness.Corpus.build ~seed ~programs ~mean_classes in
    let instances = Lbr_harness.Corpus.instances benchmarks in
    let s = Lbr_harness.Corpus.stats benchmarks instances in
    Printf.printf "programs: %d   instances: %d\n" s.programs s.instance_count;
    Printf.printf "geo classes: %.0f   geo bytes: %.0f   geo errors: %.1f\n" s.geo_classes
      s.geo_bytes s.geo_errors;
    Printf.printf "geo items: %.0f   geo clauses: %.0f   graph fraction: %.1f%%\n" s.geo_items
      s.geo_clauses
      (100. *. s.mean_graph_fraction)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Corpus statistics (the §5 'Statistics' measurements).")
    Term.(const run $ seed_arg $ programs_arg $ mean_arg)

(* ------------------------------------------------------------------ *)

let export_cmd =
  let cnf_arg =
    Cmdliner.Arg.(
      value & opt (some string) None
      & info [ "cnf" ] ~docv:"FILE" ~doc:"Write the dependency model as DIMACS CNF to FILE.")
  in
  let pool_arg =
    Cmdliner.Arg.(
      value & opt (some string) None
      & info [ "pool" ] ~docv:"FILE" ~doc:"Write the class pool in binary form to FILE.")
  in
  let source_arg =
    Cmdliner.Arg.(
      value & opt (some string) None
      & info [ "source" ] ~docv:"FILE" ~doc:"Write the decompiled pseudo-Java to FILE.")
  in
  let run seed classes cnf_file pool_file source_file =
    let pool =
      Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes)
    in
    (match pool_file with
    | Some file ->
        Lbr_jvm.Serialize.write_file file pool;
        Printf.printf "pool (%d bytes serialized) -> %s\n"
          (Lbr_jvm.Serialize.serialized_size pool) file
    | None -> ());
    (match cnf_file with
    | Some file ->
        let vpool = Var.Pool.create () in
        let jv = Lbr_jvm.Jvars.derive vpool pool in
        let cnf = Lbr_jvm.Constraints.generate jv pool in
        Dimacs.write_file file cnf;
        Printf.printf "model (%d vars, %d clauses) -> %s\n" (Var.Pool.size vpool)
          (Cnf.num_clauses cnf) file
    | None -> ());
    match source_file with
    | Some file ->
        let oc = open_out file in
        output_string oc (Lbr_decompiler.Source.decompile pool);
        close_out oc;
        Printf.printf "decompiled source (%d lines) -> %s\n"
          (Lbr_decompiler.Source.line_count pool) file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Generate a benchmark and export its pool (binary), dependency model (DIMACS, for \
          external SAT/#SAT tools) and decompiled source.")
    Term.(const run $ seed_arg $ classes_arg $ cnf_arg $ pool_arg $ source_arg)

let tools_cmd =
  let run () =
    List.iter
      (fun (t : Lbr_decompiler.Tool.t) ->
        Printf.printf "%s\n" t.name;
        List.iter
          (fun (p : Lbr_decompiler.Pattern.t) -> Printf.printf "  pattern: %s\n" p.name)
          t.patterns)
      Lbr_decompiler.Tool.all
  in
  Cmd.v
    (Cmd.info "tools" ~doc:"List the simulated decompilers and their bug patterns.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "lbr-reduce" ~version:"1.0.0"
      ~doc:"Logical bytecode reduction (PLDI 2021) — reference OCaml implementation."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            example_cmd;
            reduce_cmd;
            serve_cmd;
            coordinate_cmd;
            submit_cmd;
            top_cmd;
            trace_dump_cmd;
            trace_merge_cmd;
            report_cmd;
            stats_cmd;
            export_cmd;
            tools_cmd;
          ]))
