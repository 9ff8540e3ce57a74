(* Tests for the reduction service: wire codec totality and round-trips,
   the write-ahead journal, scheduler admission/backpressure/cancellation
   (with stub runners), crash-resume replay with the real runner, and the
   socket server end to end against in-process reference runs. *)

open Lbr_server

let qsuite name props = (name, List.map QCheck_alcotest.to_alcotest props)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let fresh_dir =
  let counter = ref 0 in
  fun label ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lbr-server-test-%d-%d-%s" (Unix.getpid ()) !counter label)
    in
    let rec rm path =
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
    in
    rm dir;
    Unix.mkdir dir 0o755;
    dir

let pool_bytes_of_seed ?(classes = 18) seed =
  Lbr_jvm.Serialize.to_bytes
    (Lbr_workload.Generator.generate ~seed (Lbr_workload.Generator.njr_profile ~classes))

let spec_of_seed ?classes ?(priority = Wire.Normal)
    ?(strategy = Lbr_harness.Experiment.Gbr) seed =
  {
    Wire.tool = "";
    strategy;
    priority;
    crash_policy = Lbr_runtime.Oracle.Crash_raises;
    retries = 0;
    pool_bytes = pool_bytes_of_seed ?classes seed;
    frontend = "jvm";
    trace_ctx = None;
  }

(* The in-process reference for what the service should compute on
   [spec_of_seed seed]: same pool, same tool-resolution rule as
   Runner.reduce. *)
let reference_run ?classes ?(strategy = Lbr_harness.Experiment.Gbr) seed =
  let pool =
    match Lbr_jvm.Serialize.of_bytes (pool_bytes_of_seed ?classes seed) with
    | Ok pool -> pool
    | Error m -> Alcotest.failf "reference pool does not decode: %s" m
  in
  let tool =
    match
      List.find_opt (fun t -> Lbr_decompiler.Tool.is_buggy_on t pool) Lbr_decompiler.Tool.all
    with
    | Some t -> t
    | None -> Alcotest.failf "seed %d: no tool is buggy; pick another fixture seed" seed
  in
  let instance =
    {
      Lbr_harness.Corpus.instance_id = Printf.sprintf "ref-%d" seed;
      benchmark = { Lbr_harness.Corpus.bench_id = Printf.sprintf "ref-%d" seed; seed; pool };
      tool;
      baseline_errors = Lbr_decompiler.Tool.errors tool pool;
    }
  in
  let outcome, final = Lbr_harness.Experiment.run_with strategy instance in
  (outcome, Lbr_jvm.Serialize.to_bytes final)

let some_stats =
  {
    Wire.ok = true;
    predicate_runs = 123;
    replayed_runs = 7;
    tool_executions = 130;
    oracle_retries = 4;
    oracle_crashes = 1;
    sim_time = 34.5;
    wall_time = 0.75;
    classes0 = 30;
    classes1 = 7;
    bytes0 = 21862;
    bytes1 = 1914;
  }

let some_ctx =
  Some { Lbr_obs.Trace.Context.trace_id = "00deadbeef00cafe"; parent_span = "0123456789abcdef" }

let sample_messages =
  [
    Wire.Hello 1;
    Wire.Hello_ok 1;
    Wire.Submit (spec_of_seed ~classes:6 1);
    Wire.Submit { (spec_of_seed ~classes:6 1) with Wire.trace_ctx = some_ctx };
    Wire.Submit
      { (spec_of_seed ~classes:6 1) with Wire.frontend = "dimacs"; trace_ctx = some_ctx };
    Wire.Submit_seeded
      {
        spec = spec_of_seed ~classes:6 1;
        seeds = [ (String.make 32 'a', true); (String.make 32 'b', false) ];
      };
    Wire.Submit_seeded
      {
        spec = { (spec_of_seed ~classes:6 1) with Wire.trace_ctx = some_ctx };
        seeds = [ (String.make 32 'a', true) ];
      };
    Wire.Verdict
      { job_id = "job-000042"; key = String.make 32 'c'; ok = true; ctx = None };
    Wire.Verdict
      { job_id = "job-000042"; key = String.make 32 'c'; ok = false; ctx = some_ctx };
    Wire.Trace_dump_request;
    Wire.Trace_dump_reply
      {
        Lbr_obs.Tdump.nd_node = "127.0.0.1:7421";
        nd_epoch = 1754700000.125;
        nd_server_now = 1754700012.5;
        nd_client_mid = 1754700012.5;
        nd_dropped = 3;
        nd_events =
          [
            {
              Lbr_obs.Trace.ev_name = "coordinator.job";
              ev_ph = 'X';
              ev_ts = 120.5;
              ev_dur = 880.25;
              ev_tid = 0;
              ev_args =
                [ ("job", Lbr_obs.Trace.Str "job-000042"); ("attempts", Lbr_obs.Trace.Int 1) ];
            };
            {
              Lbr_obs.Trace.ev_name = "spec.launch";
              ev_ph = 'i';
              ev_ts = 130.;
              ev_dur = 0.;
              ev_tid = 2;
              ev_args = [ ("waste", Lbr_obs.Trace.Float 0.25); ("hot", Lbr_obs.Trace.Bool true) ];
            };
          ];
      };
    Wire.Accepted "job-000042";
    Wire.Rejected { reason = "queue full"; retry_after = 2.5 };
    Wire.Cancel "job-000042";
    Wire.Cancel_ok { job_id = "job-000042"; found = true };
    Wire.Progress { job_id = "job-000042"; sim_time = 17.25; classes = 12; bytes = 4096 };
    Wire.Result { job_id = "job-000042"; stats = some_stats; pool_bytes = "LBRC-ish bytes" };
    Wire.Job_failed { job_id = "job-000042"; reason = "tool is not buggy" };
    Wire.Protocol_error "expected hello";
    Wire.Stats_request;
    Wire.Stats_reply
      {
        Wire.queued_jobs = 2;
        running_jobs = 1;
        job_stats =
          [
            { Wire.js_id = "job-000001"; js_running = true; js_best = Some (12.5, 9, 4210) };
            { Wire.js_id = "job-000002"; js_running = false; js_best = None };
          ];
        uptime = 98.5;
        node = "127.0.0.1:7421";
        metrics =
          [
            ( "",
              [
                ("lbr_jobs_total", "jobs", Lbr_obs.Metrics.D_counter 42);
                ("lbr_queue_depth", "", Lbr_obs.Metrics.D_gauge 2.5);
                ( "lbr_latency_seconds",
                  "verdict latency",
                  Lbr_obs.Metrics.D_hist
                    { d_lo = 0.001; d_growth = 2.0; d_counts = [| 1; 0; 3 |]; d_sum = 0.75 } );
              ] );
            ("w0", [ ("lbr_replayed_verdicts_total", "", Lbr_obs.Metrics.D_counter 45) ]);
            ("cluster", []);
          ];
      };
  ]

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let check_message_equal what (a : Wire.message) (b : Wire.message) =
  (* structural equality is fine: messages are immutable data *)
  Alcotest.(check bool) what true (a = b)

(* a frame with its length prefix stripped *)
let payload_of msg =
  let frame = Wire.encode msg in
  String.sub frame 4 (String.length frame - 4)

let test_wire_roundtrip () =
  List.iter
    (fun msg ->
      match Wire.decode_payload (payload_of msg) with
      | Ok decoded -> check_message_equal "roundtrip" msg decoded
      | Error m -> Alcotest.failf "decode failed: %s" m)
    sample_messages

let test_wire_socket_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter
    (fun msg ->
      Wire.write_message a msg;
      match Wire.read_message b with
      | Ok decoded -> check_message_equal "socket roundtrip" msg decoded
      | Error `Closed -> Alcotest.fail "unexpected close"
      | Error (`Malformed m) -> Alcotest.failf "malformed: %s" m)
    sample_messages;
  Unix.close a;
  (match Wire.read_message b with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "expected Closed after peer shutdown");
  Unix.close b

let test_wire_rejects_oversized_and_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* length prefix larger than max_frame *)
  let huge = Bytes.create 4 in
  Bytes.set huge 0 '\xff';
  Bytes.set huge 1 '\xff';
  Bytes.set huge 2 '\xff';
  Bytes.set huge 3 '\xff';
  ignore (Unix.write a huge 0 4 : int);
  (match Wire.read_message b with
  | Error (`Malformed _) -> ()
  | _ -> Alcotest.fail "oversized frame must be malformed");
  Unix.close a;
  Unix.close b;
  (* frame body cut short by a closing peer *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Wire.encode (Wire.Accepted "job-000001") in
  ignore (Unix.write_substring a frame 0 (String.length frame - 3) : int);
  Unix.close a;
  (match Wire.read_message b with
  | Error (`Malformed _) -> ()
  | _ -> Alcotest.fail "truncated frame must be malformed");
  Unix.close b

let test_wire_empty_frame_is_malformed () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write a (Bytes.make 4 '\000') 0 4 : int);
  (match Wire.read_message b with
  | Error (`Malformed _) -> ()
  | _ -> Alcotest.fail "empty frame must be malformed");
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Format pins: the exact bytes of every binary format the system writes
   (wire frames, journaled specs, metric dumps, .tdump captures, LBRC
   pools, verdict-cache keys), as MD5 digests.  Files and peers written
   by an earlier build must stay readable, so any change here is a
   format change and needs a version bump. *)

let pinned_node_dump =
  {
    Lbr_cluster.Trace_merge.nd_node = "127.0.0.1:7101";
    nd_epoch = 1754700000.125;
    nd_server_now = 1754700012.5;
    nd_client_mid = 1754700012.625;
    nd_dropped = 2;
    nd_events =
      [
        {
          Lbr_obs.Trace.ev_name = "coordinator.job";
          ev_ph = 'X';
          ev_ts = 120.5;
          ev_dur = 880.25;
          ev_tid = 1;
          ev_args =
            [
              ("span_id", Lbr_obs.Trace.Str "0123456789abcdef");
              ("attempts", Lbr_obs.Trace.Int (-3));
              ("waste", Lbr_obs.Trace.Float 0.25);
              ("hot", Lbr_obs.Trace.Bool false);
            ];
        };
        {
          Lbr_obs.Trace.ev_name = "core.predicate";
          ev_ph = 'i';
          ev_ts = 130.;
          ev_dur = 0.;
          ev_tid = 0;
          ev_args = [];
        };
      ];
  }

let pinned_dump =
  let open Lbr_obs.Metrics in
  [
    ("gauge_x", "g", D_gauge 1.5);
    ("hist_y", "h", D_hist { d_lo = 0.01; d_growth = 2.0; d_counts = [| 1; 2; 0 |]; d_sum = 3.5 });
    ("jobs_total", "j", D_counter 3);
    ("only_first", "o", D_counter 7);
  ]

let pinned_formats () =
  let spec =
    { (spec_of_seed ~classes:10 ~priority:Wire.High 3) with Wire.trace_ctx = some_ctx }
  in
  let key_spec =
    {
      (spec_of_seed ~classes:6 1) with
      Wire.crash_policy = Lbr_runtime.Oracle.Crash_passes;
      retries = 3;
    }
  in
  List.mapi (fun i msg -> (Printf.sprintf "Wire.encode sample %d" i, Wire.encode msg)) sample_messages
  @ [
      ("Wire.spec_to_string", Wire.spec_to_string spec);
      ("Metrics.encode_dump", Lbr_obs.Metrics.encode_dump pinned_dump);
      ("Trace_merge.to_string", Lbr_cluster.Trace_merge.to_string pinned_node_dump);
      ( "Serialize.to_bytes",
        Lbr_jvm.Serialize.to_bytes
          (Lbr_workload.Generator.generate ~seed:1
             { Lbr_workload.Generator.default_profile with classes = 12 }) );
    ]
  |> List.map (fun (what, bytes) -> (what, Digest.to_hex (Digest.string bytes)))
  |> fun digests -> digests @ [ ("Cache.job_key", Lbr_cluster.Cache.job_key key_spec) ]

let test_formats_pinned () =
  let expected =
    [
      ("Wire.encode sample 0", "929691b4a8bdf137e5af64d278e7ffb9");
      ("Wire.encode sample 1", "3f08c2d15ac2dfec96f66bb7f29d83bc");
      ("Wire.encode sample 2", "5c6c11bc24384725b02156c63dfac017");
      ("Wire.encode sample 3", "e827160db3f821097934bf66b42d3a61");
      ("Wire.encode sample 4", "a0108b8457b02f14353a68b0da11534f");
      ("Wire.encode sample 5", "87fde49802db21cadcb0ec1fac46e4ca");
      ("Wire.encode sample 6", "fd425a9a7d27f311a65bb6848634859c");
      ("Wire.encode sample 7", "a48b7561aa7fb9e9fac702584594d962");
      ("Wire.encode sample 8", "a090adcb9c6c8d96ad60277c0bce9e4b");
      ("Wire.encode sample 9", "e7d2211a96a4f0dd34b102d5c25afd44");
      ("Wire.encode sample 10", "acb96efd9e53c80c69169dcdf4b9e85b");
      ("Wire.encode sample 11", "301859b261518e8fcd3522fec8163c1c");
      ("Wire.encode sample 12", "86c03c037bfbd602c4a82d7b5482ef83");
      ("Wire.encode sample 13", "3d0b3e6016c032807a7bd41220cc4e98");
      ("Wire.encode sample 14", "28083ae72a752d0d668582bbc5cc7284");
      ("Wire.encode sample 15", "9e853fd6b863deb3cab9c7e60fbe52af");
      ("Wire.encode sample 16", "477104f5b4928b1d05f835ce9e0468d7");
      ("Wire.encode sample 17", "04951bf33a2d1ffa5eb6d1acbe01b011");
      ("Wire.encode sample 18", "388fa592fa59461a201dd8014e9c7fba");
      ("Wire.encode sample 19", "051293ae44cefb561b4c63a2370c0f0b");
      ("Wire.encode sample 20", "dc79a9c3764349dfdbcf8e4af14198c7");
      ("Wire.spec_to_string", "8175a01082a09a7e0ba08eb8730e50ec");
      ("Metrics.encode_dump", "34a61edd5a2a0337f82c6e614c9baaa5");
      ("Trace_merge.to_string", "ba3e92e5d0f5800c850e92a5c2c1f3f7");
      ("Serialize.to_bytes", "016b88bb44c671fbe06ecf91fcf8f5a2");
      ("Cache.job_key", "c9c273b12244b7f639b5db6944bb0de1");
    ]
  in
  Alcotest.(check (list (pair string string))) "format digests" expected (pinned_formats ())

(* decode_payload must be total on adversarial input *)
let prop_wire_decode_never_raises =
  QCheck.Test.make ~count:500 ~name:"decode_payload never raises on random bytes"
    QCheck.(string_of_size Gen.(0 -- 2048))
    (fun data ->
      match Wire.decode_payload data with Ok _ | Error _ -> true)

(* Every field is always written, so no strict prefix of a payload is
   itself a message: each one must decode to [Error]. *)
let prop_wire_truncation_rejected =
  QCheck.Test.make ~count:300 ~name:"truncated payloads decode to Error only"
    QCheck.(int_bound (List.length sample_messages - 1))
    (fun i ->
      let payload = payload_of (List.nth sample_messages i) in
      List.for_all
        (fun n -> Result.is_error (Wire.decode_payload (String.sub payload 0 n)))
        (List.init (String.length payload) Fun.id))

(* A traced Verdict cut just before its context fields (at 579‰ of its
   payload): the cut that once decoded as a whole, context-free Verdict. *)
let test_wire_truncated_verdict_is_error () =
  let payload = payload_of (List.nth sample_messages 8) in
  let cut = 579 * (String.length payload - 1) / 1000 in
  match Wire.decode_payload (String.sub payload 0 cut) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a cut Verdict decoded to a message"

let prop_wire_bitflip_never_raises =
  QCheck.Test.make ~count:300 ~name:"bit-flipped payloads never raise"
    QCheck.(pair (int_bound (List.length sample_messages - 1)) (pair small_nat (int_bound 7)))
    (fun (i, (pos, bit)) ->
      let payload = Bytes.of_string (payload_of (List.nth sample_messages i)) in
      let pos = pos mod Bytes.length payload in
      Bytes.set payload pos
        (Char.chr (Char.code (Bytes.get payload pos) lxor (1 lsl bit)));
      match Wire.decode_payload (Bytes.to_string payload) with Ok _ | Error _ -> true)

(* Every frontend, with and without a trace context, on every frame that
   carries one. *)
let ctx_spec_gen =
  (* one shared pool: the generator varies only the frontend and ctx *)
  let base = spec_of_seed ~classes:6 1 in
  QCheck.Gen.(
    map2
      (fun frontend ctx -> { base with Wire.frontend; trace_ctx = ctx })
      (oneofl [ "jvm"; "dimacs"; "fjtree" ])
      (opt
         (map2
            (fun a b ->
              {
                Lbr_obs.Trace.Context.trace_id = Printf.sprintf "%016Lx" (Int64.of_int a);
                parent_span = Printf.sprintf "%016Lx" (Int64.of_int b);
              })
            int int)))

let prop_wire_ctx_roundtrip =
  QCheck.Test.make ~count:100 ~name:"contexts round-trip on every ctx'd frame"
    (QCheck.make ctx_spec_gen)
    (fun spec ->
      [
        Wire.Submit spec;
        Wire.Submit_seeded { spec; seeds = [ (String.make 32 'a', true) ] };
        Wire.Verdict
          { job_id = "job-1"; key = String.make 32 'k'; ok = true; ctx = spec.Wire.trace_ctx };
      ]
      |> List.for_all (fun msg -> Wire.decode_payload (payload_of msg) = Ok msg))

(* A Stats_reply with random labelled registry views — the shape a
   coordinator sends: any labels, any mix of counters, gauges and valid
   histogram layouts, in any order. *)
let views_gen =
  let open QCheck.Gen in
  let dumped =
    oneof
      [
        map (fun n -> Lbr_obs.Metrics.D_counter n) (int_bound 1_000_000);
        map (fun g -> Lbr_obs.Metrics.D_gauge g) (float_range (-1e6) 1e6);
        map3
          (fun lo counts sum ->
            Lbr_obs.Metrics.D_hist
              { d_lo = lo; d_growth = 2.0; d_counts = Array.of_list counts; d_sum = sum })
          (float_range 1e-6 1.) (list_size (int_range 2 8) (int_bound 1000)) (float_range 0. 1e3);
      ]
  in
  let entry =
    triple (map (Printf.sprintf "m_%d") (int_bound 50)) (string_size ~gen:printable (int_bound 8)) dumped
  in
  let label = oneof [ oneofl [ ""; "cluster" ]; map (Printf.sprintf "w%d") (int_bound 9) ] in
  list_size (int_bound 5) (pair label (list_size (int_bound 6) entry))

let prop_wire_stats_reply_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Stats_reply round-trips random labelled views"
    (QCheck.make QCheck.Gen.(pair views_gen (int_bound 20)))
    (fun (metrics, queued_jobs) ->
      let msg =
        Wire.Stats_reply
          {
            Wire.queued_jobs;
            running_jobs = 1;
            job_stats = [];
            uptime = 3.5;
            node = "127.0.0.1:7421";
            metrics;
          }
      in
      Wire.decode_payload (payload_of msg) = Ok msg)

let test_spec_string_roundtrip () =
  let spec = spec_of_seed ~classes:10 ~priority:Wire.High 3 in
  match Wire.spec_of_string (Wire.spec_to_string spec) with
  | Ok spec' -> Alcotest.(check bool) "spec roundtrip" true (spec = spec')
  | Error m -> Alcotest.failf "spec does not roundtrip: %s" m

(* ------------------------------------------------------------------ *)
(* Wire over TCP — the framing must behave identically over a loopback
   TCP stream: same roundtrips, same total rejection of truncated and
   bit-flipped frames.  (TCP can fragment writes at different boundaries
   than a Unix socketpair, which is exactly what these exercise.) *)

let tcp_pair () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let b, _ = Unix.accept srv in
  Unix.close srv;
  (a, b)

let test_wire_tcp_roundtrip () =
  let a, b = tcp_pair () in
  List.iter
    (fun msg ->
      Wire.write_message a msg;
      match Wire.read_message b with
      | Ok decoded -> check_message_equal "tcp roundtrip" msg decoded
      | Error `Closed -> Alcotest.fail "unexpected close"
      | Error (`Malformed m) -> Alcotest.failf "malformed over tcp: %s" m)
    sample_messages;
  Unix.close a;
  (match Wire.read_message b with
  | Error `Closed -> ()
  | _ -> Alcotest.fail "expected Closed after tcp peer shutdown");
  Unix.close b

let prop_wire_tcp_truncation_rejected =
  QCheck.Test.make ~count:100
    ~name:"tcp: truncated frames never decode to a message"
    QCheck.(pair (int_bound (List.length sample_messages - 1)) (int_bound 1000))
    (fun (i, cut) ->
      let msg = List.nth sample_messages i in
      let frame = Wire.encode msg in
      (* keep a strict prefix of the whole frame (prefix included), then
         hang up — the reader must report Closed or Malformed, never Ok *)
      let keep = cut * (String.length frame - 1) / 1000 in
      let a, b = tcp_pair () in
      ignore (Unix.write_substring a frame 0 keep : int);
      Unix.close a;
      let verdict =
        match Wire.read_message b with Ok _ -> false | Error _ -> true
      in
      Unix.close b;
      verdict)

let prop_wire_tcp_bitflip_never_raises =
  QCheck.Test.make ~count:100 ~name:"tcp: bit-flipped frames never raise"
    QCheck.(pair (int_bound (List.length sample_messages - 1)) (pair small_nat (int_bound 7)))
    (fun (i, (pos, bit)) ->
      let msg = List.nth sample_messages i in
      let frame = Bytes.of_string (Wire.encode msg) in
      let pos = pos mod Bytes.length frame in
      Bytes.set frame pos
        (Char.chr (Char.code (Bytes.get frame pos) lxor (1 lsl bit)));
      let a, b = tcp_pair () in
      ignore (Unix.write a frame 0 (Bytes.length frame) : int);
      (* close so a flipped (larger) length prefix hits EOF, not a hang *)
      Unix.close a;
      let verdict =
        match Wire.read_message b with Ok _ | Error _ -> true
      in
      Unix.close b;
      verdict)

(* Both ends of a TCP connection the service makes send each frame at
   once: [Addr.connect] and [Addr.accept] set [TCP_NODELAY].  The
   listener does not set it, so the accepted socket cannot inherit it.
   A Unix-socket pair, where the option does not exist, still connects
   and carries a frame. *)
let test_addr_tcp_nodelay () =
  let connect addr =
    match Addr.connect addr with Ok fd -> fd | Error m -> Alcotest.failf "connect: %s" m
  in
  let listener = Addr.listen (Addr.Tcp ("127.0.0.1", 0)) in
  let client = connect (Addr.Tcp ("127.0.0.1", Addr.bound_port listener)) in
  let server = Addr.accept listener in
  Alcotest.(check bool) "connected socket" true (Unix.getsockopt client Unix.TCP_NODELAY);
  Alcotest.(check bool) "accepted socket" true (Unix.getsockopt server Unix.TCP_NODELAY);
  List.iter Unix.close [ client; server; listener ];
  let path = Filename.concat (fresh_dir "nodelay") "s.sock" in
  let listener = Addr.listen (Addr.Unix_path path) in
  let client = connect (Addr.Unix_path path) in
  let server = Addr.accept listener in
  Wire.write_message client (Wire.Hello Wire.protocol_version);
  (match Wire.read_message server with
  | Ok (Wire.Hello v) -> Alcotest.(check int) "unix pair carries a frame" Wire.protocol_version v
  | _ -> Alcotest.fail "no hello over the unix pair");
  List.iter Unix.close [ client; server; listener ]

(* ------------------------------------------------------------------ *)
(* Append log                                                          *)

(* Lines of any length up to a few chunks of [Append_log]'s backward
   scan, never containing the separator. *)
let gen_log_line =
  QCheck.Gen.(
    map
      (String.map (fun c -> if c = '\n' then ' ' else c))
      (string_size ~gen:char (frequency [ (9, 0 -- 40); (1, 4000 -- 9000) ])))

(* kill -9 mid-append: write [lines], cut the file at any byte of its
   last line (its newline excluded, so the line is torn), reopen and
   append [more].  The log then holds exactly the lines before the cut,
   then [more] — the fragment is neither yielded nor glued to a new line. *)
let prop_append_log_torn_tail =
  let dir = lazy (fresh_dir "append-log") in
  let case = ref 0 in
  QCheck.Test.make ~count:200 ~name:"torn tail is dropped, later appends survive"
    QCheck.(
      make
        ~print:Print.(triple (list string) int (list string))
        Gen.(
          triple
            (list_size (1 -- 20) gen_log_line)
            nat
            (list_size (0 -- 5) gen_log_line)))
    (fun (lines, cut, more) ->
      incr case;
      let path = Filename.concat (Lazy.force dir) (Printf.sprintf "log-%d" !case) in
      let write path lines =
        let log = Append_log.open_ path in
        List.iter (Append_log.append log) lines;
        Append_log.close log
      in
      write path lines;
      let whole = List.filteri (fun i _ -> i < List.length lines - 1) lines in
      let last = List.nth lines (List.length lines - 1) in
      let start = List.fold_left (fun n l -> n + String.length l + 1) 0 whole in
      Unix.truncate path (start + (cut mod (String.length last + 1)));
      let read () = List.rev (Append_log.fold path ~init:[] ~f:(fun acc l -> l :: acc)) in
      let before = read () in
      write path more;
      let after = read () in
      Sys.remove path;
      before = whole && after = whole @ more)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let test_journal_record_and_replay () =
  let j = Journal.open_dir (fresh_dir "journal") in
  Journal.record_job j ~id:"job-000001" ~spec:"SPEC BYTES";
  Journal.append_pred j ~id:"job-000001" ~key:(String.make 32 'a') ~latency:0.001 ~retries:0
    true;
  Journal.append_pred j ~id:"job-000001" ~key:(String.make 32 'b') ~latency:0.001 ~retries:0
    false;
  Alcotest.(check (list (pair string string)))
    "pending sees the job"
    [ ("job-000001", "SPEC BYTES") ]
    (Journal.pending j);
  let table = Journal.replay j ~id:"job-000001" in
  Alcotest.(check (option bool)) "true entry" (Some true)
    (Hashtbl.find_opt table (String.make 32 'a'));
  Alcotest.(check (option bool)) "false entry" (Some false)
    (Hashtbl.find_opt table (String.make 32 'b'));
  Journal.mark_done j ~id:"job-000001";
  Alcotest.(check (list (pair string string))) "done job no longer pending" []
    (Journal.pending j);
  Alcotest.(check int) "max job number" 1 (Journal.max_job_number j);
  Journal.close j

let test_journal_tolerates_torn_line () =
  let dir = fresh_dir "torn" in
  let j = Journal.open_dir dir in
  Journal.record_job j ~id:"job-000007" ~spec:"S";
  Journal.append_pred j ~id:"job-000007" ~key:(String.make 32 '1') ~latency:0.001 ~retries:0
    true;
  Journal.close j;
  (* simulate a crash mid-append: a torn trailing line *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644
      (Filename.concat (Filename.concat dir "job-000007") "preds.log")
  in
  output_string oc (String.make 10 '2');
  close_out oc;
  let j = Journal.open_dir dir in
  let table = Journal.replay j ~id:"job-000007" in
  Alcotest.(check int) "only the whole line survives" 1 (Hashtbl.length table);
  Alcotest.(check int) "max job number" 7 (Journal.max_job_number j);
  Journal.close j

(* A daemon killed mid-append leaves a torn fragment after its last whole
   verdict.  The restarted daemon must cut it off before appending, or
   its first new verdict is glued to the fragment and lost. *)
let test_journal_append_after_torn_tail () =
  let dir = fresh_dir "torn-append" in
  let j = Journal.open_dir dir in
  Journal.record_job j ~id:"job-000002" ~spec:"S";
  Journal.append_pred j ~id:"job-000002" ~key:(String.make 32 'a') ~latency:0.001 ~retries:0
    true;
  Journal.close j;
  let log = Filename.concat (Filename.concat dir "job-000002") "preds.log" in
  let whole = In_channel.with_open_bin log In_channel.input_all in
  (* the second verdict's line, cut mid-append *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 log (fun oc ->
      output_string oc (String.make 32 'b' ^ " 0 12"));
  let j = Journal.open_dir dir in
  Journal.append_pred j ~id:"job-000002" ~key:(String.make 32 'c') ~latency:0.002 ~retries:1
    false;
  let table = Journal.replay j ~id:"job-000002" in
  Journal.close j;
  Alcotest.(check (list (pair string bool)))
    "both whole verdicts replay"
    [ (String.make 32 'a', true); (String.make 32 'c', false) ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq table)));
  Alcotest.(check string) "the torn fragment is cut, not sealed"
    (whole ^ String.make 32 'c' ^ " 0 2000 1\n")
    (In_channel.with_open_bin log In_channel.input_all)

let test_journal_line_shape () =
  let dir = fresh_dir "lines" in
  let j = Journal.open_dir dir in
  Journal.record_job j ~id:"job-000003" ~spec:"S";
  Journal.append_pred j ~id:"job-000003" ~key:(String.make 32 'a') ~latency:0.5 ~retries:0
    true;
  Journal.append_pred j ~id:"job-000003" ~key:(String.make 32 'b') ~latency:0.25 ~retries:2
    false;
  Journal.append_pred j ~id:"job-000003" ~key:(String.make 32 'c') ~latency:1e-6 ~retries:0
    true;
  Journal.close j;
  let j = Journal.open_dir dir in
  let table = Journal.replay j ~id:"job-000003" in
  Alcotest.(check int) "all three lines replay" 3 (Hashtbl.length table);
  Alcotest.(check (option bool)) "runner verdict readable" (Some false)
    (Hashtbl.find_opt table (String.make 32 'b'));
  (match Journal.verdicts j ~id:"job-000003" with
  | [ a; b; c ] ->
      Alcotest.(check (float 1e-9)) "runner latency survives (us precision)" 0.25
        b.Journal.v_latency;
      Alcotest.(check int) "runner retries survive" 2 b.Journal.v_retries;
      Alcotest.(check (float 1e-12)) "1us latency survives" 1e-6 c.Journal.v_latency;
      Alcotest.(check bool) "append order preserved" true (a.Journal.v_ok && c.Journal.v_ok)
  | vs -> Alcotest.failf "expected 3 verdicts, got %d" (List.length vs));
  Alcotest.(check (list string)) "jobs lists the journaled job" [ "job-000003" ]
    (Journal.jobs j);
  Journal.close j

let test_journal_rejects_unsafe_ids () =
  let j = Journal.open_dir (fresh_dir "ids") in
  Alcotest.check_raises "path escape" (Invalid_argument "Journal: unsafe job id ../evil")
    (fun () -> Journal.record_job j ~id:"../evil" ~spec:"S");
  Journal.close j

(* ------------------------------------------------------------------ *)
(* Scheduler (stub runners)                                            *)

let await_done sched id =
  match Scheduler.await sched id with
  | Scheduler.Done (stats, bytes) -> (stats, bytes)
  | Scheduler.Failed m -> Alcotest.failf "job failed: %s" m
  | Scheduler.Cancelled -> Alcotest.fail "job cancelled"

let trivial_stats =
  {
    Wire.ok = true;
    predicate_runs = 0;
    replayed_runs = 0;
    tool_executions = 0;
    oracle_retries = 0;
    oracle_crashes = 0;
    sim_time = 0.;
    wall_time = 0.;
    classes0 = 0;
    classes1 = 0;
    bytes0 = 0;
    bytes1 = 0;
  }

(* block a runner until [gate] opens, or until its job is cancelled *)
let await_gate gate (ctx : Scheduler.runner_ctx) =
  while not (Atomic.get gate) do
    if ctx.should_stop () then raise Lbr_frontend.Run.Cancelled;
    Thread.delay 0.002
  done

(* a runner that blocks until [gate] opens, then echoes the job id *)
let gated_runner gate started (ctx : Scheduler.runner_ctx) (_ : Wire.spec) =
  Atomic.incr started;
  await_gate gate ctx;
  Ok (trivial_stats, ctx.job_id)

let tiny_spec = lazy (spec_of_seed ~classes:6 1)
let tiny_spec_high =
  lazy { (Lazy.force tiny_spec) with Wire.priority = Wire.High }

let test_scheduler_backpressure () =
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let sched =
    Scheduler.create ~runner:(gated_runner gate started) ~jobs:1 ~queue_depth:2 ()
  in
  let submit () = Scheduler.submit sched (Lazy.force tiny_spec) in
  let submit_ok () =
    match submit () with
    | Ok id -> id
    | Error _ -> Alcotest.fail "early submission rejected"
  in
  (* one job occupies the worker... *)
  let first = submit_ok () in
  while Atomic.get started < 1 do
    Thread.delay 0.002
  done;
  (* ...then two fill the queue *)
  let ids = [ first; submit_ok (); submit_ok () ] in
  (match submit () with
  | Error (`Queue_full retry_after) ->
      Alcotest.(check bool) "retry_after positive" true (retry_after > 0.)
  | Ok _ -> Alcotest.fail "queue-full submission accepted"
  | Error `Draining -> Alcotest.fail "not draining");
  Atomic.set gate true;
  List.iter
    (fun id ->
      let _, echoed = await_done sched id in
      Alcotest.(check string) "runner saw its own id" id echoed)
    ids;
  (* queue drained: admissions open again *)
  (match submit () with
  | Ok id -> ignore (await_done sched id)
  | Error _ -> Alcotest.fail "post-drain submission rejected");
  Scheduler.shutdown sched

let test_scheduler_cancel_running () =
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let sched =
    Scheduler.create ~runner:(gated_runner gate started) ~jobs:1 ~queue_depth:4 ()
  in
  let id =
    match Scheduler.submit sched (Lazy.force tiny_spec) with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submission rejected"
  in
  while Atomic.get started < 1 do
    Thread.delay 0.002
  done;
  Alcotest.(check bool) "cancel finds the running job" true (Scheduler.cancel sched id);
  (match Scheduler.await sched id with
  | Scheduler.Cancelled -> ()
  | _ -> Alcotest.fail "expected Cancelled");
  Alcotest.(check bool) "second cancel is a no-op" false (Scheduler.cancel sched id);
  Scheduler.shutdown sched

let test_scheduler_cancel_queued_never_runs () =
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let sched =
    Scheduler.create ~runner:(gated_runner gate started) ~jobs:1 ~queue_depth:4 ()
  in
  let submit () =
    match Scheduler.submit sched (Lazy.force tiny_spec) with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submission rejected"
  in
  let first = submit () in
  while Atomic.get started < 1 do
    Thread.delay 0.002
  done;
  let queued = submit () in
  Alcotest.(check bool) "cancel finds the queued job" true (Scheduler.cancel sched queued);
  Atomic.set gate true;
  (match Scheduler.await sched queued with
  | Scheduler.Cancelled -> ()
  | _ -> Alcotest.fail "expected Cancelled");
  ignore (await_done sched first);
  Alcotest.(check int) "cancelled queued job never started" 1 (Atomic.get started);
  Scheduler.shutdown sched

let test_scheduler_priority_order () =
  let gate = Atomic.make false in
  let order_mutex = Mutex.create () in
  let order = ref [] in
  let runner (ctx : Scheduler.runner_ctx) (_ : Wire.spec) =
    while not (Atomic.get gate) do
      Thread.delay 0.002
    done;
    Mutex.lock order_mutex;
    order := ctx.job_id :: !order;
    Mutex.unlock order_mutex;
    Ok (trivial_stats, ctx.job_id)
  in
  let sched = Scheduler.create ~runner ~jobs:1 ~queue_depth:8 () in
  let submit spec =
    match Scheduler.submit sched spec with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submission rejected"
  in
  (* the blocker occupies the single worker; normal then high wait *)
  let blocker = submit (Lazy.force tiny_spec) in
  while Scheduler.running sched < 1 do
    Thread.delay 0.002
  done;
  let normal = submit (Lazy.force tiny_spec) in
  let high = submit (Lazy.force tiny_spec_high) in
  Atomic.set gate true;
  List.iter (fun id -> ignore (await_done sched id)) [ blocker; normal; high ];
  Alcotest.(check (list string))
    "high priority overtakes earlier normal submission"
    [ blocker; high; normal ] (List.rev !order);
  Scheduler.shutdown sched

let test_scheduler_drain_rejects () =
  let sched =
    Scheduler.create
      ~runner:(fun (ctx : Scheduler.runner_ctx) _ -> Ok (trivial_stats, ctx.job_id))
      ~jobs:1 ~queue_depth:2 ()
  in
  (match Scheduler.submit sched (Lazy.force tiny_spec) with
  | Ok id -> ignore (await_done sched id)
  | Error _ -> Alcotest.fail "submission rejected");
  Scheduler.drain sched;
  (match Scheduler.submit sched (Lazy.force tiny_spec) with
  | Error `Draining -> ()
  | _ -> Alcotest.fail "draining scheduler accepted a job");
  Scheduler.shutdown sched

let test_scheduler_events_in_order () =
  let events_mutex = Mutex.create () in
  let events = ref [] in
  let runner (ctx : Scheduler.runner_ctx) (_ : Wire.spec) =
    ctx.progress 1.0 10 100;
    ctx.progress 2.0 5 50;
    Ok (trivial_stats, ctx.job_id)
  in
  let sched = Scheduler.create ~runner ~jobs:1 ~queue_depth:2 () in
  let on_event _id ev =
    Mutex.lock events_mutex;
    events := ev :: !events;
    Mutex.unlock events_mutex
  in
  (match Scheduler.submit sched ~on_event (Lazy.force tiny_spec) with
  | Ok id -> ignore (await_done sched id)
  | Error _ -> Alcotest.fail "submission rejected");
  (* the terminal event is delivered before await returns *)
  (match List.rev !events with
  | [ Scheduler.Started;
      Scheduler.Progress { sim_time = 1.0; classes = 10; bytes = 100 };
      Scheduler.Progress { sim_time = 2.0; classes = 5; bytes = 50 };
      Scheduler.Finished (Scheduler.Done _) ] ->
      ()
  | evs -> Alcotest.failf "unexpected event sequence (%d events)" (List.length evs));
  Scheduler.shutdown sched

(* A finished job's reduced bytes stay in the scheduler only while
   someone can still collect them: without a handler, [await] is the one
   consumer and keeps them; with one, the Finished event and any caller
   already blocked in [await] get them, and later reads see only the
   stats. *)
let test_scheduler_drops_delivered_bytes () =
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let sched =
    Scheduler.create ~runner:(gated_runner gate started) ~jobs:1 ~queue_depth:4 ()
  in
  let bytes_of = function
    | Some (Scheduler.Ended (Scheduler.Done (_, b))) -> b
    | _ -> Alcotest.fail "job not done"
  in
  let submit ?on_event () =
    match Scheduler.submit sched ?on_event (Lazy.force tiny_spec) with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submission rejected"
  in
  Atomic.set gate true;
  (* No handler: the bytes stay for any later reader. *)
  let plain = submit () in
  ignore (await_done sched plain);
  Alcotest.(check string) "handler-less job keeps its bytes" plain
    (bytes_of (Scheduler.status sched plain));
  (* A handler that took the bytes: nothing left to keep. *)
  let delivered = Atomic.make "" in
  let on_event _ = function
    | Scheduler.Finished (Scheduler.Done (_, b)) -> Atomic.set delivered b
    | _ -> ()
  in
  let handled = submit ~on_event () in
  ignore (await_done sched handled);
  Alcotest.(check string) "the handler got the bytes" handled (Atomic.get delivered);
  Alcotest.(check string) "the table dropped them" ""
    (bytes_of (Scheduler.status sched handled));
  (* A caller blocked in [await] when the job ends still gets them. *)
  Atomic.set gate false;
  let waiting = submit ~on_event () in
  let entered = Atomic.make false in
  let got = ref "" in
  let waiter =
    Thread.create
      (fun () ->
        Atomic.set entered true;
        got := snd (await_done sched waiting))
      ()
  in
  while not (Atomic.get entered) do
    Thread.delay 0.002
  done;
  Thread.delay 0.2;
  Atomic.set gate true;
  Thread.join waiter;
  Alcotest.(check string) "a blocked waiter gets the bytes" waiting !got;
  Alcotest.(check string) "then the table drops them" ""
    (bytes_of (Scheduler.status sched waiting));
  Scheduler.shutdown sched

(* ------------------------------------------------------------------ *)
(* Journal replay with the real runner                                 *)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let with_server ?(jobs = 2) ?(queue_depth = 8) ?journal_dir label f =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lbr-test-%d-%s.sock" (Unix.getpid ()) label)
  in
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let server =
    Server.start { Server.listen = Addr.Unix_path socket_path; jobs; queue_depth; journal_dir }
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f socket_path server)

(* A counter's value in a daemon's own metric view; 0 when absent. *)
let own_counter (s : Wire.daemon_stats) name =
  match Lbr_obs.Metrics.find_in_dump (List.assoc "" s.metrics) name with
  | Some (Lbr_obs.Metrics.D_counter n) -> n
  | _ -> 0

let test_journal_replay_resumes_with_fewer_executions () =
  (* Cold run, journaled. *)
  let dir1 = fresh_dir "cold" in
  let j1 = Journal.open_dir dir1 in
  let sched1 =
    Scheduler.create ~runner:Runner.reduce ~jobs:1 ~queue_depth:2 ~journal:j1 ()
  in
  let spec = spec_of_seed ~classes:18 11 in
  let id1 =
    match Scheduler.submit sched1 spec with
    | Ok id -> id
    | Error _ -> Alcotest.fail "cold submission rejected"
  in
  let cold_stats, cold_bytes = await_done sched1 id1 in
  Scheduler.shutdown sched1;
  Journal.close j1;
  Alcotest.(check int) "cold run replays nothing" 0 cold_stats.Wire.replayed_runs;
  Alcotest.(check bool) "cold run paid executions" true (cold_stats.Wire.tool_executions > 5);
  (* Fabricate the kill -9 state: same spec, a strict prefix of the
     predicate log, no terminal marker. *)
  let cold_log = read_lines (Filename.concat (Filename.concat dir1 id1) "preds.log") in
  let prefix_len = List.length cold_log / 2 in
  Alcotest.(check bool) "enough log to truncate" true (prefix_len >= 1);
  let dir2 = fresh_dir "resume" in
  let j2 = Journal.open_dir dir2 in
  Journal.record_job j2 ~id:id1 ~spec:(Wire.spec_to_string spec);
  List.iteri
    (fun i line ->
      if i < prefix_len then
        Journal.append_pred j2 ~id:id1
          ~key:(String.sub line 0 32)
          ~latency:0. ~retries:0
          (line.[33] = '1'))
    cold_log;
  Journal.close j2;
  (* Restart a daemon on it: recovery must re-admit exactly this job and
     finish it with strictly fewer tool executions, same everything else,
     and the daemon's replayed-verdict counter must grow by exactly the
     job's replayed runs. *)
  let replayed0 =
    Option.value ~default:0 (Lbr_obs.Metrics.find_counter_value "lbr_replayed_verdicts_total")
  in
  with_server ~jobs:1 ~journal_dir:dir2 "resume" (fun socket server ->
      Alcotest.(check int) "one job recovered" 1 (Server.recovered server);
      let warm_stats, warm_bytes = await_done (Server.scheduler server) id1 in
      Alcotest.(check string) "resumed pool is byte-identical" cold_bytes warm_bytes;
      Alcotest.(check int) "same predicate runs" cold_stats.Wire.predicate_runs
        warm_stats.Wire.predicate_runs;
      Alcotest.(check (float 1e-9)) "same simulated time" cold_stats.Wire.sim_time
        warm_stats.Wire.sim_time;
      Alcotest.(check int) "replayed exactly the journaled prefix" prefix_len
        warm_stats.Wire.replayed_runs;
      Alcotest.(check bool) "strictly fewer tool executions" true
        (warm_stats.Wire.tool_executions < cold_stats.Wire.tool_executions);
      match Client.connect socket with
      | Error m -> Alcotest.failf "stats connect: %s" m
      | Ok client ->
          let stats = Client.stats client in
          Client.close client;
          (match stats with
          | Error m -> Alcotest.failf "stats: %s" m
          | Ok s ->
              Alcotest.(check int) "daemon reports the job's replayed verdicts"
                warm_stats.Wire.replayed_runs
                (own_counter s "lbr_replayed_verdicts_total" - replayed0)));
  Alcotest.(check bool) "resumed run reaches done" true
    (Sys.file_exists (Filename.concat (Filename.concat dir2 id1) "done"))

(* A spec record cut just before its [frontend] field — the layout of a
   journal written before every spec field was always present.  Recovery
   marks the job failed instead of re-admitting it, so it is not pending
   on the next restart either. *)
let test_recover_marks_corrupt_spec_failed () =
  let dir = fresh_dir "corrupt" in
  let j = Journal.open_dir dir in
  let spec = spec_of_seed ~classes:6 1 in
  let bytes = Wire.spec_to_string spec in
  (* drop the frontend str16 and the absent-context byte *)
  let cut = String.length bytes - (2 + String.length spec.Wire.frontend + 1) in
  Journal.record_job j ~id:"job-000001" ~spec:(String.sub bytes 0 cut);
  let sched = Scheduler.create ~runner:Runner.reduce ~jobs:1 ~queue_depth:2 ~journal:j () in
  Alcotest.(check int) "nothing recovered" 0 (Scheduler.recover sched);
  Scheduler.shutdown sched;
  Alcotest.(check (list (pair string string))) "no longer pending" [] (Journal.pending j);
  Journal.close j;
  let reason =
    In_channel.with_open_bin
      (Filename.concat (Filename.concat dir "job-000001") "failed")
      In_channel.input_all
  in
  Alcotest.(check bool) "failed marker names the corrupt spec" true
    (String.starts_with ~prefix:"corrupt journaled spec: " reason)

(* run_with with a pass-through execute hook must change nothing *)
let test_hooks_passthrough_identical () =
  let _, reference = reference_run ~classes:16 21 in
  let pool =
    match Lbr_jvm.Serialize.of_bytes (pool_bytes_of_seed ~classes:16 21) with
    | Ok p -> p
    | Error m -> Alcotest.failf "pool: %s" m
  in
  let tool =
    List.find (fun t -> Lbr_decompiler.Tool.is_buggy_on t pool) Lbr_decompiler.Tool.all
  in
  let instance =
    {
      Lbr_harness.Corpus.instance_id = "hooked";
      benchmark = { Lbr_harness.Corpus.bench_id = "hooked"; seed = 21; pool };
      tool;
      baseline_errors = Lbr_decompiler.Tool.errors tool pool;
    }
  in
  let keys = ref 0 in
  let hooks =
    {
      Lbr_frontend.Run.default_hooks with
      execute =
        Some
          (fun ~key thunk ->
            Alcotest.(check int) "digest key length" 32 (String.length key);
            incr keys;
            thunk ());
    }
  in
  let outcome, final =
    Lbr_harness.Experiment.run_with ~hooks Lbr_harness.Experiment.Gbr instance
  in
  Alcotest.(check string) "hooked run is byte-identical" reference
    (Lbr_jvm.Serialize.to_bytes final);
  Alcotest.(check int) "every predicate run and the validation run passed through the hook"
    (outcome.predicate_runs + 1) !keys;
  Alcotest.(check int) "pass-through replays nothing" 0 outcome.replayed_runs

(* ------------------------------------------------------------------ *)
(* Runner accounting: one verdict path for every frontend and strategy  *)

(* The pigeonhole core also reduced in the frontend suite. *)
let php_cnf =
  "c lbr keep 1\np cnf 8 11\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n\
   -2 -6 0\n-4 -6 0\n7 8 0\n-7 8 0\n"

let dimacs_spec =
  { (spec_of_seed ~classes:6 1) with Wire.frontend = "dimacs"; pool_bytes = php_cnf }

(* Figure 1, required to keep the call [a.m()]: fj constraints include
   non-graph clauses, and both lossy encodings need several runs here. *)
let fj_spec =
  {
    (spec_of_seed ~classes:6 1) with
    Wire.frontend = "fj";
    tool = "a.m()";
    pool_bytes = Lbr_fji.Pretty.program_to_string (Lbr_fji.Example.model ()).program;
  }

(* What [Runner.reduce] should print for a non-jvm [spec]: the in-process
   driver on the same bytes. *)
let in_process (spec : Wire.spec) =
  Lbr_frontend.Run.reduce_text ~strategy:spec.strategy
    (Result.get_ok (Lbr_frontend.Registry.find spec.frontend))
    ~text:spec.pool_bytes ~spec:spec.tool

(* A runner context over an in-memory journal: [record] appends every
   fresh verdict to [journal]; [replay] answers what an earlier run wrote. *)
let runner_ctx ?(should_stop = fun () -> false) ~replay journal =
  {
    Scheduler.job_id = "runner-test";
    should_stop;
    on_cancel = ignore;
    progress = (fun _ _ _ -> ());
    replay;
    record = (fun ~key ~latency:_ ~retries:_ ok -> journal := (key, ok) :: !journal);
  }

let runner_ok ctx spec =
  match Runner.reduce ctx spec with Ok r -> r | Error m -> Alcotest.failf "runner: %s" m

(* A cold run executes the tool exactly once per journaled verdict — the
   validation run included — and replaying that journal reproduces the
   output byte for byte without executing anything. *)
let check_fresh_then_replayed label spec =
  let ctx f = Printf.sprintf "%s: %s" label f in
  let journal = ref [] in
  let cold, cold_out = runner_ok (runner_ctx ~replay:(Hashtbl.create 1) journal) spec in
  Alcotest.(check int) (ctx "tool_executions = fresh verdicts journaled")
    (List.length !journal) cold.Wire.tool_executions;
  Alcotest.(check int) (ctx "cold run replays nothing") 0 cold.Wire.replayed_runs;
  let replay = Hashtbl.create 64 in
  List.iter (fun (key, ok) -> Hashtbl.replace replay key ok) !journal;
  let rejournal = ref [] in
  let warm, warm_out = runner_ok (runner_ctx ~replay rejournal) spec in
  Alcotest.(check string) (ctx "replay byte-identical") cold_out warm_out;
  Alcotest.(check int) (ctx "replay executes nothing") 0 warm.Wire.tool_executions;
  Alcotest.(check int) (ctx "replay journals nothing") 0 (List.length !rejournal);
  Alcotest.(check int) (ctx "every verdict replayed") cold.Wire.tool_executions
    warm.Wire.replayed_runs;
  Alcotest.(check int) (ctx "same predicate runs") cold.Wire.predicate_runs
    warm.Wire.predicate_runs;
  Alcotest.(check (float 1e-9)) (ctx "same simulated time") cold.Wire.sim_time warm.Wire.sim_time

let test_runner_gbr_executions_match_journal () =
  check_fresh_then_replayed "jvm" (spec_of_seed ~classes:16 21);
  check_fresh_then_replayed "dimacs" dimacs_spec

let baselines = Lbr_harness.Experiment.[ Jreduce; Lossy_first; Lossy_last ]

(* Every baseline job the runner accepts: jvm and dimacs for all three,
   fj for the two lossy encodings (its constraints are not a graph). *)
let baseline_specs () =
  List.concat_map
    (fun strategy ->
      let name = Lbr_harness.Experiment.strategy_name strategy in
      [
        ("jvm " ^ name, spec_of_seed ~classes:16 ~strategy 21);
        ("dimacs " ^ name, { dimacs_spec with Wire.strategy });
      ]
      @ if strategy = Jreduce then [] else [ ("fj " ^ name, { fj_spec with Wire.strategy }) ])
    baselines

let test_runner_baselines_replay () =
  List.iter
    (fun (label, (spec : Wire.spec)) ->
      check_fresh_then_replayed label spec;
      let _, out = runner_ok (runner_ctx ~replay:(Hashtbl.create 1) (ref [])) spec in
      if spec.frontend = "jvm" then begin
        let _, reference = reference_run ~classes:16 ~strategy:spec.strategy 21 in
        Alcotest.(check string) "runner matches the harness" reference out
      end
      else
        match in_process spec with
        | Ok (_, printed) -> Alcotest.(check string) (label ^ ": runner matches Run") printed out
        | Error m -> Alcotest.failf "%s: in-process run failed: %s" label m)
    (baseline_specs ())

(* [should_stop] firing partway through a baseline ends the job as
   Cancelled, exactly as it does for GBR. *)
let test_runner_baseline_cancelled () =
  List.iter
    (fun (label, spec) ->
      let polls = Atomic.make 0 in
      let runner (ctx : Scheduler.runner_ctx) spec =
        Runner.reduce { ctx with should_stop = (fun () -> Atomic.fetch_and_add polls 1 >= 3) } spec
      in
      let sched = Scheduler.create ~runner ~jobs:1 ~queue_depth:2 () in
      (match Scheduler.submit sched spec with
      | Error _ -> Alcotest.fail "submission rejected"
      | Ok id -> (
          match Scheduler.await sched id with
          | Scheduler.Cancelled -> ()
          | _ -> Alcotest.failf "%s: not cancelled" label));
      Alcotest.(check bool) (label ^ ": stopped mid-run") true (Atomic.get polls > 3);
      Scheduler.shutdown sched)
    (baseline_specs ())

(* J-Reduce searches a dependency graph; fj's constraints are not one, so
   the job fails up front, with the driver's own message. *)
let test_runner_jreduce_needs_graph () =
  let spec = { fj_spec with Wire.strategy = Lbr_harness.Experiment.Jreduce } in
  let expected =
    match in_process spec with
    | Error m -> m
    | Ok _ -> Alcotest.fail "j-reduce accepted fj's non-graph constraints"
  in
  Alcotest.(check bool) "message names the graph requirement" true
    (String.starts_with ~prefix:"fj: j-reduce needs graph constraints" expected);
  let sched = Scheduler.create ~runner:Runner.reduce ~jobs:1 ~queue_depth:2 () in
  (match Scheduler.submit sched spec with
  | Error _ -> Alcotest.fail "submission rejected"
  | Ok id -> (
      match Scheduler.await sched id with
      | Scheduler.Failed reason -> Alcotest.(check string) "runner error is Run's" expected reason
      | _ -> Alcotest.fail "j-reduce on fj did not fail"));
  Scheduler.shutdown sched

(* ------------------------------------------------------------------ *)
(* Socket server end to end                                            *)

let test_server_submit_matches_in_process () =
  with_server "match" (fun socket _server ->
      let seed = 21 in
      let ref_outcome, ref_bytes = reference_run ~classes:16 seed in
      match Client.connect socket with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok client ->
          let progress = ref 0 in
          let result =
            Client.submit client
              ~on_progress:(fun _ -> incr progress)
              (spec_of_seed ~classes:16 seed)
          in
          Client.close client;
          (match result with
          | Error m -> Alcotest.failf "submit: %s" m
          | Ok (_, stats, bytes) ->
              Alcotest.(check string) "socket result is byte-identical to Experiment.run"
                ref_bytes bytes;
              Alcotest.(check int) "same predicate runs" ref_outcome.predicate_runs
                stats.Wire.predicate_runs;
              Alcotest.(check (float 1e-9)) "same simulated time" ref_outcome.sim_time
                stats.Wire.sim_time;
              Alcotest.(check int) "progress streamed per improvement"
                (List.length ref_outcome.timeline)
                !progress))

let test_server_three_concurrent_clients_jobs4 () =
  with_server ~jobs:4 "concurrent" (fun socket _server ->
      let seeds = [ 21; 22; 23 ] in
      let references = List.map (fun seed -> reference_run ~classes:16 seed) seeds in
      let results = Array.make (List.length seeds) (Error "not run") in
      let threads =
        List.mapi
          (fun i seed ->
            Thread.create
              (fun () ->
                match Client.connect socket with
                | Error m -> results.(i) <- Error ("connect: " ^ m)
                | Ok client ->
                    results.(i) <- Client.submit client (spec_of_seed ~classes:16 seed);
                    Client.close client)
              ())
          seeds
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i (ref_outcome, ref_bytes) ->
          match results.(i) with
          | Error m -> Alcotest.failf "client %d: %s" i m
          | Ok (_, stats, bytes) ->
              Alcotest.(check string)
                (Printf.sprintf "client %d byte-identical" i)
                ref_bytes bytes;
              Alcotest.(check int)
                (Printf.sprintf "client %d predicate runs" i)
                ref_outcome.Lbr_harness.Experiment.predicate_runs stats.Wire.predicate_runs)
        references)

(* The acceptance scenario for `lbr-reduce top': three jobs submitted to a
   jobs=1 daemon, a dedicated introspection connection polling Stats while
   they are in flight.  Each job reports one improvement, then waits on a
   gate before it reduces for real, so the poll sees one job running with
   a best-so-far (mirrored from its progress stream) and two waiting,
   however fast the jobs would reduce; the gate opens once it has. *)
let test_server_top_stats () =
  let gate = Atomic.make false in
  let runner (ctx : Scheduler.runner_ctx) spec =
    ctx.progress 0. 0 0;
    await_gate gate ctx;
    Runner.reduce ctx spec
  in
  let sched = Scheduler.create ~runner ~jobs:1 ~queue_depth:8 () in
  let server = Server.serve ~listen:(Addr.Tcp ("127.0.0.1", 0)) sched in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Server.stop server)
    (fun () ->
      let socket = Addr.to_string (Server.bound_addr server) in
      let seeds = [ 21; 22; 23 ] in
      let results = Array.make (List.length seeds) (Error "not run") in
      let threads =
        List.mapi
          (fun i seed ->
            Thread.create
              (fun () ->
                match Client.connect socket with
                | Error m -> results.(i) <- Error ("connect: " ^ m)
                | Ok client ->
                    results.(i) <- Client.submit client (spec_of_seed seed);
                    Client.close client)
              ())
          seeds
      in
      (match Client.connect socket with
      | Error m -> Alcotest.failf "stats connect: %s" m
      | Ok stats_client ->
          let saw_three = ref false and saw_best = ref false in
          let deadline = Unix.gettimeofday () +. 30. in
          while (not (!saw_three && !saw_best)) && Unix.gettimeofday () < deadline do
            (match Client.stats stats_client with
            | Error m -> Alcotest.failf "stats: %s" m
            | Ok s ->
                if s.Wire.queued_jobs = 2 && s.Wire.running_jobs = 1 then begin
                  saw_three := true;
                  Alcotest.(check int) "job_stats lists all three" 3
                    (List.length s.Wire.job_stats);
                  Alcotest.(check int) "exactly one marked running" 1
                    (List.length
                       (List.filter (fun j -> j.Wire.js_running) s.Wire.job_stats))
                end;
                if
                  List.exists
                    (fun j -> j.Wire.js_running && j.Wire.js_best <> None)
                    s.Wire.job_stats
                then saw_best := true);
            Thread.delay 0.002
          done;
          Alcotest.(check bool) "saw 1 running + 2 queued" true !saw_three;
          Alcotest.(check bool) "saw a running job's best-so-far" true !saw_best;
          Atomic.set gate true;
          List.iter Thread.join threads;
          (* The result reply races the scheduler's own bookkeeping: a
             client can hold its [Job_result] a beat before the job
             leaves the running table, so poll the snapshot to
             quiescence instead of trusting the first one. *)
          let final = ref None in
          let deadline = Unix.gettimeofday () +. 30. in
          while !final = None && Unix.gettimeofday () < deadline do
            (match Client.stats stats_client with
            | Error m -> Alcotest.failf "final stats: %s" m
            | Ok s ->
                if s.Wire.queued_jobs + s.Wire.running_jobs = 0 then
                  final := Some s);
            if !final = None then Thread.delay 0.002
          done;
          (match !final with
          | None -> Alcotest.fail "jobs still in flight after results delivered"
          | Some s ->
              Alcotest.(check bool) "fresh verdicts counted" true
                (own_counter s "lbr_oracle_executions_total" > 0);
              Alcotest.(check bool) "metric snapshot present" true
                (List.assoc "" s.Wire.metrics <> []);
              Alcotest.(check bool) "uptime positive" true (s.Wire.uptime > 0.));
          Client.close stats_client);
      Array.iter
        (function Error m -> Alcotest.failf "job: %s" m | Ok _ -> ())
        results)

let test_server_rejects_bad_hello () =
  with_server "badhello" (fun socket _server ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      (* a Submit before Hello is a protocol error *)
      Wire.write_message fd (Wire.Cancel "job-000001");
      (match Wire.read_message fd with
      | Ok (Wire.Protocol_error _) -> ()
      | _ -> Alcotest.fail "expected Protocol_error");
      (* and the server closes the connection *)
      (match Wire.read_message fd with
      | Error `Closed -> ()
      | _ -> Alcotest.fail "expected close after protocol error");
      Unix.close fd)

let test_server_rejects_malformed_frame () =
  with_server "malformed" (fun socket _server ->
      match Client.connect socket with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok client ->
          (* handshake done; now inject garbage through a raw fd *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Wire.write_message fd (Wire.Hello Wire.protocol_version);
          (match Wire.read_message fd with
          | Ok (Wire.Hello_ok v) ->
              Alcotest.(check int) "handshake echoes the version" Wire.protocol_version v
          | _ -> Alcotest.fail "handshake failed");
          let garbage = "\x00\x00\x00\x03\xfe\xfe\xfe" in
          ignore (Unix.write_substring fd garbage 0 (String.length garbage) : int);
          (match Wire.read_message fd with
          | Ok (Wire.Protocol_error _) -> ()
          | _ -> Alcotest.fail "expected Protocol_error for unknown kind");
          Unix.close fd;
          Client.close client)

(* The handshake is an exact match: a peer one version behind or ahead
   gets a [Protocol_error] naming both versions, and the connection
   closes before any other frame is read. *)
let test_server_refuses_other_versions () =
  with_server "versions" (fun socket _server ->
      List.iter
        (fun v ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Wire.write_message fd (Wire.Hello v);
          (match Wire.read_message fd with
          | Ok (Wire.Protocol_error m) ->
              Alcotest.(check string) "error names both versions"
                (Printf.sprintf "unsupported protocol version %d (this server speaks %d)" v
                   Wire.protocol_version)
                m
          | _ -> Alcotest.failf "expected Protocol_error for Hello %d" v);
          (match Wire.read_message fd with
          | Error `Closed -> ()
          | _ -> Alcotest.failf "expected close after refusing Hello %d" v);
          Unix.close fd)
        [ Wire.protocol_version - 1; Wire.protocol_version + 1 ])

(* A connection streams one Verdict frame per fresh predicate
   evaluation, in executed order. *)
let test_server_verdict_stream () =
  with_server "verdicts" (fun socket _server ->
      let seed = 21 in
      match Client.connect socket with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok client ->
          let verdicts = ref 0 in
          let result =
            Client.submit client
              ~on_verdict:(fun ~key ~ok:_ ->
                Alcotest.(check int) "verdict key is a 32-hex digest" 32
                  (String.length key);
                incr verdicts)
              (spec_of_seed ~classes:16 seed)
          in
          Client.close client;
          (match result with
          | Error m -> Alcotest.failf "submit: %s" m
          | Ok (_, stats, _) ->
              Alcotest.(check int) "one Verdict per fresh evaluation"
                stats.Wire.tool_executions !verdicts;
              Alcotest.(check bool) "evaluations happened" true (!verdicts > 0)))

(* A connection can pull the daemon's span rings and metric registry;
   the server and the test share a process, so enabling tracing here
   makes the server's own job spans visible in the dump. *)
let test_server_observability_dumps () =
  with_server "obsdumps" (fun socket _server ->
      Lbr_obs.Trace.start ();
      Fun.protect
        ~finally:(fun () -> Lbr_obs.Trace.stop ())
        (fun () ->
          match Client.connect socket with
          | Error m -> Alcotest.failf "connect: %s" m
          | Ok client ->
              (match Client.submit client (spec_of_seed ~classes:16 21) with
              | Error m -> Alcotest.failf "submit: %s" m
              | Ok _ -> ());
              (match Client.trace_dump client with
              | Error m -> Alcotest.failf "trace_dump: %s" m
              | Ok d ->
                  Alcotest.(check bool) "node label present" true
                    (String.length d.Lbr_obs.Tdump.nd_node > 0);
                  Alcotest.(check bool) "epoch is set" true (d.Lbr_obs.Tdump.nd_epoch > 0.);
                  Alcotest.(check bool) "job spans recorded" true
                    (d.Lbr_obs.Tdump.nd_events <> []));
              (match Client.metrics_dump client with
              | Error m -> Alcotest.failf "metrics_dump: %s" m
              | Ok (node, dump) ->
                  Alcotest.(check bool) "node label present" true (String.length node > 0);
                  Alcotest.(check bool) "registry snapshot non-empty" true (dump <> []));
              Client.close client))

(* [Client.trace_dump] stamps [nd_client_mid] with its own clock: against
   a node whose clock reads an old [nd_server_now], the midpoint still
   falls inside the request. *)
let test_client_trace_dump_stamps_midpoint () =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port = match Unix.getsockname srv with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let reply = List.find (function Wire.Trace_dump_reply _ -> true | _ -> false) sample_messages in
  let node =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept srv in
        let rec serve () =
          match Wire.read_message fd with
          | Ok (Wire.Hello v) ->
              Wire.write_message fd (Wire.Hello_ok v);
              serve ()
          | Ok Wire.Trace_dump_request ->
              Wire.write_message fd reply;
              serve ()
          | _ -> Unix.close fd
        in
        serve ())
      ()
  in
  (match Client.connect (Printf.sprintf "127.0.0.1:%d" port) with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok client ->
      let sent = Unix.gettimeofday () in
      (match Client.trace_dump client with
      | Error m -> Alcotest.failf "trace_dump: %s" m
      | Ok d ->
          Alcotest.(check (float 0.)) "the node's clock is kept" 1754700012.5
            d.Lbr_obs.Tdump.nd_server_now;
          Alcotest.(check bool) "the midpoint is on the requester's clock" true
            (sent <= d.nd_client_mid && d.nd_client_mid <= Unix.gettimeofday ()));
      Client.close client);
  Thread.join node;
  Unix.close srv

(* A job outlives the connection that submitted it.  Its late Result
   must be dropped, not written to whatever socket has reused the closed
   fd number — here the next connection, accepted right after. *)
let test_server_late_events_stay_off_new_connections () =
  let gate = Atomic.make false and started = Atomic.make 0 in
  let sched =
    Scheduler.create ~runner:(gated_runner gate started) ~jobs:1 ~queue_depth:4 ()
  in
  let server = Server.serve ~listen:(Addr.Tcp ("127.0.0.1", 0)) sched in
  Fun.protect ~finally:(fun () ->
      Atomic.set gate true;
      Server.stop server)
  @@ fun () ->
  let open_conn () =
    match Addr.connect (Server.bound_addr server) with
    | Error m -> Alcotest.failf "connect: %s" m
    | Ok fd -> (
        Wire.write_message fd (Wire.Hello Wire.protocol_version);
        match Wire.read_message fd with
        | Ok (Wire.Hello_ok _) -> fd
        | _ -> Alcotest.fail "handshake")
  in
  let fd1 = open_conn () in
  Wire.write_message fd1 (Wire.Submit (Lazy.force tiny_spec));
  let id =
    match Wire.read_message fd1 with
    | Ok (Wire.Accepted id) -> id
    | _ -> Alcotest.fail "submission not accepted"
  in
  while Atomic.get started < 1 do
    Thread.delay 0.002
  done;
  Unix.close fd1;
  (* let the server's handler see the EOF and close its end *)
  Thread.delay 0.2;
  let fd2 = open_conn () in
  Atomic.set gate true;
  ignore (Scheduler.await sched id : Scheduler.outcome);
  Wire.write_message fd2 Wire.Stats_request;
  (match Wire.read_message fd2 with
  | Ok (Wire.Stats_reply _) -> ()
  | Ok _ -> Alcotest.fail "a frame for the closed connection's job reached a new connection"
  | Error _ -> Alcotest.fail "no stats reply");
  Unix.close fd2

let test_server_cancel_over_socket () =
  (* queue_depth 1 and jobs 1: park a long job, cancel it over the wire *)
  with_server ~jobs:1 "cancel" (fun socket server ->
      ignore server;
      match Client.connect socket with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok client -> (
          (* a larger pool so the job is still running when Cancel lands *)
          let submit_result = ref (Error "not run") in
          let th =
            Thread.create
              (fun () ->
                submit_result := Client.submit client (spec_of_seed ~classes:120 31))
              ()
          in
          (* separate connection for control while the first blocks *)
          match Client.connect socket with
          | Error m -> Alcotest.failf "control connect: %s" m
          | Ok control ->
              (* the daemon assigns job ids sequentially from 1 *)
              let rec cancel_until_found tries =
                match Client.cancel control "job-000001" with
                | Ok true -> ()
                | Ok false when tries > 0 ->
                    Thread.delay 0.01;
                    cancel_until_found (tries - 1)
                | Ok false -> Alcotest.fail "job never became cancellable"
                | Error m -> Alcotest.failf "cancel: %s" m
              in
              cancel_until_found 200;
              Thread.join th;
              Client.close control;
              Client.close client;
              (match !submit_result with
              | Error m ->
                  let contains_cancelled =
                    let n = String.length m and p = "cancelled" in
                    let pl = String.length p in
                    let rec go i = i + pl <= n && (String.sub m i pl = p || go (i + 1)) in
                    go 0
                  in
                  Alcotest.(check bool) "failure mentions cancellation" true
                    contains_cancelled
              | Ok _ -> Alcotest.fail "cancelled job returned a result")))

let test_server_draining_rejects_submissions () =
  with_server "drain" (fun socket server ->
      match Client.connect socket with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok client ->
          Scheduler.drain (Server.scheduler server);
          (match Client.submit client (spec_of_seed ~classes:6 1) with
          | Error m ->
              Alcotest.(check bool) "rejection mentions draining" true
                (String.length m > 0)
          | Ok _ -> Alcotest.fail "draining server accepted a job");
          Client.close client)

(* ------------------------------------------------------------------ *)
(* Shutdown helper                                                     *)

let test_shutdown_drain_runs_once_in_order () =
  let s = Shutdown.install () in
  Alcotest.(check bool) "not requested initially" false (Shutdown.requested s);
  let log = ref [] in
  Shutdown.on_drain s (fun () -> log := "first" :: !log);
  Shutdown.on_drain s (fun () -> failwith "a failing action must not stop the rest");
  Shutdown.on_drain s (fun () -> log := "second" :: !log);
  Shutdown.request s;
  Alcotest.(check bool) "requested after request" true (Shutdown.requested s);
  Shutdown.run_drain s;
  Shutdown.run_drain s;
  Alcotest.(check (list string)) "actions ran once, in order" [ "first"; "second" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "message roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "socket roundtrip + clean close" `Quick test_wire_socket_roundtrip;
          Alcotest.test_case "oversized and truncated frames" `Quick
            test_wire_rejects_oversized_and_truncated;
          Alcotest.test_case "empty frame" `Quick test_wire_empty_frame_is_malformed;
          Alcotest.test_case "spec string roundtrip" `Quick test_spec_string_roundtrip;
          Alcotest.test_case "tcp roundtrip + clean close" `Quick test_wire_tcp_roundtrip;
          Alcotest.test_case "traced Verdict cut is an Error" `Quick
            test_wire_truncated_verdict_is_error;
          Alcotest.test_case "formats are byte-identical (pinned digests)" `Quick
            test_formats_pinned;
          Alcotest.test_case "tcp sockets set TCP_NODELAY" `Quick test_addr_tcp_nodelay;
        ] );
      qsuite "wire-prop"
        [ prop_wire_decode_never_raises; prop_wire_truncation_rejected;
          prop_wire_bitflip_never_raises; prop_wire_tcp_truncation_rejected;
          prop_wire_tcp_bitflip_never_raises; prop_wire_ctx_roundtrip;
          prop_wire_stats_reply_roundtrip ];
      qsuite "append-log-prop" [ prop_append_log_torn_tail ];
      ( "journal",
        [
          Alcotest.test_case "record, replay, terminal markers" `Quick
            test_journal_record_and_replay;
          Alcotest.test_case "torn trailing line is skipped" `Quick
            test_journal_tolerates_torn_line;
          Alcotest.test_case "torn tail, then append: both verdicts replay" `Quick
            test_journal_append_after_torn_tail;
          Alcotest.test_case "one verdict line shape" `Quick test_journal_line_shape;
          Alcotest.test_case "unsafe job ids rejected" `Quick test_journal_rejects_unsafe_ids;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "queue-full backpressure" `Quick test_scheduler_backpressure;
          Alcotest.test_case "cancel a running job" `Quick test_scheduler_cancel_running;
          Alcotest.test_case "cancel a queued job before it runs" `Quick
            test_scheduler_cancel_queued_never_runs;
          Alcotest.test_case "high priority dispatches first" `Quick
            test_scheduler_priority_order;
          Alcotest.test_case "draining rejects" `Quick test_scheduler_drain_rejects;
          Alcotest.test_case "events stream in order" `Quick test_scheduler_events_in_order;
          Alcotest.test_case "delivered bytes are not kept" `Quick
            test_scheduler_drops_delivered_bytes;
        ] );
      ( "replay",
        [
          Alcotest.test_case "resume replays journal, fewer executions" `Slow
            test_journal_replay_resumes_with_fewer_executions;
          Alcotest.test_case "pass-through hooks change nothing" `Quick
            test_hooks_passthrough_identical;
          Alcotest.test_case "gbr executions match the journal" `Quick
            test_runner_gbr_executions_match_journal;
          Alcotest.test_case "baselines replay with no executions" `Quick
            test_runner_baselines_replay;
          Alcotest.test_case "should_stop cancels a baseline" `Quick
            test_runner_baseline_cancelled;
          Alcotest.test_case "j-reduce on fj fails: constraints are not a graph" `Quick
            test_runner_jreduce_needs_graph;
        ] );
      ( "journal-recover",
        [
          Alcotest.test_case "corrupt journaled spec marked failed" `Quick
            test_recover_marks_corrupt_spec_failed;
        ] );
      ( "socket",
        [
          Alcotest.test_case "submit matches in-process run" `Slow
            test_server_submit_matches_in_process;
          Alcotest.test_case "3 concurrent clients, jobs=4, byte-identical" `Slow
            test_server_three_concurrent_clients_jobs4;
          Alcotest.test_case "live stats: queue depth, best-so-far, verdicts" `Slow
            test_server_top_stats;
          Alcotest.test_case "hello required" `Quick test_server_rejects_bad_hello;
          Alcotest.test_case "malformed frame gets Protocol_error" `Quick
            test_server_rejects_malformed_frame;
          Alcotest.test_case "other protocol versions refused" `Quick
            test_server_refuses_other_versions;
          Alcotest.test_case "v3 connection streams Verdict frames" `Slow
            test_server_verdict_stream;
          Alcotest.test_case "v5 trace + metrics dumps over the socket" `Slow
            test_server_observability_dumps;
          Alcotest.test_case "trace_dump stamps the requester's midpoint" `Quick
            test_client_trace_dump_stamps_midpoint;
          Alcotest.test_case "cancel over the socket" `Slow test_server_cancel_over_socket;
          Alcotest.test_case "late job events stay off new connections" `Quick
            test_server_late_events_stay_off_new_connections;
          Alcotest.test_case "draining rejects submissions" `Quick
            test_server_draining_rejects_submissions;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "drain actions run once, in order" `Quick
            test_shutdown_drain_runs_once_in_order;
        ] );
    ]
