(* Tests for Lbr_obs (tracing + metrics) and the Perf.since delta
   semantics it leans on.

   Trace and the metric registry are process-global; every trace test
   begins with [Trace.start] (which resets the rings) and ends with
   [Trace.stop], and metric names are unique per test so registry state
   cannot leak between cases. *)

module Trace = Lbr_obs.Trace
module Metrics = Lbr_obs.Metrics
module Histogram = Lbr_obs.Metrics.Histogram

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Trace: spans and ring buffers                                       *)

let test_disabled_passthrough () =
  Trace.start ();
  Trace.stop ();
  (* disabled: values flow through, nothing is recorded *)
  Alcotest.(check int) "value" 42 (Trace.with_span "off" (fun () -> 42));
  Trace.instant "off-instant";
  Trace.span_between "off-between" ~start:0. ~finish:1.;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check bool) "disabled" false (Trace.enabled ())

let test_enabled_recording () =
  Trace.start ();
  let r = ref 0 in
  let v =
    Trace.with_span "outer"
      ~args:(fun () -> [ ("observed", Trace.Int !r) ])
      (fun () ->
        Trace.with_span "inner" (fun () -> r := 7);
        Trace.instant "mark";
        !r)
  in
  Trace.stop ();
  Alcotest.(check int) "result" 7 v;
  let events = Trace.events () in
  Alcotest.(check int) "three events" 3 (List.length events);
  let by_name n = List.find (fun (e : Trace.event) -> e.ev_name = n) events in
  let outer = by_name "outer" and inner = by_name "inner" and mark = by_name "mark" in
  Alcotest.(check char) "span ph" 'X' outer.ev_ph;
  Alcotest.(check char) "instant ph" 'i' mark.ev_ph;
  Alcotest.(check bool) "inner nested in outer" true (inner.ev_dur <= outer.ev_dur);
  (* args thunks run at span end, so they see state the body wrote *)
  match List.assoc_opt "observed" outer.ev_args with
  | Some (Trace.Int 7) -> ()
  | _ -> Alcotest.fail "outer args should carry the post-body value 7"

let test_span_on_exception () =
  Trace.start ();
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Trace.stop ();
  match Trace.events () with
  | [ e ] ->
      Alcotest.(check string) "name" "boom" e.ev_name;
      Alcotest.(check char) "ph" 'X' e.ev_ph
  | es -> Alcotest.failf "expected exactly the boom span, got %d events" (List.length es)

let test_ring_overflow_drops () =
  Trace.start ~capacity:8 ();
  for i = 1 to 20 do
    Trace.instant (string_of_int i)
  done;
  Trace.stop ();
  Alcotest.(check int) "ring keeps capacity" 8 (List.length (Trace.events ()));
  Alcotest.(check int) "dropped counted" 12 (Trace.dropped ());
  (* the ring keeps the most recent window; sort because equal-microsecond
     timestamps make the ts order between neighbours unspecified *)
  let names =
    List.map (fun (e : Trace.event) -> e.ev_name) (Trace.events ()) |> List.sort compare
  in
  Alcotest.(check (list string))
    "newest survive"
    [ "13"; "14"; "15"; "16"; "17"; "18"; "19"; "20" ]
    names

let test_span_between () =
  Trace.start ();
  let t0 = Trace.now () in
  Trace.span_between "wait" ~start:t0 ~finish:(t0 +. 0.25);
  Trace.stop ();
  match Trace.events () with
  | [ e ] ->
      Alcotest.(check string) "name" "wait" e.ev_name;
      Alcotest.(check bool) "duration ~250ms in us" true (abs_float (e.ev_dur -. 250_000.) < 1.)
  | es -> Alcotest.failf "expected one span, got %d" (List.length es)

let test_trace_json_shape () =
  Trace.start ();
  Trace.with_span "js\"on" (fun () -> ());
  Trace.stop ();
  let json = Trace.to_json () in
  Alcotest.(check bool) "has traceEvents" true (contains ~affix:{|"traceEvents"|} json);
  Alcotest.(check bool) "escapes quotes" true (contains ~affix:{|js\"on|} json)

(* Regression: a raising args thunk must poison only that span's args —
   the span itself (and every later event) still lands in the ring. *)
let test_args_thunk_poisoned () =
  Trace.start ();
  let v = Trace.with_span "poisoned" ~args:(fun () -> failwith "args boom") (fun () -> 9) in
  Trace.instant "after";
  Trace.stop ();
  Alcotest.(check int) "value flows through" 9 v;
  let events = Trace.events () in
  Alcotest.(check int) "both events recorded" 2 (List.length events);
  let p = List.find (fun (e : Trace.event) -> e.ev_name = "poisoned") events in
  match List.assoc_opt "args" p.ev_args with
  | Some (Trace.Str "<error>") -> ()
  | _ -> Alcotest.fail "raising thunk should record args as <error>"

(* ------------------------------------------------------------------ *)
(* Trace contexts                                                      *)

let test_context_args_and_restore () =
  Trace.start ();
  let ctx = { Trace.Context.trace_id = "aaaa111122223333"; parent_span = "bbbb444455556666" } in
  Alcotest.(check bool) "no context initially" true (Trace.current_context () = None);
  Trace.with_context (Some ctx) (fun () ->
      Alcotest.(check bool) "installed" true (Trace.current_context () = Some ctx);
      Trace.instant "inside";
      (* nested installation restores the outer context, not None *)
      let ctx2 = { Trace.Context.trace_id = "cccc"; parent_span = "dddd" } in
      Trace.with_context (Some ctx2) (fun () -> Trace.instant "nested");
      Alcotest.(check bool) "outer restored after nested" true
        (Trace.current_context () = Some ctx));
  Alcotest.(check bool) "cleared after" true (Trace.current_context () = None);
  (try Trace.with_context (Some ctx) (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "cleared after exception" true (Trace.current_context () = None);
  Trace.instant "outside";
  Trace.stop ();
  let by_name n = List.find (fun (e : Trace.event) -> e.Trace.ev_name = n) (Trace.events ()) in
  (match List.assoc_opt "ctx.parent" (by_name "inside").ev_args with
  | Some (Trace.Str "bbbb444455556666") -> ()
  | _ -> Alcotest.fail "inside should carry ctx.parent");
  (match List.assoc_opt "ctx.trace" (by_name "nested").ev_args with
  | Some (Trace.Str "cccc") -> ()
  | _ -> Alcotest.fail "nested should carry the inner trace id");
  match List.assoc_opt "ctx.trace" (by_name "outside").ev_args with
  | None -> ()
  | Some _ -> Alcotest.fail "outside must not carry context args"

let test_context_mint_shape () =
  let a = Trace.Context.mint () and b = Trace.Context.mint () in
  let hex s =
    String.length s = 16
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  in
  Alcotest.(check bool) "ids are 16-hex" true
    (hex a.Trace.Context.trace_id && hex a.Trace.Context.parent_span);
  Alcotest.(check bool) "ids are unique" true
    (a.Trace.Context.trace_id <> b.Trace.Context.trace_id
    && a.Trace.Context.parent_span <> b.Trace.Context.parent_span)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let fresh_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%.0f" prefix (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir d 0o755;
  d

let test_flight_rings_bounded () =
  let dir = fresh_dir "lbr-flight" in
  Lbr_obs.Flight.arm ~node:"test-node" ~spans:16 ~transitions:8 ~dir ();
  Fun.protect
    ~finally:(fun () -> Lbr_obs.Flight.disarm ())
    (fun () ->
      (* classic tracing is OFF: the hook alone must capture spans *)
      Alcotest.(check bool) "tracing off" false (Trace.enabled ());
      for i = 1 to 100 do
        Trace.instant (Printf.sprintf "ev%d" i);
        Lbr_obs.Flight.transition ~job:(Printf.sprintf "job-%d" i) ~state:"queued"
      done;
      Alcotest.(check int) "span ring bounded" 16 (Lbr_obs.Flight.span_count ());
      Alcotest.(check int) "transition ring bounded" 8
        (Lbr_obs.Flight.transition_count ());
      match Lbr_obs.Flight.render_current ~reason:"test" with
      | None -> Alcotest.fail "armed recorder must render"
      | Some body ->
          Alcotest.(check bool) "has node" true (contains ~affix:{|"node":"test-node"|} body);
          Alcotest.(check bool) "has reason" true (contains ~affix:{|"reason":"test"|} body);
          (* newest window survives: ev100 present, ev1 evicted *)
          Alcotest.(check bool) "newest span kept" true (contains ~affix:{|"ev100"|} body);
          Alcotest.(check bool) "oldest span evicted" false (contains ~affix:{|"ev1"|} body);
          Alcotest.(check bool) "newest transition kept" true
            (contains ~affix:{|"job-100"|} body))

let test_flight_dump_writes_file () =
  let dir = fresh_dir "lbr-flight-dump" in
  Lbr_obs.Flight.arm ~node:"dumper" ~dir ();
  Fun.protect
    ~finally:(fun () -> Lbr_obs.Flight.disarm ())
    (fun () ->
      Trace.instant "pre-crash";
      Lbr_obs.Flight.transition ~job:"job-1" ~state:"running";
      match Lbr_obs.Flight.dump ~reason:"drain" with
      | None -> Alcotest.fail "dump should succeed"
      | Some path ->
          Alcotest.(check bool) "file exists" true (Sys.file_exists path);
          Alcotest.(check bool) "in the journal dir" true
            (String.starts_with ~prefix:dir path);
          let ic = open_in path in
          let body = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check bool) "is a flight dump" true
            (contains ~affix:{|"flightRecorder":1|} body);
          Alcotest.(check bool) "span present" true (contains ~affix:{|"pre-crash"|} body))

let test_flight_disarmed_noop () =
  Lbr_obs.Flight.disarm ();
  Lbr_obs.Flight.transition ~job:"job-x" ~state:"running";
  Alcotest.(check bool) "not armed" false (Lbr_obs.Flight.armed ());
  Alcotest.(check (option string)) "no dump" None (Lbr_obs.Flight.dump ~reason:"x")

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_counter_create_or_get () =
  let a = Metrics.counter "test_obs_requests_total" in
  let b = Metrics.counter "test_obs_requests_total" in
  Metrics.incr a;
  Metrics.add b 2;
  Alcotest.(check int) "shared state" 3 (Metrics.counter_value a);
  Alcotest.(check (option int))
    "find_counter_value" (Some 3)
    (Metrics.find_counter_value "test_obs_requests_total");
  Alcotest.(check (option int)) "unknown name" None (Metrics.find_counter_value "test_obs_nope")

let test_kind_mismatch () =
  let (_ : Metrics.counter) = Metrics.counter "test_obs_kind_clash" in
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument
       "Metrics: \"test_obs_kind_clash\" already registered with a different kind (wanted gauge)")
    (fun () -> ignore (Metrics.gauge "test_obs_kind_clash"));
  Alcotest.check_raises "invalid name"
    (Invalid_argument "Metrics: invalid metric name \"with space\"") (fun () ->
      ignore (Metrics.counter "with space"))

let test_gauge_ops () =
  let g = Metrics.gauge "test_obs_depth" in
  Metrics.set_gauge g 4.;
  Metrics.add_gauge g (-1.5);
  Alcotest.(check (float 1e-9)) "gauge value" 2.5 (Metrics.gauge_value g)

(* Pin the Prometheus text rendering for one counter and one histogram
   with hand-computed buckets (values chosen exactly representable). *)
let test_prometheus_pinned () =
  let c = Metrics.counter ~help:"Pinned counter." "test_obs_pin_total" in
  Metrics.add c 3;
  let h =
    Metrics.histogram ~help:"Pinned histogram." ~lo:0.25 ~growth:4.0 ~buckets:4
      "test_obs_pin_latency_seconds"
  in
  List.iter (Metrics.observe h) [ 0.125; 0.5; 2.0; 8.0 ];
  let rendered = Metrics.render_prometheus () in
  let ours =
    String.split_on_char '\n' rendered
    |> List.filter (contains ~affix:"test_obs_pin_")
    |> String.concat "\n"
  in
  let expected =
    String.concat "\n"
      [
        "# HELP test_obs_pin_latency_seconds Pinned histogram.";
        "# TYPE test_obs_pin_latency_seconds histogram";
        {|test_obs_pin_latency_seconds_bucket{le="0.25"} 1|};
        {|test_obs_pin_latency_seconds_bucket{le="1"} 2|};
        {|test_obs_pin_latency_seconds_bucket{le="4"} 3|};
        {|test_obs_pin_latency_seconds_bucket{le="+Inf"} 4|};
        "test_obs_pin_latency_seconds_sum 10.625";
        "test_obs_pin_latency_seconds_count 4";
        "# HELP test_obs_pin_total Pinned counter.";
        "# TYPE test_obs_pin_total counter";
        "test_obs_pin_total 3";
      ]
  in
  Alcotest.(check string) "prometheus text" expected ours

(* ------------------------------------------------------------------ *)
(* Histogram properties                                                *)

let layout_gen =
  QCheck.Gen.(triple (float_range 1e-9 100.) (float_range 1.1 10.) (int_range 2 40))

let values_gen = QCheck.Gen.(list_size (int_range 0 200) (float_range 1e-9 1e6))

let prop_bucket_monotonic =
  QCheck.Test.make ~count:300 ~name:"histogram bucket bounds strictly increase"
    (QCheck.make QCheck.Gen.(pair layout_gen (float_range 0. 1e7)))
    (fun ((lo, growth, buckets), v) ->
      let h = Histogram.create ~lo ~growth ~buckets () in
      let le = Histogram.upper_bounds h in
      let n = Array.length le in
      let increasing = ref true in
      for i = 1 to n - 1 do
        if not (le.(i) > le.(i - 1)) then increasing := false
      done;
      let i = Histogram.bucket_index h v in
      !increasing
      && le.(n - 1) = infinity
      && (v <= le.(i) || i = n - 1)
      && (i = 0 || v > le.(i - 1)))

let prop_merge_conserves =
  QCheck.Test.make ~count:300 ~name:"merge conserves count, sum and buckets"
    (QCheck.make QCheck.Gen.(pair values_gen values_gen))
    (fun (xs, ys) ->
      let a = Histogram.create ~lo:1e-6 ~growth:2.0 ~buckets:24 () in
      let b = Histogram.create ~lo:1e-6 ~growth:2.0 ~buckets:24 () in
      List.iter (Histogram.observe a) xs;
      List.iter (Histogram.observe b) ys;
      let m = Histogram.merge a b in
      Histogram.count m = Histogram.count a + Histogram.count b
      && Histogram.sum m = Histogram.sum a +. Histogram.sum b
      && Array.for_all2 (fun c (ca, cb) -> c = ca + cb)
           (Histogram.bucket_counts m)
           (Array.combine (Histogram.bucket_counts a) (Histogram.bucket_counts b)))

let prop_merge_rejects_layouts =
  QCheck.Test.make ~count:50 ~name:"merge rejects differing layouts"
    (QCheck.make layout_gen)
    (fun (lo, growth, buckets) ->
      let a = Histogram.create ~lo ~growth ~buckets () in
      let b = Histogram.create ~lo ~growth ~buckets:(buckets + 1) () in
      match Histogram.merge a b with
      | (_ : Histogram.t) -> false
      | exception Invalid_argument _ -> true)

let prop_quantile_within_bucket =
  QCheck.Test.make ~count:300 ~name:"quantile lands in the exact value's bucket"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 200) (float_range 1e-9 1e6))
           (float_range 0. 1.)))
    (fun (xs, q) ->
      let h = Histogram.create ~lo:1e-6 ~growth:2.0 ~buckets:24 () in
      List.iter (Histogram.observe h) xs;
      let n = List.length xs in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let exact = List.nth (List.sort compare xs) (rank - 1) in
      let estimate = Histogram.quantile h q in
      abs (Histogram.bucket_index h estimate - Histogram.bucket_index h exact) <= 1)

let test_quantile_empty_nan () =
  let h = Histogram.create () in
  Alcotest.(check bool) "nan on empty" true (Float.is_nan (Histogram.quantile h 0.5))

(* ------------------------------------------------------------------ *)
(* Perf.since: keyed on name, tolerant of after-only phases            *)

let row name calls seconds minor_words =
  { Lbr_logic.Perf.name; calls; seconds; minor_words }

let check_rows msg expected actual =
  let pp fmt (r : Lbr_logic.Perf.row) =
    Format.fprintf fmt "%s/%d/%.3f/%.0f" r.name r.calls r.seconds r.minor_words
  in
  let row_t = Alcotest.testable pp ( = ) in
  Alcotest.(check (list row_t)) msg expected actual

let test_since_keys_on_name () =
  (* rows deliberately misaligned by position: since must match by name *)
  let before = [ row "b" 2 1.0 10.; row "a" 1 0.5 4. ] in
  let after = [ row "a" 4 2.0 16.; row "b" 2 1.0 10. ] in
  check_rows "delta keyed by name"
    [ row "a" 3 1.5 12. ]
    (Lbr_logic.Perf.since ~before ~after)

let test_since_after_only_phase () =
  (* a phase first seen after the snapshot (fresh domain mid-task) is
     reported whole, not dropped or misattributed *)
  let before = [ row "a" 1 0.5 4. ] in
  let after = [ row "a" 1 0.5 4.; row "fresh" 5 2.5 20. ] in
  check_rows "after-only phase kept"
    [ row "fresh" 5 2.5 20. ]
    (Lbr_logic.Perf.since ~before ~after)

(* ------------------------------------------------------------------ *)
(* Metrics federation: dump codec + exact merge                        *)

let name_gen =
  QCheck.Gen.oneofl
    [ "alpha_total"; "beta_seconds"; "gamma"; "delta_bytes"; "epsilon_ratio" ]

let help_gen =
  QCheck.Gen.oneofl [ ""; "plain help"; "with \"quotes\" and \\ backslash" ]

let dumped_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Metrics.D_counter n) (int_range 0 1_000_000);
        map (fun v -> Metrics.D_gauge v) (float_range (-1e6) 1e6);
        map
          (fun ((lo, growth), (counts, sum)) ->
            Metrics.D_hist
              { d_lo = lo; d_growth = growth; d_counts = Array.of_list counts; d_sum = sum })
          (pair
             (pair (float_range 1e-6 1.) (float_range 1.1 4.))
             (pair (list_size (int_range 1 8) (int_range 0 1000)) (float_range 0. 1e6)));
      ])

let dump_gen =
  QCheck.Gen.(list_size (int_range 0 6) (triple name_gen help_gen dumped_gen))

let prop_dump_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dump codec round-trips"
    (QCheck.make dump_gen)
    (fun d -> Metrics.decode_dump (Metrics.encode_dump d) = Ok d)

let prop_dump_decode_total =
  QCheck.Test.make ~count:300 ~name:"decode_dump is total on mangled input"
    (QCheck.make QCheck.Gen.(pair dump_gen (pair (int_range 0 5000) (int_range 0 255))))
    (fun (d, (pos, byte)) ->
      let s = Metrics.encode_dump d in
      let trunc = String.sub s 0 (pos mod (String.length s + 1)) in
      let flipped =
        if String.length s = 0 then s
        else begin
          let b = Bytes.of_string s in
          Bytes.set b (pos mod String.length s) (Char.chr byte);
          Bytes.to_string b
        end
      in
      (match Metrics.decode_dump trunc with Ok _ | Error _ -> true)
      && (match Metrics.decode_dump flipped with Ok _ | Error _ -> true))

(* The federation invariant the coordinator's [top --metrics] view rests
   on: merged counters/gauges are exact sums, histograms merge
   bucket-by-bucket, and a kind mismatch keeps the first value. *)
let test_merge_dumps_pin () =
  let open Metrics in
  let hist counts sum =
    D_hist { d_lo = 0.01; d_growth = 2.0; d_counts = counts; d_sum = sum }
  in
  let d1 =
    [
      ("gauge_x", "g", D_gauge 1.5);
      ("hist_y", "h", hist [| 1; 2; 0 |] 3.5);
      ("jobs_total", "j", D_counter 3);
      ("only_first", "o", D_counter 7);
    ]
  in
  let d2 =
    [
      ("gauge_x", "g", D_gauge 0.25);
      ("hist_y", "h", hist [| 0; 4; 1 |] 9.0);
      ("jobs_total", "j", D_counter 4);
      ("mismatch", "m", D_counter 1);
    ]
  in
  let d3 = [ ("jobs_total", "j", D_counter 5); ("mismatch", "m", D_gauge 9.0) ] in
  let merged = merge_dumps [ d1; d2; d3 ] in
  let get name = find_in_dump merged name in
  (match get "jobs_total" with
  | Some (D_counter 12) -> ()
  | _ -> Alcotest.fail "counters must sum: 3 + 4 + 5 = 12");
  (match get "gauge_x" with
  | Some (D_gauge v) when v = 1.75 -> ()
  | _ -> Alcotest.fail "gauges must sum: 1.5 + 0.25 = 1.75");
  (match get "hist_y" with
  | Some (D_hist { d_counts = [| 1; 6; 1 |]; d_sum = 12.5; _ }) -> ()
  | _ -> Alcotest.fail "histograms must merge bucket-by-bucket");
  (match get "only_first" with
  | Some (D_counter 7) -> ()
  | _ -> Alcotest.fail "a metric present in one dump passes through");
  match get "mismatch" with
  | Some (D_counter 1) -> ()
  | _ -> Alcotest.fail "kind mismatch keeps the first value, never raises"

let test_exporter_http () =
  let ex =
    Lbr_obs.Exporter.start ~host:"127.0.0.1" ~port:0 (fun () ->
        "lbr_up 1\n")
  in
  Fun.protect
    ~finally:(fun () -> Lbr_obs.Exporter.stop ex)
    (fun () ->
      let port = Lbr_obs.Exporter.port ex in
      Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
      let sock = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let oc = Unix.out_channel_of_descr sock in
      output_string oc "GET /metrics HTTP/1.0\r\n\r\n";
      flush oc;
      let ic = Unix.in_channel_of_descr sock in
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Unix.close sock;
      let resp = Buffer.contents buf in
      Alcotest.(check bool) "HTTP 200" true (contains ~affix:"200" resp);
      Alcotest.(check bool) "body served" true (contains ~affix:"lbr_up 1" resp))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "lbr_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled passthrough" `Quick test_disabled_passthrough;
          Alcotest.test_case "enabled recording + end-of-span args" `Quick
            test_enabled_recording;
          Alcotest.test_case "span recorded on exception" `Quick test_span_on_exception;
          Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow_drops;
          Alcotest.test_case "span_between duration" `Quick test_span_between;
          Alcotest.test_case "trace JSON shape" `Quick test_trace_json_shape;
          Alcotest.test_case "raising args thunk poisons only the args" `Quick
            test_args_thunk_poisoned;
        ] );
      ( "context",
        [
          Alcotest.test_case "install, nest, restore, ctx args" `Quick
            test_context_args_and_restore;
          Alcotest.test_case "minted ids are 16-hex and unique" `Quick
            test_context_mint_shape;
        ] );
      ( "flight",
        [
          Alcotest.test_case "rings stay bounded, newest window wins" `Quick
            test_flight_rings_bounded;
          Alcotest.test_case "dump writes a readable file" `Quick
            test_flight_dump_writes_file;
          Alcotest.test_case "disarmed recorder is inert" `Quick test_flight_disarmed_noop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter create-or-get" `Quick test_counter_create_or_get;
          Alcotest.test_case "kind/name validation" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge ops" `Quick test_gauge_ops;
          Alcotest.test_case "prometheus rendering (pinned)" `Quick test_prometheus_pinned;
          Alcotest.test_case "quantile of empty is nan" `Quick test_quantile_empty_nan;
        ] );
      ( "histogram-properties",
        qsuite
          [
            prop_bucket_monotonic;
            prop_merge_conserves;
            prop_merge_rejects_layouts;
            prop_quantile_within_bucket;
          ] );
      ( "federation",
        Alcotest.test_case "merge_dumps is an exact sum (pinned)" `Quick
          test_merge_dumps_pin
        :: Alcotest.test_case "prometheus exporter serves over HTTP" `Quick
             test_exporter_http
        :: qsuite [ prop_dump_roundtrip; prop_dump_decode_total ] );
      ( "counters",
        [
          Alcotest.test_case "since keys on name" `Quick test_since_keys_on_name;
          Alcotest.test_case "since tolerates after-only phases" `Quick
            test_since_after_only_phase;
        ] );
    ]
