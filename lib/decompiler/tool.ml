exception Transient_failure of string

exception Tool_crash of string

module Faults = struct
  type t = {
    flaky_rate : float;
    crash_rate : float;
    mutex : Mutex.t;
    rng : Random.State.t;
    mutable draws : int;
    mutable injected_flaky : int;
    mutable injected_crashes : int;
  }

  let make ?(flaky_rate = 0.0) ?(crash_rate = 0.0) ~seed () =
    if flaky_rate < 0.0 || crash_rate < 0.0 || flaky_rate +. crash_rate > 1.0 then
      invalid_arg "Faults.make: rates must be >= 0 and sum to <= 1";
    {
      flaky_rate;
      crash_rate;
      mutex = Mutex.create ();
      rng = Random.State.make [| seed; 0xfa; 0x17 |];
      draws = 0;
      injected_flaky = 0;
      injected_crashes = 0;
    }

  (* The decision is made under the lock (the RNG and counters are shared
     state); the raise happens after releasing it. *)
  let draw faults tool_name =
    Mutex.lock faults.mutex;
    let x = Random.State.float faults.rng 1.0 in
    faults.draws <- faults.draws + 1;
    let verdict =
      if x < faults.crash_rate then begin
        faults.injected_crashes <- faults.injected_crashes + 1;
        `Crash
      end
      else if x < faults.crash_rate +. faults.flaky_rate then begin
        faults.injected_flaky <- faults.injected_flaky + 1;
        `Flaky
      end
      else `Clean
    in
    Mutex.unlock faults.mutex;
    match verdict with
    | `Clean -> ()
    | `Crash ->
        raise
          (Tool_crash (Printf.sprintf "%s: simulated decompiler crash (segfault)" tool_name))
    | `Flaky ->
        raise
          (Transient_failure
             (Printf.sprintf "%s: simulated transient failure (tool timed out under load)"
                tool_name))

  let draws t =
    Mutex.lock t.mutex;
    let v = t.draws in
    Mutex.unlock t.mutex;
    v

  let injected_flaky t =
    Mutex.lock t.mutex;
    let v = t.injected_flaky in
    Mutex.unlock t.mutex;
    v

  let injected_crashes t =
    Mutex.lock t.mutex;
    let v = t.injected_crashes in
    Mutex.unlock t.mutex;
    v
end

type t = { name : string; patterns : Pattern.t list; faults : Faults.t option }

let pattern = Pattern.find

let cfr_sim =
  {
    name = "cfr-sim";
    patterns = [ pattern "iface-cast"; pattern "diamond"; pattern "ctor-overload" ];
    faults = None;
  }

let fernflower_sim =
  {
    name = "fernflower-sim";
    patterns = [ pattern "reflective-ldc"; pattern "inner-annot"; pattern "static-super" ];
    faults = None;
  }

let procyon_sim =
  {
    name = "procyon-sim";
    patterns = [ pattern "abstract-super"; pattern "upcast-iface"; pattern "iface-cast" ];
    faults = None;
  }

let all = [ cfr_sim; fernflower_sim; procyon_sim ]

let with_faults faults t = { t with faults = Some faults }

let instances t pool =
  List.concat_map (fun (p : Pattern.t) -> p.prepare pool pool) t.patterns

let prepare t original =
  let detectors = List.map (fun (p : Pattern.t) -> p.prepare original) t.patterns in
  fun pool ->
    (match t.faults with None -> () | Some faults -> Faults.draw faults t.name);
    Lbr_logic.Perf.time "tool.errors" (fun () ->
        List.concat_map (fun detect -> detect pool) detectors
        |> List.map (fun (i : Pattern.instance) -> i.message)
        |> List.sort_uniq String.compare)

let errors t pool = prepare t pool pool

let is_buggy_on t pool = errors t pool <> []
