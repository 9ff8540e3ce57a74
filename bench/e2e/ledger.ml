(* The traced one-shot pipeline: Lbr_frontend.Run.reduce_input rebuilt from
   the same public calls, in the same order, with a clock (and a minor-heap
   word counter) around each call into a layer.  Validation and the GBR
   loop are charged their self time: the predicate callbacks they make are
   subtracted and charged to the apply, size and check rows.  Whatever no
   row covers (hook keys, the timeline, the clocks themselves) is the
   residual, so the rows plus the residual add up to the traced wall time
   exactly. *)

open Lbr_logic

let now = Unix.gettimeofday

type row = { name : string; mutable time : float; mutable words : float; mutable calls : int }

type t = {
  parse : row;
  derive : row;
  constraints : row;
  baseline : row;  (** [F.predicate]: the predicate run on the full input *)
  prepare : row;
  size : row;  (** [F.items]/[F.bytes]: the cost model's and the timeline's sizes *)
  validate : row;
  gbr : row;
  apply : row;
  check : row;
  print : row;
  mutable traced : float;  (** wall time of the rebuilt pipeline *)
  mutable untraced : float;  (** wall time of [Run.reduce_text] on the same inputs *)
  mutable inputs : int;
  mutable queries : int;
  mutable runs : int;
}

let create () =
  let row name = { name; time = 0.0; words = 0.0; calls = 0 } in
  {
    parse = row "frontend.parse";
    derive = row "frontend.derive";
    constraints = row "frontend.constraints";
    baseline = row "predicate.baseline";
    prepare = row "frontend.prepare";
    size = row "frontend.size";
    validate = row "core.problem_validate";
    gbr = row "core.gbr_self";
    apply = row "frontend.apply";
    check = row "predicate.check";
    print = row "frontend.print";
    traced = 0.0;
    untraced = 0.0;
    inputs = 0;
    queries = 0;
    runs = 0;
  }

let rows t =
  [
    t.parse; t.derive; t.constraints; t.baseline; t.prepare; t.validate; t.gbr; t.apply; t.size;
    t.check; t.print;
  ]

let residual t = t.traced -. List.fold_left (fun acc r -> acc +. r.time) 0.0 (rows t)

type result = { runs : int; sim_time : float; ok : bool; output : string }

let reduce (type i c) t ~input
    (module F : Lbr_frontend.Frontend.S with type input = i and type ctx = c) ~text ~spec =
  let start = now () in
  let root = Spans.fresh_id () in
  let phase = ref root in
  let timed ?(id = Spans.fresh_id ()) row ~parent f =
    let t0 = now () and w0 = Gc.minor_words () in
    let r = f () in
    let t1 = now () in
    row.time <- row.time +. (t1 -. t0);
    row.words <- row.words +. (Gc.minor_words () -. w0);
    row.calls <- row.calls + 1;
    Spans.record ~name:row.name ~id ~parent ~input t0 t1;
    r
  in
  let fail m = Error (Printf.sprintf "%s: %s" F.id m) in
  match timed t.parse ~parent:root (fun () -> F.parse text) with
  | Error m -> fail m
  | Ok x -> (
      let vpool = Var.Pool.create () in
      match timed t.derive ~parent:root (fun () -> F.derive vpool x) with
      | Error m -> fail m
      | Ok ctx -> (
          match timed t.constraints ~parent:root (fun () -> F.constraints ctx x) with
          | Error m -> fail m
          | Ok cnf -> (
              match timed t.baseline ~parent:root (fun () -> F.predicate ctx x ~spec) with
              | Error m -> fail m
              | Ok check ->
                  let apply = timed t.prepare ~parent:root (fun () -> F.prepare ctx x) in
                  let clock = ref 0.0 and best = ref (max_int, max_int) in
                  let inner_time = ref 0.0 and inner_words = ref 0.0 in
                  let black_box phi =
                    let b0 = now () and w0 = Gc.minor_words () in
                    (* Run derives its hook key on every predicate run. *)
                    ignore (Assignment.digest_hex phi : string);
                    let sub = timed t.apply ~parent:!phase (fun () -> apply phi) in
                    let bytes = timed t.size ~parent:!phase (fun () -> F.bytes sub) in
                    clock := !clock +. (1.0 +. (4e-4 *. float_of_int bytes));
                    let ok = timed t.check ~parent:!phase (fun () -> check sub) in
                    if ok then begin
                      let c, b =
                        timed t.size ~parent:!phase (fun () -> (F.items sub, F.bytes sub))
                      in
                      let bc, bb = !best in
                      if b < bb || (b = bb && c < bc) then best := (min bc c, min bb b)
                    end;
                    inner_time := !inner_time +. (now () -. b0);
                    inner_words := !inner_words +. (Gc.minor_words () -. w0);
                    ok
                  in
                  let self row f =
                    let id = Spans.fresh_id () in
                    phase := id;
                    let t0 = !inner_time and w0 = !inner_words in
                    let r = timed ~id row ~parent:root f in
                    row.time <- row.time -. (!inner_time -. t0);
                    row.words <- row.words -. (!inner_words -. w0);
                    phase := root;
                    r
                  in
                  let predicate = Lbr.Predicate.make ~name:F.id black_box in
                  let problem =
                    Lbr.Problem.make ~pool:vpool ~universe:(F.universe ctx) ~constraints:cnf
                      ~predicate
                  in
                  match self t.validate (fun () -> Lbr.Problem.validate problem) with
                  | Error m -> fail ("invalid problem: " ^ m)
                  | Ok () ->
                      let result, runs, ok =
                        match
                          self t.gbr (fun () ->
                              Lbr.Gbr.reduce problem ~order:(Lbr_sat.Order.by_creation vpool))
                        with
                        | Ok (result, stats) -> (result, stats.predicate_runs, true)
                        | Error _ -> (F.universe ctx, Lbr.Predicate.runs predicate, false)
                      in
                      let final = timed t.apply ~parent:root (fun () -> apply result) in
                      timed t.size ~parent:root (fun () ->
                          ignore (F.items x + F.items final + F.bytes x + F.bytes final : int));
                      let output = timed t.print ~parent:root (fun () -> F.print final) in
                      let finish = now () in
                      Spans.record ~name:"input" ~id:root ~parent:0 ~input start finish;
                      t.traced <- t.traced +. (finish -. start);
                      t.inputs <- t.inputs + 1;
                      t.queries <- t.queries + Lbr.Predicate.queries predicate;
                      t.runs <- t.runs + runs;
                      Ok { runs; sim_time = !clock; ok; output })))
