(* Exact, mutex-guarded metrics.  Each metric owns a lock taken on every
   update; the registry lock is only taken on registration and snapshot,
   so steady-state updates from different metrics never contend with each
   other. *)

module Histogram = struct
  type t = {
    le : float array;  (* bucket upper bounds; le.(n-1) = infinity *)
    counts : int array;
    mutable sum : float;
    mutable count : int;
    lo : float;
    growth : float;
  }

  let layout_ok ~lo ~growth ~buckets =
    Float.is_finite lo && Float.is_finite growth && lo > 0. && growth > 1. && buckets >= 2

  let create ?(lo = 1e-6) ?(growth = 2.0) ?(buckets = 32) () =
    if not (layout_ok ~lo ~growth ~buckets) then
      invalid_arg
        "Metrics.Histogram.create: need finite lo > 0 and growth > 1, buckets >= 2";
    let le =
      Array.init buckets (fun i ->
          if i = buckets - 1 then infinity else lo *. (growth ** float_of_int i))
    in
    { le; counts = Array.make buckets 0; sum = 0.; count = 0; lo; growth }

  (* First bucket whose upper bound admits [v]; the last bucket catches
     everything (including nan, which compares false everywhere). *)
  let bucket_index t v =
    let n = Array.length t.le in
    let rec go i = if i >= n - 1 || v <= t.le.(i) then i else go (i + 1) in
    go 0

  let observe t v =
    let i = bucket_index t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v

  let count t = t.count
  let sum t = t.sum
  let upper_bounds t = Array.copy t.le
  let bucket_counts t = Array.copy t.counts

  let same_layout a b =
    a.lo = b.lo && a.growth = b.growth && Array.length a.le = Array.length b.le

  let merge a b =
    if not (same_layout a b) then
      invalid_arg "Metrics.Histogram.merge: incompatible bucket layouts";
    let t = create ~lo:a.lo ~growth:a.growth ~buckets:(Array.length a.le) () in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t.sum <- a.sum +. b.sum;
    t.count <- a.count + b.count;
    t

  let quantile t q =
    if t.count = 0 || Float.is_nan q then nan
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
      let n = Array.length t.le in
      let rec go i acc =
        let acc = acc + t.counts.(i) in
        if acc >= rank || i = n - 1 then i else go (i + 1) acc
      in
      let i = go 0 0 in
      if i = n - 1 then
        (* Open-ended bucket: report one growth step past its lower bound
           rather than infinity. *)
        t.lo *. (t.growth ** float_of_int (n - 1))
      else t.le.(i)
    end

  let copy t =
    { t with le = Array.copy t.le; counts = Array.copy t.counts }
end

type counter = { c_mutex : Mutex.t; mutable c_value : int }
type gauge = { g_mutex : Mutex.t; mutable g_value : float }
type histogram = { h_mutex : Mutex.t; h_state : Histogram.t }

type metric = Counter of counter | Gauge of gauge | Hist of histogram

let registry : (string, string * metric) Hashtbl.t = Hashtbl.create 32
let registry_mutex = Mutex.create ()

let locked m f =
  Mutex.lock m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock m)

let name_ok name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let register name help make unwrap kind =
  if not (name_ok name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  locked registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (_, m) -> (
          match unwrap m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered with a different kind (wanted %s)"
                   name kind))
      | None ->
          let v, m = make () in
          Hashtbl.replace registry name (help, m);
          v)

let counter ?(help = "") name =
  register name help
    (fun () ->
      let c = { c_mutex = Mutex.create (); c_value = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)
    "counter"

let incr c = locked c.c_mutex (fun () -> c.c_value <- c.c_value + 1)
let add c n = locked c.c_mutex (fun () -> c.c_value <- c.c_value + n)
let counter_value c = locked c.c_mutex (fun () -> c.c_value)

let gauge ?(help = "") name =
  register name help
    (fun () ->
      let g = { g_mutex = Mutex.create (); g_value = 0. } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let set_gauge g v = locked g.g_mutex (fun () -> g.g_value <- v)
let add_gauge g v = locked g.g_mutex (fun () -> g.g_value <- g.g_value +. v)
let gauge_value g = locked g.g_mutex (fun () -> g.g_value)

let histogram ?(help = "") ?lo ?growth ?buckets name =
  register name help
    (fun () ->
      let h =
        { h_mutex = Mutex.create (); h_state = Histogram.create ?lo ?growth ?buckets () }
      in
      (h, Hist h))
    (function Hist h -> Some h | _ -> None)
    "histogram"

let observe h v = locked h.h_mutex (fun () -> Histogram.observe h.h_state v)
let histogram_state h = locked h.h_mutex (fun () -> Histogram.copy h.h_state)

let find_counter_value name =
  locked registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (_, Counter c) -> Some (counter_value c)
      | _ -> None)

type row =
  | Counter_row of { name : string; value : int }
  | Gauge_row of { name : string; value : float }
  | Histogram_row of {
      name : string;
      count : int;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

let sorted_entries () =
  let entries =
    locked registry_mutex (fun () ->
        Hashtbl.fold (fun name (help, m) acc -> (name, help, m) :: acc) registry [])
  in
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) entries

(* Prometheus floats: %g gives "1e-06", "0.00032768", "+Inf" handled
   explicitly. *)
let prom_float v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%g" v

(* ------------------------------------------------------------------ *)
(* Registry dumps: a value snapshot of every metric, serializable so a
   coordinator can pull worker registries over the wire and merge them
   exactly — counters and gauges by addition, histograms bucket-by-bucket
   via the same layout check {!Histogram.merge} enforces. *)

type dumped =
  | D_counter of int
  | D_gauge of float
  | D_hist of { d_lo : float; d_growth : float; d_counts : int array; d_sum : float }

type dump = (string * string * dumped) list

let dump () =
  List.map
    (fun (name, help, m) ->
      let v =
        match m with
        | Counter c -> D_counter (counter_value c)
        | Gauge g -> D_gauge (gauge_value g)
        | Hist h ->
            let s = histogram_state h in
            D_hist
              {
                d_lo = s.Histogram.lo;
                d_growth = s.Histogram.growth;
                d_counts = Histogram.bucket_counts s;
                d_sum = Histogram.sum s;
              }
      in
      (name, help, v))
    (sorted_entries ())

(* Wire form: "LBRM1", then n(u32) entries of
   name str16 | help str16 | tag u8 | payload (Codec primitives).  Kept
   here (not in the server's Wire module) because the codec is the
   federation payload on every transport, including files. *)

let dump_magic = "LBRM1"

let encode_dump d =
  let open Lbr_codec.Codec in
  let b = Buffer.create 1024 in
  Buffer.add_string b dump_magic;
  w_u32 b (List.length d);
  List.iter
    (fun (name, help, v) ->
      w_str16 b name;
      w_str16 b help;
      match v with
      | D_counter c ->
          w_u8 b 0;
          w_i64 b c
      | D_gauge g ->
          w_u8 b 1;
          w_f64 b g
      | D_hist { d_lo; d_growth; d_counts; d_sum } ->
          w_u8 b 2;
          w_f64 b d_lo;
          w_f64 b d_growth;
          w_u16 b (Array.length d_counts);
          Array.iter (w_i64 b) d_counts;
          w_f64 b d_sum)
    d;
  Buffer.contents b

(* A dump comes off the wire from another node: every histogram it
   carries must have a layout {!Histogram.create} accepts, or rendering
   it would raise. *)
let decode_dump s =
  let open Lbr_codec.Codec in
  read s (fun r ->
      r_magic r dump_magic;
      List.init (r_count r (r_u32 r)) (fun _ ->
          let name = r_str16 r in
          let help = r_str16 r in
          let v =
            match r_u8 r with
            | 0 -> D_counter (r_i64 r)
            | 1 -> D_gauge (r_f64 r)
            | 2 ->
                let d_lo = r_f64 r in
                let d_growth = r_f64 r in
                let d_counts = Array.init (r_u16 r) (fun _ -> r_i64 r) in
                let d_sum = r_f64 r in
                let buckets = Array.length d_counts in
                if not (Histogram.layout_ok ~lo:d_lo ~growth:d_growth ~buckets) then
                  fail "histogram %S has an invalid bucket layout" name;
                D_hist { d_lo; d_growth; d_counts; d_sum }
            | t -> fail "unknown metric tag %d" t
          in
          (name, help, v)))

let merge_values a b =
  match (a, b) with
  | D_counter x, D_counter y -> D_counter (x + y)
  | D_gauge x, D_gauge y -> D_gauge (x +. y)
  | ( D_hist { d_lo; d_growth; d_counts; d_sum },
      D_hist { d_lo = lo'; d_growth = g'; d_counts = c'; d_sum = s' } )
    when d_lo = lo' && d_growth = g' && Array.length d_counts = Array.length c' ->
      D_hist
        {
          d_lo;
          d_growth;
          d_counts = Array.mapi (fun i c -> c + c'.(i)) d_counts;
          d_sum = d_sum +. s';
        }
  (* Kind or layout mismatch across nodes (version skew): first wins,
     never raise — federation must degrade, not die. *)
  | a, _ -> a

let merge_dumps dumps =
  let table : (string, string * dumped) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, help, v) ->
         match Hashtbl.find_opt table name with
         | None -> Hashtbl.replace table name (help, v)
         | Some (help0, v0) ->
             Hashtbl.replace table name
               ((if help0 = "" then help else help0), merge_values v0 v)))
    dumps;
  Hashtbl.fold (fun name (help, v) acc -> (name, help, v) :: acc) table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let hist_of_dumped d_lo d_growth d_counts d_sum =
  let h = Histogram.create ~lo:d_lo ~growth:d_growth ~buckets:(Array.length d_counts) () in
  Array.iteri (fun i c -> h.Histogram.counts.(i) <- c) d_counts;
  h.Histogram.count <- Array.fold_left ( + ) 0 d_counts;
  h.Histogram.sum <- d_sum;
  h

let rows_of_dump d =
  List.map
    (fun (name, _, v) ->
      match v with
      | D_counter value -> Counter_row { name; value }
      | D_gauge value -> Gauge_row { name; value }
      | D_hist { d_lo; d_growth; d_counts; d_sum } ->
          let s = hist_of_dumped d_lo d_growth d_counts d_sum in
          Histogram_row
            {
              name;
              count = Histogram.count s;
              sum = Histogram.sum s;
              p50 = Histogram.quantile s 0.5;
              p90 = Histogram.quantile s 0.9;
              p99 = Histogram.quantile s 0.99;
            })
    d

let find_in_dump d name =
  List.find_map (fun (n, _, v) -> if n = name then Some v else None) d

(* One view's Prometheus text: the [""] view unlabelled, any other
   under [worker="<label>"], composing with histogram [le] labels. *)
let render_view (label, d) =
  let lbl = if label = "" then "" else Printf.sprintf "{worker=\"%s\"}" label in
  let lbl_with extra =
    if label = "" then Printf.sprintf "{%s}" extra
    else Printf.sprintf "{worker=\"%s\",%s}" label extra
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, help, v) ->
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      match v with
      | D_counter c ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name lbl c)
      | D_gauge g ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name lbl (prom_float g))
      | D_hist { d_lo; d_growth; d_counts; d_sum } ->
          let s = hist_of_dumped d_lo d_growth d_counts d_sum in
          let le = Histogram.upper_bounds s in
          let counts = Histogram.bucket_counts s in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          let acc = ref 0 in
          Array.iteri
            (fun i bound ->
              acc := !acc + counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (lbl_with (Printf.sprintf "le=\"%s\"" (prom_float bound)))
                   !acc))
            le;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name lbl (prom_float (Histogram.sum s)));
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name lbl (Histogram.count s)))
    d;
  Buffer.contents buf

let render_views views = String.concat "" (List.map render_view views)

(* The live registry reads through its own dump: the histogram rebuilt
   from a dump has the live one's buckets. *)
let rows () = rows_of_dump (dump ())
