let is_hex32 s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let job_key (spec : Lbr_server.Wire.spec) =
  (* Only the verdict-relevant content: which frontend interprets the
     payload, what tool/spec is asked, how crashes count and how often a
     transient failure is retried, and the exact pool bytes.  Strategy
     and priority steer the search, not any single verdict, so sharing
     across them is safe and wanted.  The key hashes these fields, not
     the spec's wire bytes, so it does not depend on the frame layout. *)
  let b = Buffer.create (String.length spec.pool_bytes + 32) in
  Buffer.add_string b spec.frontend;
  Buffer.add_char b '\x00';
  Buffer.add_string b spec.tool;
  Buffer.add_char b '\x00';
  Lbr_codec.Codec.w_u8 b
    (match spec.crash_policy with
    | Lbr_runtime.Oracle.Crash_fails -> 0
    | Crash_passes -> 1
    | Crash_raises -> 2);
  Lbr_codec.Codec.w_u16 b spec.retries;
  Buffer.add_string b spec.pool_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One job's verdicts, packed.  Entry [i] is the [stride] bytes of
   [cells] from [i * stride]: the assignment's 16-byte binary digest,
   then its verdict as the log writes it, ['0'] or ['1'].  Entries sit in
   first-store order, the order [seeds] returns.  [index] is an
   open-addressing table (linear probing) holding [i + 1] for entry [i]
   and 0 in a free slot; it answers [find] and the first-write-wins
   check.  Both are sized by the bucket's capacity: [cells] holds
   [capacity] entries and [index] has [capacity * 3 / 2] slots, so it is
   at most two thirds full.  A full bucket grows by half. *)
type bucket = {
  mutable cells : Bytes.t;
  mutable len : int;
  mutable index : int array;
}

let stride = 17

type t = {
  mutex : Mutex.t;
  jobs : (string, bucket) Hashtbl.t;  (* binary job digest -> its verdicts *)
  mutable entries : int;
  mutable log : Lbr_server.Append_log.t option;  (* [None] in memory or once closed *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The binary digest of a 32-hex key; [None] for anything else. *)
let digest s = if is_hex32 s then Some (Digest.from_hex s) else None

(* The slot holding the digest whose halves are [lo] and [hi], or the
   free slot where it would go.  Keys are MD5 bits from a worker but
   whatever a client seeds, so the probe starts from both halves mixed. *)
let slot b lo hi =
  let size = Array.length b.index in
  let rec probe s =
    let e = b.index.(s) in
    if e = 0 then s
    else
      let off = (e - 1) * stride in
      if Int64.equal (Bytes.get_int64_le b.cells off) lo
         && Int64.equal (Bytes.get_int64_le b.cells (off + 8)) hi
      then s
      else probe (if s + 1 = size then 0 else s + 1)
  in
  let x = Int64.to_int (Int64.logxor lo hi) in
  let x = (x lxor (x lsr 31)) * 0x1ce4e5b9bf58476d in
  probe (((x lxor (x lsr 29)) land max_int) mod size)

let slot_of b d = slot b (String.get_int64_le d 0) (String.get_int64_le d 8)

let grow b =
  let capacity = b.len + (b.len / 2) in
  b.cells <- Bytes.extend b.cells 0 ((capacity - b.len) * stride);
  b.index <- Array.make (capacity * 3 / 2) 0;
  for i = 0 to b.len - 1 do
    let off = i * stride in
    b.index.(slot b (Bytes.get_int64_le b.cells off) (Bytes.get_int64_le b.cells (off + 8))) <- i + 1
  done

let remember t ~job ~key ok =
  let b =
    match Hashtbl.find_opt t.jobs job with
    | Some b -> b
    | None ->
        let b = { cells = Bytes.create (8 * stride); len = 0; index = Array.make 12 0 } in
        Hashtbl.add t.jobs job b;
        b
  in
  if b.index.(slot_of b key) <> 0 then false
  else begin
    if (b.len + 1) * stride > Bytes.length b.cells then grow b;
    let off = b.len * stride in
    Bytes.blit_string key 0 b.cells off 16;
    Bytes.set b.cells (off + 16) (if ok then '1' else '0');
    b.index.(slot_of b key) <- b.len + 1;
    b.len <- b.len + 1;
    t.entries <- t.entries + 1;
    true
  end

(* A line that does not parse in full is skipped, never fatal. *)
let load t path =
  Lbr_server.Append_log.fold path ~init:() ~f:(fun () line ->
      match String.split_on_char ' ' line with
      | [ job; key; ("0" | "1") as v ] -> (
          match (digest job, digest key) with
          | Some job, Some key -> ignore (remember t ~job ~key (v = "1"))
          | _ -> ())
      | _ -> ())

let create ?path () =
  let t = { mutex = Mutex.create (); jobs = Hashtbl.create 64; entries = 0; log = None } in
  Option.iter
    (fun path ->
      load t path;
      t.log <- Some (Lbr_server.Append_log.open_ path))
    path;
  t

let find t ~job ~key =
  match (digest job, digest key) with
  | Some job, Some key ->
      locked t (fun () ->
          match Hashtbl.find_opt t.jobs job with
          | None -> None
          | Some b ->
              let e = b.index.(slot_of b key) in
              if e = 0 then None else Some (Bytes.get b.cells ((e * stride) - 1) = '1'))
  | _ -> None

let store t ~job ~key ok =
  match (digest job, digest key) with
  | Some jd, Some kd ->
      locked t (fun () ->
          if remember t ~job:jd ~key:kd ok then
            Option.iter
              (fun log ->
                Lbr_server.Append_log.append log
                  (Printf.sprintf "%s %s %c" job key (if ok then '1' else '0')))
              t.log)
  | _ -> ()

let seeds t ~job =
  let cells =
    match digest job with
    | None -> Bytes.empty
    | Some job ->
        locked t (fun () ->
            match Hashtbl.find_opt t.jobs job with
            | None -> Bytes.empty
            | Some b -> Bytes.sub b.cells 0 (b.len * stride))
  in
  List.init (Bytes.length cells / stride) (fun i ->
      let off = i * stride in
      (Digest.to_hex (Bytes.sub_string cells off 16), Bytes.get cells (off + 16) = '1'))

let entries t = locked t (fun () -> t.entries)

let close t =
  locked t (fun () ->
      Option.iter Lbr_server.Append_log.close t.log;
      t.log <- None)
