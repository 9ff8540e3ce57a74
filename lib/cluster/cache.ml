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

type t = {
  mutex : Mutex.t;
  table : (string * string, bool) Hashtbl.t;  (* (job, assignment) digests *)
  by_job : (string, string list) Hashtbl.t;   (* job digest -> assignment digests *)
  mutable log : Lbr_server.Append_log.t option;  (* [None] in memory or once closed *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let remember t ~job ~key ok =
  if not (Hashtbl.mem t.table (job, key)) then begin
    Hashtbl.replace t.table (job, key) ok;
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_job job) in
    Hashtbl.replace t.by_job job (key :: prev);
    true
  end
  else false

(* A line that does not parse in full is skipped, never fatal. *)
let load t path =
  Lbr_server.Append_log.fold path ~init:() ~f:(fun () line ->
      match String.split_on_char ' ' line with
      | [ job; key; ("0" | "1") as v ] when is_hex32 job && is_hex32 key ->
          ignore (remember t ~job ~key (v = "1"))
      | _ -> ())

let create ?path () =
  let t =
    { mutex = Mutex.create (); table = Hashtbl.create 4096; by_job = Hashtbl.create 64; log = None }
  in
  Option.iter
    (fun path ->
      load t path;
      t.log <- Some (Lbr_server.Append_log.open_ path))
    path;
  t

let find t ~job ~key = locked t (fun () -> Hashtbl.find_opt t.table (job, key))

let store t ~job ~key ok =
  locked t (fun () ->
      if remember t ~job ~key ok then
        Option.iter
          (fun log ->
            Lbr_server.Append_log.append log
              (Printf.sprintf "%s %s %c" job key (if ok then '1' else '0')))
          t.log)

let seeds t ~job =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_job job with
      | None -> []
      | Some keys ->
          List.rev_map (fun key -> (key, Hashtbl.find t.table (job, key))) keys)

let entries t = locked t (fun () -> Hashtbl.length t.table)

let close t =
  locked t (fun () ->
      Option.iter Lbr_server.Append_log.close t.log;
      t.log <- None)
