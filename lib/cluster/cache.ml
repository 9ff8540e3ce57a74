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
  Buffer.add_uint8 b
    (match spec.crash_policy with
    | Lbr_runtime.Oracle.Crash_fails -> 0
    | Crash_passes -> 1
    | Crash_raises -> 2);
  Buffer.add_uint16_be b spec.retries;
  Buffer.add_string b spec.pool_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

type t = {
  mutex : Mutex.t;
  table : (string * string, bool) Hashtbl.t;  (* (job, assignment) digests *)
  by_job : (string, string list) Hashtbl.t;   (* job digest -> assignment digests *)
  mutable oc : out_channel option;
  mutable closed : bool;
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

let load t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          (* A torn trailing line from a crash mid-append is expected; any
             line that does not parse in full is skipped, never fatal. *)
          match String.split_on_char ' ' line with
          | [ job; key; v ] when is_hex32 job && is_hex32 key ->
              let ok =
                match v with "1" -> Some true | "0" -> Some false | _ -> None
              in
              Option.iter (fun ok -> ignore (remember t ~job ~key ok)) ok
          | _ -> ()
        done
      with End_of_file -> ())

let create ?path () =
  let t =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 4096;
      by_job = Hashtbl.create 64;
      oc = None;
      closed = false;
    }
  in
  (match path with
  | None -> ()
  | Some path ->
      let torn_tail =
        (* A crash mid-append can leave the log without a final newline;
           appending straight after it would corrupt the next entry too.
           Seal the torn line first — load already skips it. *)
        Sys.file_exists path
        &&
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            len > 0
            &&
            (seek_in ic (len - 1);
             input_char ic <> '\n'))
      in
      if Sys.file_exists path then load t path;
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      if torn_tail then begin
        output_char oc '\n';
        flush oc
      end;
      t.oc <- Some oc);
  t

let find t ~job ~key = locked t (fun () -> Hashtbl.find_opt t.table (job, key))

let store t ~job ~key ok =
  locked t (fun () ->
      if remember t ~job ~key ok then
        match t.oc with
        | None -> ()
        | Some oc ->
            output_string oc
              (Printf.sprintf "%s %s %c\n" job key (if ok then '1' else '0'));
            flush oc)

let seeds t ~job =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_job job with
      | None -> []
      | Some keys ->
          List.rev_map (fun key -> (key, Hashtbl.find t.table (job, key))) keys)

let entries t = locked t (fun () -> Hashtbl.length t.table)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Option.iter close_out_noerr t.oc;
        t.oc <- None
      end)
