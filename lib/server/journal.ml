type t = {
  root : string;
  mutex : Mutex.t;
  logs : (string, out_channel) Hashtbl.t;  (* open preds.log handles *)
}

let mkdir_p path =
  let rec go path =
    if path <> "/" && path <> "." && not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let open_dir root =
  mkdir_p root;
  if not (Sys.is_directory root) then
    raise (Sys_error (root ^ ": journal path is not a directory"));
  { root; mutex = Mutex.create (); logs = Hashtbl.create 16 }

let dir t = t.root

(* Job ids become path components; reject anything that could escape the
   journal root (recovered ids come off the filesystem, but submitted ids
   could in principle be attacker-shaped). *)
let check_id id =
  let ok_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false in
  if id = "" || String.length id > 64 || not (String.for_all ok_char id) then
    invalid_arg ("Journal: unsafe job id " ^ String.escaped id)

let job_dir t id =
  check_id id;
  Filename.concat t.root id

let spec_file t id = Filename.concat (job_dir t id) "spec"
let preds_file t id = Filename.concat (job_dir t id) "preds.log"

let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  flush oc;
  close_out oc;
  Sys.rename tmp path

let record_job t ~id ~spec =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      mkdir_p (job_dir t id);
      write_file_atomic (spec_file t id) spec)

let log_channel t id =
  match Hashtbl.find_opt t.logs id with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (preds_file t id)
      in
      Hashtbl.replace t.logs id oc;
      oc

(* Two verdict line shapes, distinguished by field count:
     runner line:    "<32-hex-digest> 0|1 <latency-microseconds> <retries>"
     mirrored line:  "<32-hex-digest> 0|1"
   A daemon's runner measured the evaluation and writes the first; the
   coordinator mirrors a worker's Verdict frame, which carries no
   latency, and writes the second.  Both keep the verdict at byte 33, so
   every reader branches on the same offset. *)
let append_pred t ~id ~key ?latency ?(retries = 0) ok =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let oc = log_channel t id in
      output_string oc key;
      output_char oc ' ';
      output_char oc (if ok then '1' else '0');
      (match latency with
      | None -> ()
      | Some seconds ->
          let us = int_of_float (Float.max 0. (seconds *. 1e6) +. 0.5) in
          output_string oc (Printf.sprintf " %d %d" us retries));
      output_char oc '\n';
      (* flush to the OS: survives kill -9 (though not power loss) *)
      flush oc)

let close_log_locked t id =
  match Hashtbl.find_opt t.logs id with
  | Some oc ->
      Hashtbl.remove t.logs id;
      close_out_noerr oc
  | None -> ()

let mark t ~id ~marker ~contents =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      close_log_locked t id;
      mkdir_p (job_dir t id);
      write_file_atomic (Filename.concat (job_dir t id) marker) contents)

(* Not a terminal marker — [mark] closes the preds log, this must not. *)
let record_counters t ~id ~contents =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      mkdir_p (job_dir t id);
      write_file_atomic (Filename.concat (job_dir t id) "counters") contents)

let mark_done t ~id = mark t ~id ~marker:"done" ~contents:""
let mark_cancelled t ~id = mark t ~id ~marker:"cancelled" ~contents:""
let mark_failed t ~id ~reason = mark t ~id ~marker:"failed" ~contents:(reason ^ "\n")

let is_terminal t id =
  List.exists
    (fun m -> Sys.file_exists (Filename.concat (job_dir t id) m))
    [ "done"; "cancelled"; "failed" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let pending t =
  Sys.readdir t.root |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun id ->
         match check_id id with
         | exception Invalid_argument _ -> None
         | () ->
             if
               Sys.is_directory (Filename.concat t.root id)
               && Sys.file_exists (spec_file t id)
               && not (is_terminal t id)
             then
               match read_file (spec_file t id) with
               | spec -> Some (id, spec)
               | exception Sys_error _ -> None
             else None)

(* A verdict line of either shape: 34 bytes exactly (mirrored) or a
   runner line whose latency/retry tail starts right after the verdict.
   Torn last lines of a crashed daemon match neither shape and are
   skipped. *)
let parse_verdict_line line =
  let len = String.length line in
  if len >= 34 && line.[32] = ' ' && (len = 34 || line.[34] = ' ') then
    match line.[33] with
    | ('0' | '1') as v -> (
        let key = String.sub line 0 32 in
        let ok = v = '1' in
        if len = 34 then Some (key, ok, None)
        else
          match String.split_on_char ' ' (String.sub line 35 (len - 35)) with
          | [ us; retries ] -> (
              match (int_of_string_opt us, int_of_string_opt retries) with
              | Some us, Some retries when us >= 0 && retries >= 0 ->
                  Some (key, ok, Some (float_of_int us *. 1e-6, retries))
              | _ -> None)
          | _ -> None)
    | _ -> None
  else None

let fold_verdict_lines t ~id ~init ~f =
  match open_in_bin (preds_file t id) with
  | exception Sys_error _ -> init
  | ic ->
      let acc = ref init in
      (try
         while true do
           match parse_verdict_line (input_line ic) with
           | Some v -> acc := f !acc v
           | None -> ()
         done
       with End_of_file -> ());
      close_in_noerr ic;
      !acc

let replay t ~id =
  let table = Hashtbl.create 256 in
  fold_verdict_lines t ~id ~init:() ~f:(fun () (key, ok, _) ->
      Hashtbl.replace table key ok);
  table

type verdict = { v_key : string; v_ok : bool; v_latency : float option; v_retries : int option }

let verdicts t ~id =
  fold_verdict_lines t ~id ~init:[] ~f:(fun acc (key, ok, extra) ->
      {
        v_key = key;
        v_ok = ok;
        v_latency = Option.map fst extra;
        v_retries = Option.map snd extra;
      }
      :: acc)
  |> List.rev

let jobs t =
  Sys.readdir t.root |> Array.to_list |> List.sort String.compare
  |> List.filter (fun id ->
         match check_id id with
         | exception Invalid_argument _ -> false
         | () -> Sys.is_directory (Filename.concat t.root id))

let max_job_number t =
  Sys.readdir t.root |> Array.to_list
  |> List.fold_left
       (fun acc name ->
         match
           if String.length name > 4 && String.sub name 0 4 = "job-" then
             int_of_string_opt (String.sub name 4 (String.length name - 4))
           else None
         with
         | Some n -> max acc n
         | None -> acc)
       0

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Hashtbl.iter (fun _ oc -> close_out_noerr oc) t.logs;
      Hashtbl.reset t.logs)
