type t = {
  root : string;
  mutex : Mutex.t;
  logs : (string, Append_log.t) Hashtbl.t;  (* open preds.log handles *)
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

let log t id =
  match Hashtbl.find_opt t.logs id with
  | Some log -> log
  | None ->
      let log = Append_log.open_ (preds_file t id) in
      Hashtbl.replace t.logs id log;
      log

(* The verdict line: "<32-hex-digest> 0|1 <latency-microseconds> <retries>". *)
let append_pred t ~id ~key ~latency ~retries ok =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let us = int_of_float (Float.max 0. (latency *. 1e6) +. 0.5) in
      Append_log.append (log t id)
        (Printf.sprintf "%s %c %d %d" key (if ok then '1' else '0') us retries))

let close_log_locked t id =
  match Hashtbl.find_opt t.logs id with
  | Some log ->
      Hashtbl.remove t.logs id;
      Append_log.close log
  | None -> ()

let mark t ~id ~marker ~contents =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      close_log_locked t id;
      mkdir_p (job_dir t id);
      write_file_atomic (Filename.concat (job_dir t id) marker) contents)

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

type verdict = { v_key : string; v_ok : bool; v_latency : float; v_retries : int }

let parse_verdict_line line =
  match String.split_on_char ' ' line with
  | [ key; ("0" | "1") as v; us; retries ] when String.length key = 32 -> (
      match (int_of_string_opt us, int_of_string_opt retries) with
      | Some us, Some retries when us >= 0 && retries >= 0 ->
          Some
            {
              v_key = key;
              v_ok = v = "1";
              v_latency = float_of_int us *. 1e-6;
              v_retries = retries;
            }
      | _ -> None)
  | _ -> None

(* Malformed lines are skipped; a torn last line never reaches here. *)
let fold_verdicts t ~id ~init ~f =
  Append_log.fold (preds_file t id) ~init ~f:(fun acc line ->
      match parse_verdict_line line with Some v -> f acc v | None -> acc)

let replay t ~id =
  let table = Hashtbl.create 256 in
  fold_verdicts t ~id ~init:() ~f:(fun () v -> Hashtbl.replace table v.v_key v.v_ok);
  table

let verdicts t ~id = List.rev (fold_verdicts t ~id ~init:[] ~f:(fun acc v -> v :: acc))

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
      Hashtbl.iter (fun _ log -> Append_log.close log) t.logs;
      Hashtbl.reset t.logs)
