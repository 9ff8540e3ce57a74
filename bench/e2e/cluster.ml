(* The cluster workloads' topology and load: a coordinator in front of two
   single-job worker daemons, all on loopback TCP port 0 with their state
   in a private directory, driven by a closed loop over two client
   connections.  Every daemon this module starts is SIGTERM-drained and
   reaped by [stop_all], which the caller runs on every exit path. *)

let now = Unix.gettimeofday

let binary () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/lbr_reduce.exe"

type daemon = { pid : int; addr : string }

(* Started daemons, newest first: stopping in this order drains the
   coordinator before its workers. *)
let live : int list ref = ref []

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The address a daemon prints after [prefix] once it has bound its port. *)
let bound_addr ~log ~prefix =
  let text = read_file log in
  match String.split_on_char '\n' text |> List.find_opt (String.starts_with ~prefix) with
  | None -> None
  | Some line ->
      let n = String.length prefix in
      let rest = String.sub line n (String.length line - n) in
      let stop = try String.index rest ' ' with Not_found -> String.length rest in
      let stop = try min stop (String.index rest ',') with Not_found -> stop in
      Some (String.sub rest 0 stop)

let spawn ~log ~prefix args =
  let bin = binary () in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process bin (Array.of_list (bin :: args)) null out out)
  in
  live := pid :: !live;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match bound_addr ~log ~prefix with
    | Some addr -> { pid; addr }
    | None ->
        if fst (Unix.waitpid [ WNOHANG ] pid) <> 0 then begin
          live := List.filter (( <> ) pid) !live;
          failwith (Printf.sprintf "%s exited before listening:\n%s" bin (read_file log))
        end
        else if now () > deadline then failwith ("no listening line in " ^ log)
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
  in
  wait ()

(* SIGTERM, wait for the drain, SIGKILL after 20 s.  [true] iff the
   daemon exited 0 on its own. *)
let stop pid =
  live := List.filter (( <> ) pid) !live;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ when now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
    | 0, _ ->
        Unix.sleepf 0.005;
        wait ()
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (ECHILD, _, _) -> false
  in
  wait ()

let stop_all () = List.fold_left (fun clean pid -> stop pid && clean) true !live

type t = { state : string; coordinator : daemon; workers : daemon list }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Daemon logs go to [dir]; journals and the verdict cache to [dir/state],
   whose size is the journal-bytes metric. *)
let start ~dir =
  let state = Filename.concat dir "state" in
  mkdir_p state;
  let worker i =
    spawn
      ~log:(Filename.concat dir (Printf.sprintf "worker%d.log" i))
      ~prefix:"lbr-serve: listening on "
      [
        "serve"; "--socket"; "127.0.0.1:0"; "--jobs"; "1"; "--journal";
        Filename.concat state (Printf.sprintf "worker%d" i);
      ]
  in
  let workers = [ worker 1; worker 2 ] in
  let coordinator =
    spawn
      ~log:(Filename.concat dir "coordinator.log")
      ~prefix:"lbr-coordinate: listening on "
      ([
         "coordinate"; "--listen"; "127.0.0.1:0"; "--cache"; Filename.concat state "cache";
         "--journal"; Filename.concat state "coordinator";
       ]
      @ List.concat_map (fun w -> [ "--worker"; w.addr ]) workers)
  in
  { state; coordinator; workers }

let spec_of (input : Inputs.t) =
  {
    Lbr_server.Wire.tool = input.spec;
    strategy = Lbr_harness.Experiment.Gbr;
    priority = Normal;
    crash_policy = Lbr_runtime.Oracle.Crash_raises;
    retries = 0;
    pool_bytes = input.text;
    frontend = "jvm";
    trace_ctx = None;
  }

type job = {
  index : int;
  submitted : float;
  accepted : float;
  finished : float;
  result : (string * Lbr_server.Wire.stats * string, string) result;
}

(* A closed loop over [lanes] connections: each sends its next job only
   when the previous one has returned.  [more ~started ~elapsed] decides,
   under the loop's lock, whether another job starts.  A lane whose
   connection fails stops; its error is a failed job.  Returns the jobs in
   completion order and the loop's wall time. *)
let closed_loop t ~lanes ~inputs ~more =
  let lock = Mutex.create () in
  let started = ref 0 and jobs = ref [] in
  let t_start = now () in
  let finish job = Mutex.protect lock (fun () -> jobs := job :: !jobs) in
  let lane l =
    match Lbr_server.Client.connect t.coordinator.addr with
    | Error m ->
        let at = now () in
        finish { index = -1; submitted = at; accepted = at; finished = at; result = Error m }
    | Ok client ->
        Fun.protect ~finally:(fun () -> Lbr_server.Client.close client) @@ fun () ->
        let rec loop () =
          let next =
            Mutex.protect lock (fun () ->
                if more ~started:!started ~elapsed:(now () -. t_start) then begin
                  incr started;
                  Some (!started - 1)
                end
                else None)
          in
          match next with
          | None -> ()
          | Some index ->
              let input = inputs.(index mod Array.length inputs) in
              let accepted = ref nan in
              let span = Spans.fresh_id () in
              let submitted = now () in
              let result =
                Lbr_server.Client.submit client
                  ~on_accepted:(fun _ -> accepted := now ())
                  (spec_of input)
              in
              let finished = now () in
              Spans.record ~lane:l ~name:"wire.admit" ~id:(Spans.fresh_id ()) ~parent:span
                ~input:input.id submitted !accepted;
              Spans.record ~lane:l ~name:"cluster.job" ~id:span ~parent:0 ~input:input.id
                submitted finished;
              finish { index; submitted; accepted = !accepted; finished; result };
              if Result.is_ok result then loop ()
        in
        loop ()
  in
  List.iter Thread.join (List.init lanes (Thread.create lane));
  (List.rev !jobs, now () -. t_start)

let metrics addr =
  match Lbr_server.Client.connect addr with
  | Error m -> failwith ("metrics: " ^ m)
  | Ok client ->
      Fun.protect ~finally:(fun () -> Lbr_server.Client.close client) @@ fun () ->
      match Lbr_server.Client.metrics_dump client with
      | Ok (_, dump) -> dump
      | Error m -> failwith ("metrics: " ^ m)

(* A counter's value or a histogram's sum; 0 before its first update. *)
let value dump name =
  match Lbr_obs.Metrics.find_in_dump dump name with
  | Some (D_counter n) -> float_of_int n
  | Some (D_hist { d_sum; _ }) -> d_sum
  | Some (D_gauge _) | None -> 0.0

type snapshot = {
  coordinator_dump : Lbr_obs.Metrics.dump;
  worker_dumps : Lbr_obs.Metrics.dump list;
}

let snapshot t =
  {
    coordinator_dump = metrics t.coordinator.addr;
    worker_dumps = List.map (fun w -> metrics w.addr) t.workers;
  }

let coordinator_delta ~before ~after name =
  value after.coordinator_dump name -. value before.coordinator_dump name

let workers_delta ~before ~after name =
  List.fold_left2
    (fun acc b a -> acc +. value a name -. value b name)
    0.0 before.worker_dumps after.worker_dumps

(* Peak resident set of a process ([proc] is a pid or "self"). *)
let vm_hwm_mb proc =
  let status = read_file (Printf.sprintf "/proc/%s/status" proc) in
  match
    String.split_on_char '\n' status |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  with
  | None -> failwith "no VmHWM in /proc status"
  | Some line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)

let rec disk_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + disk_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).st_size
