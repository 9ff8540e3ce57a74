type t = { fd : Unix.file_descr }

type progress = { sim_time : float; classes : int; bytes : int }

let connect addr_string =
  match Addr.parse addr_string with
  | Error m -> Error m
  | Ok addr -> (
      match Addr.connect addr with
      | Error m -> Error m
      | Ok fd -> (
          match
            Wire.write_message fd (Wire.Hello Wire.protocol_version);
            Wire.read_message fd
          with
          | Ok (Wire.Hello_ok _) -> Ok { fd }
          | Ok (Wire.Protocol_error m) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error ("server refused handshake: " ^ m)
          | Ok _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error "unexpected handshake reply"
          | Error `Closed ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error "server closed the connection during handshake"
          | Error (`Malformed m) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error ("malformed handshake reply: " ^ m)
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error (addr_string ^ ": " ^ Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type submit_error =
  [ `Rejected of string * float
  | `Job_failed of string
  | `Conn of string ]

let read_or_conn t =
  match Wire.read_message t.fd with
  | Ok msg -> Ok msg
  | Error `Closed -> Error (`Conn "server closed the connection")
  | Error (`Malformed m) -> Error (`Conn ("malformed server frame: " ^ m))
  | exception Unix.Unix_error (e, _, _) -> Error (`Conn (Unix.error_message e))

let submit_ex t ?(on_progress = fun (_ : progress) -> ())
    ?(on_verdict = fun ~key:(_ : string) ~ok:(_ : bool) -> ())
    ?(on_accepted = fun (_ : string) -> ()) ?(seeds = []) spec =
  let request = if seeds = [] then Wire.Submit spec else Wire.Submit_seeded { spec; seeds } in
  match Wire.write_message t.fd request with
  | exception Unix.Unix_error (e, _, _) -> Error (`Conn (Unix.error_message e))
  | () -> (
      (* First the admission reply... *)
      match read_or_conn t with
      | Error _ as e -> e
      | Ok (Wire.Rejected { reason; retry_after }) ->
          Error (`Rejected (reason, retry_after))
      | Ok (Wire.Protocol_error m) -> Error (`Conn ("protocol error: " ^ m))
      | Ok (Wire.Accepted job_id) ->
          on_accepted job_id;
          (* ...then the job's event stream up to its terminal frame. *)
          let rec wait () =
            match read_or_conn t with
            | Error _ as e -> e
            | Ok (Wire.Progress p) when p.job_id = job_id ->
                on_progress
                  { sim_time = p.sim_time; classes = p.classes; bytes = p.bytes };
                wait ()
            | Ok (Wire.Verdict v) when v.job_id = job_id ->
                on_verdict ~key:v.key ~ok:v.ok;
                wait ()
            | Ok (Wire.Result r) when r.job_id = job_id ->
                Ok (job_id, r.stats, r.pool_bytes)
            | Ok (Wire.Job_failed { job_id = id; reason }) when id = job_id ->
                Error (`Job_failed reason)
            | Ok (Wire.Protocol_error m) -> Error (`Conn ("protocol error: " ^ m))
            | Ok _ -> wait ()  (* frames for other jobs on a shared connection *)
          in
          wait ()
      | Ok _ -> Error (`Conn "unexpected reply to submit"))

let submit t ?on_progress ?on_verdict ?on_accepted ?seeds spec =
  match submit_ex t ?on_progress ?on_verdict ?on_accepted ?seeds spec with
  | Ok _ as ok -> ok
  | Error (`Rejected (reason, retry_after)) ->
      Error
        (if retry_after > 0. then
           Printf.sprintf "rejected: %s (retry in %.1fs)" reason retry_after
         else "rejected: " ^ reason)
  | Error (`Job_failed reason) -> Error ("job failed: " ^ reason)
  | Error (`Conn m) -> Error m

(* Write one request and wait for the first frame [reply] accepts,
   skipping frames for jobs on a shared connection. *)
let request t msg reply =
  match Wire.write_message t.fd msg with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () ->
      let rec wait () =
        match read_or_conn t with
        | Error (`Conn m) -> Error m
        | Ok (Wire.Protocol_error m) -> Error ("protocol error: " ^ m)
        | Ok msg -> ( match reply msg with Some v -> Ok v | None -> wait ())
      in
      wait ()

let stats t =
  request t Wire.Stats_request (function Wire.Stats_reply s -> Some s | _ -> None)

(* The midpoint of the request on this side's clock: with the reply's
   [nd_server_now], the half-RTT estimate of the node's clock skew. *)
let trace_dump t =
  let sent = Unix.gettimeofday () in
  let reply =
    request t Wire.Trace_dump_request (function
      | Wire.Trace_dump_reply d -> Some d
      | _ -> None)
  in
  let received = Unix.gettimeofday () in
  Result.map
    (fun (d : Lbr_obs.Tdump.node_dump) -> { d with nd_client_mid = (sent +. received) /. 2. })
    reply

(* The answering node's own view is the [""] one, always first. *)
let metrics_dump t =
  Result.bind (stats t) (fun (s : Wire.daemon_stats) ->
      match List.assoc_opt "" s.metrics with
      | Some dump -> Ok (s.node, dump)
      | None -> Error "stats reply lacks the node's own metrics view")

let cancel t job_id =
  request t (Wire.Cancel job_id) (function
    | Wire.Cancel_ok { job_id = id; found } when id = job_id -> Some found
    | _ -> None)
