type t = Unix_path of string | Tcp of string * int

(* Port 0 is legal: it asks the kernel for a free port at bind time,
   recovered afterwards with [bound_port]. *)
let port_ok p = p >= 0 && p <= 65535

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> Error (s ^ ": expected host:port")
  | Some i -> (
      let host = String.sub s 0 i in
      let port_s = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port_s with
      | None -> Error (Printf.sprintf "%s: port %S is not an integer" s port_s)
      | Some p when not (port_ok p) ->
          Error (Printf.sprintf "%s: port %d out of range [0, 65535]" s p)
      | Some p ->
          if host = "" then Error (s ^ ": empty host")
          else Ok (Tcp (host, p)))

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let strip_prefix ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

let parse s =
  if s = "" then Error "empty address"
  else if has_prefix ~prefix:"unix:" s then
    let p = strip_prefix ~prefix:"unix:" s in
    if p = "" then Error (s ^ ": empty socket path") else Ok (Unix_path p)
  else if has_prefix ~prefix:"tcp:" s then parse_hostport (strip_prefix ~prefix:"tcp:" s)
  else if String.contains s ':' then
    (* A colon suggests host:port; fall back to a path when the tail is
       not a port (e.g. a weird filename) only if it looks like a path. *)
    match parse_hostport s with
    | Ok _ as ok -> ok
    | Error _ when String.contains s '/' -> Ok (Unix_path s)
    | Error _ as e -> e
  else Ok (Unix_path s)

let to_string = function
  | Unix_path p -> if String.contains p ':' then "unix:" ^ p else p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) -> (
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
      with
      | { Unix.ai_addr; _ } :: _ -> ai_addr
      | [] -> (
          (* no IPv4 binding; try any family before giving up *)
          match
            Unix.getaddrinfo host (string_of_int port)
              [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
          with
          | { Unix.ai_addr; _ } :: _ -> ai_addr
          | [] -> failwith (Printf.sprintf "%s: host does not resolve" host)))

let domain_of = function Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

(* A Unix socket file can be a live daemon or the corpse of a crashed
   one: a probe connect tells them apart.  Only ECONNREFUSED licenses
   the unlink — any other failure (EACCES, ELOOP, ...) means we cannot
   even classify the file and must not delete it. *)
let claim_unix_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> `Live
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
      | exception Unix.Unix_error (e, _, _) -> `Unprobeable e
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    match verdict with
    | `Live -> failwith (path ^ ": socket is in use by a running daemon")
    | `Stale -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Unprobeable e ->
        failwith
          (Printf.sprintf "%s: cannot probe existing socket (%s); not removing it" path
             (Unix.error_message e))
  end

let listen ?(backlog = 16) addr =
  (match addr with Unix_path p -> claim_unix_path p | Tcp _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.set_close_on_exec fd;
     (match addr with
     | Tcp _ ->
         (* a drained daemon's TIME_WAIT must not block its successor *)
         Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_path _ -> ());
     (try Unix.bind fd (sockaddr addr)
      with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
        (* TCP only (the Unix path was claimed above): a live listener
           owns the port; there is nothing to unlink, so this is final. *)
        failwith (to_string addr ^ ": address is in use by a running daemon"));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> failwith "Addr.bound_port: not an inet socket"

(* Every frame goes out in one [write], and a sender often writes several
   with no reply between them (a job's verdicts, then its result).  With
   Nagle on, each small frame waits for the ACK of the one before, which
   the reader delays (by 40 ms or more on Linux); so every TCP socket sets
   [TCP_NODELAY].  A Unix socket has no such option: setting it fails. *)
let no_delay fd = Unix.setsockopt fd Unix.TCP_NODELAY true

let connect addr =
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  match
    Unix.set_close_on_exec fd;
    Unix.connect fd (sockaddr addr);
    match addr with Tcp _ -> no_delay fd | Unix_path _ -> ()
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (to_string addr ^ ": " ^ Unix.error_message e)
  | exception Failure m ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error m

let accept listen_fd =
  let fd, peer = Unix.accept ~cloexec:true listen_fd in
  (match peer with
  | Unix.ADDR_INET _ -> (
      try no_delay fd
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e)
  | Unix.ADDR_UNIX _ -> ());
  fd
