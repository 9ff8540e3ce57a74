(** Service addresses: Unix domain socket paths and TCP [host:port]
    endpoints, parsed from one string syntax shared by every CLI flag
    that names a daemon.

    A string containing a colon whose last segment parses as a port
    number is TCP ([host:port]); everything else is a Unix socket path.
    [127.0.0.1:7421] and [localhost:7421] are TCP; [/tmp/lbr.sock] and
    [./relative.sock] are Unix.  An explicit [tcp:] or [unix:] prefix
    disambiguates the pathological cases (a file literally named
    [a:1]). *)

type t =
  | Unix_path of string
  | Tcp of string * int
      (** host, port in [0, 65535]; port 0 means "kernel picks" at
          {!listen} time (see {!bound_port}) *)

val parse : string -> (t, string) result
(** Total: never raises.  Rejects empty strings, out-of-range ports and
    empty hosts with a human-readable reason. *)

val to_string : t -> string
(** Round-trips through {!parse} (modulo an explicit [unix:] prefix on
    paths that would otherwise parse as TCP). *)

val sockaddr : t -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr].  For TCP the host is resolved via
    [getaddrinfo] (IPv4 preferred); raises [Failure] if it does not
    resolve. *)

val listen : ?backlog:int -> t -> Unix.file_descr
(** Bind and listen.

    Stale-endpoint handling is transport-specific — the Unix-path trick
    (unlink the socket file and rebind) is wrong for TCP, where there is
    no file to unlink and the name is owned by the kernel:

    - [Unix_path p]: if [p] exists, a probe connect classifies it.  A
      successful connect means a live daemon — [Failure].  [ECONNREFUSED]
      means the corpse of a crashed daemon — unlinked and replaced.  Any
      other error (e.g. [EACCES]) is re-raised as [Failure] rather than
      blindly unlinking a file we cannot even probe.
    - [Tcp _]: [SO_REUSEADDR] is set (a drained daemon's TIME_WAIT must
      not block its successor); a bind failing with [EADDRINUSE] means a
      live listener and becomes [Failure] — nothing is ever unlinked.

    The returned descriptor has [close-on-exec] set. *)

val bound_port : Unix.file_descr -> int
(** The actual local port of a bound TCP socket — the way to recover the
    kernel-chosen port after listening on port 0.  Raises [Failure] on a
    non-inet socket. *)

val connect : t -> (Unix.file_descr, string) result
(** Create the right kind of socket and connect.  [Error] carries a
    message naming the address.  The descriptor has [close-on-exec]
    set, and a TCP one [TCP_NODELAY]: frames go out as they are
    written, never held back waiting for the peer's delayed ACK. *)

val accept : Unix.file_descr -> Unix.file_descr
(** Accept one connection on a descriptor from {!listen}.  The
    connection has [close-on-exec] set, and [TCP_NODELAY] when the peer
    is [ADDR_INET]; a Unix-socket peer gets no socket option.  Raises
    [Unix.Unix_error] as [Unix.accept] does. *)
