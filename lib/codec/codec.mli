(** The one binary codec: the big-endian primitives every binary format
    in the system is built from — wire frames ([Lbr_server.Wire]), LBRC
    class pools ([Lbr_jvm.Serialize]), metric dumps ([Lbr_obs.Metrics])
    and [.tdump] trace captures ([Lbr_cluster.Trace_merge]).

    Formats keep their own decisions (magic strings, versions, tag codes,
    field order); this module owns how an integer, a float or a string
    becomes bytes, and the one reader every untrusted byte goes through.

    {v
    u8 u16 u32  unsigned, big-endian
    i64         two's complement, big-endian (an OCaml [int])
    f64         IEEE-754 bits, big-endian
    bool        u8, 0 or 1
    str16       len(u16) bytes
    bytes32     len(u32) bytes
    v} *)

(** {2 Writing}

    Writers append to a [Buffer.t].  A value that does not fit its field
    raises [Invalid_argument]: that is a bug in the caller, never input. *)

val w_u8 : Buffer.t -> int -> unit
val w_u16 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit
val w_i64 : Buffer.t -> int -> unit
val w_f64 : Buffer.t -> float -> unit
val w_bool : Buffer.t -> bool -> unit
val w_str16 : Buffer.t -> string -> unit
val w_bytes32 : Buffer.t -> string -> unit

(** {2 Reading}

    Readers consume a string front to back.  On truncation or a bad
    value they abort the enclosing {!read}, which returns [Error]; they
    never raise anything a caller has to catch. *)

type reader

val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int
val r_f64 : reader -> float
val r_bool : reader -> bool
(** Any byte other than 0 or 1 is malformed. *)

val r_str16 : reader -> string
val r_bytes32 : reader -> string

val r_magic : reader -> string -> unit
(** [r_magic r m] consumes [String.length m] bytes that must equal [m]. *)

val r_count : reader -> int -> int
(** [r_count r n] is [n] if at most the bytes left in the input: every
    list element takes at least one byte, so a larger count is malformed
    and is refused before anything is allocated for it. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Abort the enclosing {!read} with a formatted [Error] — for a
    format's own checks (an unknown tag, a bad version). *)

val read : string -> (reader -> 'a) -> ('a, string) result
(** [read data f] runs [f] over [data] and requires it to consume every
    byte.  Total: any input gives [Ok] or [Error], never an exception
    from the codec. *)
