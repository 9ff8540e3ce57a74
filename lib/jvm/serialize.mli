(** Binary serialization of class pools.

    A compact class-file-like container format (magic, version, constant
    pool of strings, then structured records), so pools can be written to
    disk, shipped in bug reports, and measured by their true serialized
    size.  The format round-trips exactly ([of_bytes (to_bytes p) = p]),
    which the test suite checks by property.

    Layout, in {!Lbr_codec.Codec} primitives (big-endian):
    {v
    file   := magic(4: "LBRC") version(u16) class_count(u16) class*
    class  := strtab body
    strtab := count(u16) str16*                 — per-class string table
    body   := name super flags(u8) interfaces fields methods ctors
              annotations inner_classes
    v}
    Strings inside a class body are u16 indices into its string table;
    lists are length-prefixed (u16).

    Decoding is total — the daemon decodes pools straight off a socket:
    any input gives [Ok] or [Error], never an exception.  Besides the
    codec's own checks, a string index must be inside its class's table,
    array types nest at most 64 deep, and class names are unique. *)

val class_of_bytes : string -> (Classfile.cls, string) result
(** One class body, which must fill the whole input. *)

val to_bytes : Classpool.t -> string
val of_bytes : string -> (Classpool.t, string) result

val serialized_size : Classpool.t -> int
(** [String.length (to_bytes pool)] — the honest byte size of the pool. *)

val write_file : string -> Classpool.t -> unit
val read_file : string -> (Classpool.t, string) result
