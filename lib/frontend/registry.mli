(** The table of known frontends, keyed by id and by file extension. *)

val all : Frontend.packed list
(** [jvm], [dimacs], [fj] — registration order is display order. *)

val ids : string list

val find : string -> (Frontend.packed, string) result
(** Lookup by id.  The error message lists every known frontend, so a
    typo on the command line (or an unknown wire tag) is self-explaining. *)

val find_for : strategy:Run.strategy -> string -> (Frontend.packed, string) result
(** The frontend a [strategy] searches when asked to reduce frontend [id]
    ([""] is [jvm], as in wire specs): {!find}'s, except that J-Reduce on
    [jvm] searches {!Jvm_classes}, the class-granularity view of the same
    pool. *)

val for_path : string -> (Frontend.packed, string) result
(** Infer a frontend from a file path's extension ([.cnf] → dimacs, [.fj]
    → fj, [.lbrc] → jvm); the error lists the known extensions. *)
