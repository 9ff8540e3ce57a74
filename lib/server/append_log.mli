(** A crash-safe, line-oriented append-only log: the one file format
    behind the journal's [preds.log] and the cluster verdict cache.

    Every line is written whole and flushed to the OS before {!append}
    returns, so a [kill -9] can lose at most the line being written — and
    only as a torn tail with no final newline.  Both ends treat that tail
    the same way: {!fold} never yields it, and {!open_} cuts it off
    before appending, so the next line starts on a fresh line instead of
    being glued to the fragment.

    Line contents are the caller's: this module neither parses nor
    validates them, and a line must not contain ['\n'].  Not
    thread-safe; callers serialize access under their own lock. *)

type t

val open_ : string -> t
(** Open [path] for appending, creating it if missing.  An existing file
    is first truncated to just after its last ['\n'] (to empty if it has
    none): a torn fragment is dropped, never sealed into a whole line.
    Raises [Sys_error] / [Unix.Unix_error] if the file cannot be opened
    or truncated. *)

val append : t -> string -> unit
(** Write [line ^ "\n"] and flush it to the OS: once this returns, a
    [kill -9] cannot lose the line (power loss can). *)

val fold : string -> init:'a -> f:('a -> string -> 'a) -> 'a
(** Fold [f] over the newline-terminated lines of [path] in file order,
    each without its ['\n'].  A torn last line is not yielded.  A missing
    file yields [init]; an unreadable one raises [Sys_error]. *)

val close : t -> unit
