(** Truth assignments, written as the set of true variables.

    Following the paper's notation, a solution is identified with the set of
    variables it maps to true; all other variables are false.  This module is
    an immutable set of {!Var.t} with the operations reduction algorithms
    need (prefix unions, differences, minima under a variable order), backed
    by a word-level bitset so the bulk operations run a word at a time. *)

type t

val empty : t
val singleton : Var.t -> t
val of_list : Var.t list -> t
val to_list : t -> Var.t list
(** Elements in increasing variable order. *)

val of_words : int array -> t
(** Low-level constructor from a little-endian word array ([Sys.int_size]
    bits per word, bit [b] of word [w] is variable [w * Sys.int_size + b]).
    The array is copied.  Used by packed data structures (e.g. the graph
    library's bitsets) to hand over a set without an element-by-element
    rebuild. *)

val of_slice : Var.t array -> pos:int -> len:int -> t
(** The set of [a.(pos) .. a.(pos + len - 1)], built in one word array
    sized by its largest element — a segment of a propagation trail read
    as a set, with no intermediate list. *)

val word_width : t -> int
(** Number of words in the canonical representation — the minimum buffer
    length {!or_into} accepts. *)

val digest_hex : t -> string
(** A 32-hex-character digest of the set, stable across processes on the
    same platform and injective up to digest collisions — a set-sized
    stand-in for digesting a serialized artifact derived from the set. *)

val word_at : t -> int -> int
(** The [i]-th representation word, [0] beyond {!word_width} — for readers
    that compare membership of a fixed variable set word-at-a-time. *)

val or_into : t -> int array -> unit
(** [or_into s buf] ors [s]'s words into [buf] in place: the scratch-buffer
    companion to {!of_words}, letting running unions (prefix unions of a
    progression) accumulate into one reused buffer instead of allocating an
    intermediate set per step.  Raises [Invalid_argument] when [buf] is
    shorter than [word_width s]. *)

val add : Var.t -> t -> t
val remove : Var.t -> t -> t
val mem : Var.t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val fold : (Var.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Var.t -> unit) -> t -> unit
val exists : (Var.t -> bool) -> t -> bool
val for_all : (Var.t -> bool) -> t -> bool
val filter : (Var.t -> bool) -> t -> t

val min_by : order:(Var.t -> int) -> t -> Var.t option
(** [min_by ~order s] is the element of [s] minimising [order], i.e. the
    [<]-smallest variable; [None] on the empty set. *)

val union_all : t list -> t
