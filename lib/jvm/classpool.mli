(** Pools of classes — the unit of input the tools under test consume.

    External classes (JDK stand-ins) are not in the pool; references to them
    always resolve and they are never reduced.

    A pool is an array of slots over a name index: the names of one input's
    classes, in name order.  The sub-pools made from a pool share its index
    — all but {!set} of a name the index lacks — so a class's slot found
    in one of them is its slot in all of them. *)

type t

val of_classes : Classfile.cls list -> t
(** Raises [Invalid_argument] on duplicate class names. *)

val find : t -> string -> Classfile.cls option
(** Internal classes only; [None] for external names. *)

val mem : t -> string -> bool
val classes : t -> Classfile.cls list
(** In name order (deterministic). *)

val names : t -> string list
val size : t -> int
(** Number of internal classes. *)

val fold : (Classfile.cls -> 'a -> 'a) -> t -> 'a -> 'a

val memo_bytes : t -> (t -> int) -> int
(** Memoization slot for {!Size.bytes}: runs [compute] on the first call
    and caches the (non-negative) result on the pool. *)

val set : t -> Classfile.cls -> t
(** Functional add-or-replace by the class's own name. *)

val unset : t -> string -> t
(** Functional removal; identity when the name is absent. *)

val with_bytes : t -> int -> t
(** The pool with its byte size already memoized — for builders that
    accumulate the size while assembling the pool. *)

(** {2 Slots} *)

val slot : t -> string -> int
(** The position of a name in the pool's name index, [-1] when the index
    lacks it (the pool may still lack the class: see {!find_slot}). *)

val slot_count : t -> int
(** The number of names in the index, at least {!size}. *)

val same_index : t -> t -> bool
(** Whether two pools share one name index, so that a slot means the same
    name in both. *)

val find_slot : t -> int -> Classfile.cls option
(** The class at a slot, [None] when the pool lacks it. *)

val vacant : Classfile.cls
(** The filler of a slot whose class the pool lacks; told apart by physical
    equality, never by its fields. *)

val of_slots : t -> Classfile.cls array -> t
(** [of_slots pool slots] is the pool over [pool]'s name index holding
    [slots.(i)] at slot [i], or no class there when it is {!vacant}.  The
    pool keeps [slots]: the caller must not write it afterwards.  Raises
    [Invalid_argument] when [slots] has not {!slot_count} entries or holds
    a class at another name's slot. *)
