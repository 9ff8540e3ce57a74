(** Size metrics for class pools — the two axes of Figure 8a. *)

val classes : Classpool.t -> int
(** Number of internal classes. *)

val bytes : Classpool.t -> int
(** Estimated serialized size: constant-pool-ish overhead per class plus
    per-member and per-instruction costs.  The absolute scale is arbitrary;
    only ratios (final/original) are reported. *)

val items : Classpool.t -> int
(** Number of reducible items (the paper's "2.9k reducible items"
    statistic), counted from the classes without building the items. *)

(** The cost model, exposed so {!Reducer} can compute a sub-pool's byte size
    arithmetically while filtering (instead of re-walking every body per
    predicate call).  [bytes pool = class_header_bytes + weighted member
    counts + meth_bytes/ctor_bytes sums] for every class. *)

val class_header_bytes : Classfile.cls -> int
val iface_bytes : int
val field_bytes : int
val annotation_bytes : int
val inner_bytes : int

val meth_bytes : Classfile.meth -> int
val ctor_bytes : Classfile.ctor -> int

val meth_stub_bytes : Classfile.meth -> int
(** [meth_bytes] of the method with its body replaced by a stub (a lone
    return), as {!Reducer} stubs it; an abstract method's own size. *)

val ctor_stub_bytes : Classfile.ctor -> int
