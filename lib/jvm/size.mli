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
    predicate call).  [bytes pool] sums, over every class,
    [class_header_bytes], the weighted member counts and each method's and
    constructor's bytes, {!meth_bytes_with} and {!ctor_bytes_with} of its
    body's {!insn_bytes}. *)

val class_header_bytes : Classfile.cls -> int
val iface_bytes : int
val field_bytes : int
val annotation_bytes : int
val inner_bytes : int
val insn_bytes : Classfile.insn -> int

val meth_bytes_with : Classfile.meth -> insns:int -> int
(** The method's bytes when its body's {!insn_bytes} sum to [insns]: a
    walk of the body for another purpose can sum them on the way. *)

val ctor_bytes_with : Classfile.ctor -> insns:int -> int

val meth_stub_bytes : Classfile.meth -> int
(** The method's bytes with its body replaced by a stub (a lone return),
    as {!Reducer} stubs it; an abstract method's own size. *)

val ctor_stub_bytes : Classfile.ctor -> int
