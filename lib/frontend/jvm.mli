(** The JVM class-pool frontend — the paper's original workload, now just
    one {!Frontend.S} instance.

    Everything delegates to [lib/jvm]: inventory and variables to
    {!Lbr_jvm.Jvars}, the dependency model to {!Lbr_jvm.Constraints}, the
    reducer to {!Lbr_jvm.Reducer.prepare}, sizes to {!Lbr_jvm.Size} and
    the serializer to {!Lbr_jvm.Serialize} (LBRC container bytes).  The
    delegation is pure — the corpus harness, the CLI and the daemon reduce
    through this module (J-Reduce through {!Jvm_classes}, its
    class-granularity view) and produce byte-identical reductions to the
    pre-frontend code, which the test suite pins on the reference
    workload.

    [items] counts classes ({!Lbr_jvm.Size.classes}), the unit every JVM
    report uses: the harness timeline (Figure 9's class series), daemon
    progress and the [classes0]/[classes1] result fields.

    The predicate spec is a simulated-decompiler name
    ({!Lbr_decompiler.Tool}); [""] picks the first tool that is buggy on
    the input.  The bridged predicate is the paper's: the candidate
    sub-pool must reproduce every baseline error message. *)

include Frontend.S with type input = Lbr_jvm.Classpool.t and type ctx = Lbr_jvm.Jvars.t

val includes_sorted : baseline:string list -> string list -> bool
(** Sorted-list inclusion: is every baseline message present?  The error
    comparison used by the predicate bridge. *)

val tool_predicate :
  Lbr_jvm.Classpool.t -> spec:string -> (Lbr_jvm.Classpool.t -> bool, string) result
(** The predicate bridge itself, which needs no inventory: [predicate ctx]
    is [tool_predicate] for every [ctx].  For views of a pool with their
    own inventory ({!Jvm_classes}). *)
