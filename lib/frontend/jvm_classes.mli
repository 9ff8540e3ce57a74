(** J-Reduce's view of a JVM class pool: one item per class, and one graph
    constraint (an edge) per class reference — the granularity the
    J-Reduce baseline (Kalhauge and Palsberg, FSE 2019) reduces at.
    Serialization, sizes and the predicate are {!Jvm}'s, so a reduction
    through this view prints LBRC bytes like any jvm reduction.

    Not a registered frontend: {!Registry.find_for} substitutes it for
    [jvm] when the strategy is {!Run.Jreduce}. *)

include Frontend.S with type input = Lbr_jvm.Classpool.t and type ctx = string array
