(** Exact model counting (#SAT).

    The paper uses sharpSAT to count the valid sub-inputs of the Section 2
    example (6,766 of the 2²⁰ subsets).  This module provides an exact DPLL
    counter with unit propagation and connected-component decomposition —
    the two techniques that make sharpSAT-style counters fast — sufficient
    for the model sizes that appear in reduction problems' diagnostics.  It
    branches on a component's most frequent variable and reads the
    formula's own clause arrays, with a value array and an undo trail of
    its own; a clause's status is found by scanning its literals. *)

val count : Cnf.t -> over:Var.t list -> int
(** [count r ~over] is the number of assignments to the variables [over]
    that satisfy [r].  Every variable occurring in [r] must be listed in
    [over]; variables of [over] not occurring in [r] are free and double the
    count.  Raises [Invalid_argument] if [r] mentions a variable outside
    [over] or if [over] contains duplicates. *)

val count_naive : Cnf.t -> over:Var.t list -> int
(** Reference implementation enumerating all 2^|over| assignments; intended
    for cross-checking in tests (keep |over| ≤ 20). *)
