(** Constraint generation for class pools.

    Extends the FJI model of Section 3 to the bytecode substrate's "full
    Java" features: abstract classes, multiple interfaces, interfaces
    extending interfaces, super-class relations as removable items, fields,
    overloaded constructors (with the implicit super-constructor call), type
    casts, and the reflection/generics approximation (a body doing
    reflection on a class depends on that class keeping all its supertype
    relations).

    The generated formula is sound in the sense of Theorem 3.1: any
    satisfying assignment, applied by {!Reducer.apply}, yields a pool that
    {!Checker.check} accepts (property-tested in the test suite). *)

open Lbr_logic

val generate : Jvars.t -> Classpool.t -> Cnf.t
(** The dependency model of the pool, emitted directly as clauses.  The
    pool must be valid ({!Checker.is_valid}); references to missing classes
    raise [Invalid_argument].  Timed as the [jvm.constraints] {!Perf}
    phase.

    Each distinct member reference — (class, instruction kind, member) —
    is resolved once per call into a packed conclusion, which every body
    using it emits by index; conclusions, premises and disjunctions are
    built in scratch buffers that each domain reuses from call to call,
    so generations on different domains do not share state.  Besides the
    returned formula (about 1.8 words per literal) a call allocates a few
    words per literal. *)
