(** Applying a truth assignment to a class pool — the bytecode counterpart
    of the FJI reducer (Figure 5). *)

open Lbr_logic

val apply : Jvars.t -> Classpool.t -> Assignment.t -> Classpool.t
(** Keep exactly the items whose variables are set: classes disappear
    entirely; a removed extends relation re-parents onto [Object]; removed
    implements / interface-extends relations are dropped from the interface
    list; a method kept without its code gets an empty (stub) body; likewise
    constructors; fields, annotations and inner-class attributes are
    filtered. *)

val prepare : Jvars.t -> Classpool.t -> Assignment.t -> Classpool.t
(** Partial application of {!apply}: resolves every item's variable once so
    that repeated applications to the same pool (one per predicate query)
    cost only integer membership tests instead of per-item hash lookups.

    Between calls the applier keeps the previous assignment's words, each
    class's current reduced form, and every reduced form a class has had,
    by its signature (the bits of its own variables and of the constructor
    variables of the pool classes it instantiates).  A call revisits only
    the classes with a signature bit in a word that changed, so a call
    after a nearby assignment costs little; results never depend on the
    call history.  The applier mutates that memory in place: it must stay
    on the domain that calls it (one applier per domain, as a
    [Domain.DLS] key gives). *)
