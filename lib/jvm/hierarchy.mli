(** Class-hierarchy queries shared by the checker, the decompiler's patterns
    and the constraint generator.

    Queries go through a context that interns one pool's class names as
    integer ids.  Resolution results are reported together with the
    {e relation path} that makes them hold — the extends / implements /
    interface-extends edges a reduced pool must preserve for the resolution
    to keep succeeding.  The constraint generator maps each edge to its item
    variable; the checker only cares that some path exists. *)

type path = int list
(** Edge ids (see {!Ctx.first_edge}), from the query's source outward. *)

(** A resolution witness: the member with index [member] (in the
    [methods] or [fields] list of class [def]) reached along [path].
    [def = -1] marks a reference that resolves outside the pool (its owner
    is external or unknown); such a witness has [member = -1] and an empty
    path. *)
type candidate = { def : int; member : int; path : path }

(** A query context over one fixed pool, with lazy memo tables
    (reachability, enumerated paths, resolution results) so repeated
    questions about one hierarchy — a constraint generation asks hundreds —
    are answered once.  Ids [0 .. pool_size - 1] are the pool's classes in
    [Classpool.classes] order; larger ids are the other names an edge
    points at (external or missing classes), which have no out-edges.  A
    context is not thread-safe. *)
module Ctx : sig
  type t

  val create : Classpool.t -> t
  val pool_size : t -> int

  val id : t -> string -> int
  (** The id of a name, [-1] if the pool never mentions it. *)

  val name : t -> int -> string
  val cls : t -> int -> Classfile.cls
  (** The class of a pool id ([< pool_size]). *)

  val first_edge : t -> int -> int
  val last_edge : t -> int -> int
  (** The out-edges of id [x] are the edge ids [first_edge x .. last_edge x]
      (empty unless [x] is a pool class): the extends edge when the
      superclass is internal, then one edge per listed interface, in the
      class's own order — the order of {!Jvars.class_vars}'s [ext] and
      [ifaces]. *)

  val edge_target : t -> int -> int

  val paths_to : t -> src:int -> dst:int -> max_paths:int -> path list
  (** All relation paths from [src] to [dst], pruned by memoized
      reachability and capped at [max_paths] results (so
      [length result = max_paths] can mean the enumeration overflowed).
      [[[]]] when [src = dst]; empty when either id is [-1]. *)

  val subtype_paths : t -> sub:int -> sup:int -> path list
  (** Up to three relation paths witnessing [sub ≤ sup]; empty when it does
      not hold in the pool. *)

  val method_candidates : t -> owner:int -> meth:string -> static:bool -> candidate list
  (** Classes or interfaces on [owner]'s supertype graph whose first method
      called [meth] has matching staticness, each with up to two relation
      paths from [owner] to it, in supertype visit order starting at
      [owner].  An external or unknown [owner] resolves trivially, to the
      single [def = -1] witness. *)

  val field_candidates : t -> owner:int -> field:string -> candidate list
  (** Like {!method_candidates} but for fields, searched on the class chain
      only. *)

  val abstract_obligations : t -> int -> (int * int) list
  (** For a concrete class: every abstract method declared by a reachable
      supertype [s] (interface or abstract class), as [(s, method index)] —
      the obligations the class must satisfy with a concrete
      implementation.  Premise paths are enumerated separately with
      {!paths_to}, because dropping paths from obligation premises would
      weaken the model. *)

  val check_acyclic : t -> (unit, string) result
  (** No class or interface may be its own (transitive) supertype. *)
end

val super_chain : Classpool.t -> string -> string list
(** [super_chain pool c] lists [c] and its superclasses, innermost first,
    ending with the first external class (usually [Object]).  Assumes
    acyclicity. *)
