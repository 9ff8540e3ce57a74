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
    (supertypes, reachability, per-class method arrays, the list
    queries' resolution results) so repeated questions about one
    hierarchy — a constraint generation asks hundreds — are answered
    once.  Ids [0 .. pool_size - 1] are the pool's classes in
    [Classpool.classes] order; larger ids are the other names an edge
    points at (external or missing classes), which have no out-edges.
    The [iter_*] queries hand each path or witness to a callback in place
    and build no list; the list queries are built on them.  A context is
    not thread-safe. *)
module Ctx : sig
  type t

  val create : Classpool.t -> t
  val pool_size : t -> int

  val id : t -> string -> int
  (** The id of a name, [-1] if the pool never mentions it.  It hashes the
      name: a caller looks a reference up once and queries by id. *)

  val name : t -> int -> string
  val cls : t -> int -> Classfile.cls
  (** The class of a pool id ([< pool_size]). *)

  val methods : t -> int -> Classfile.meth array
  (** The [methods] of a pool id's class as an array, built on the first
      call: method indices ({!candidate}'s [member], {!abstract_obligations})
      index it. *)

  val first_edge : t -> int -> int
  val last_edge : t -> int -> int
  (** The out-edges of id [x] are the edge ids [first_edge x .. last_edge x]
      (empty unless [x] is a pool class): the extends edge when the
      superclass is internal, then one edge per listed interface, in the
      class's own order — the order of {!Jvars.class_vars}'s [ext] and
      [ifaces]. *)

  val iter_closure_edges : t -> int -> (int -> unit) -> unit
  (** [iter_closure_edges t x f] applies [f] to every out-edge of every id
      reachable from [x], [x] included, once each: a depth-first walk that
      lists a node's edges in order, each edge followed by the edges of its
      target when the walk first reaches it.  [f] must not query [t]. *)

  val iter_paths : t -> src:int -> dst:int -> max_paths:int -> (int array -> int -> unit) -> int
  (** [iter_paths t ~src ~dst ~max_paths f] calls [f stack len] on each
      relation path from [src] to [dst], depth first (out-edges in order),
      pruned by memoized reachability and capped at [max_paths], with the
      path's edges in [stack.(0 .. len - 1)] (read them during the call;
      [f] must not enumerate paths or supertypes of [t], which reuse the
      stack).  One empty path when [src =
      dst], none when either id is [-1].  Returns the number of paths
      found, so [max_paths] can mean the enumeration overflowed. *)

  val subtype_paths : t -> sub:int -> sup:int -> path list
  (** Up to three relation paths witnessing [sub ≤ sup]; empty when it does
      not hold in the pool. *)

  val iter_subtype_paths : t -> sub:int -> sup:int -> (int array -> int -> unit) -> unit
  (** {!subtype_paths} through {!iter_paths}, without building the list. *)

  val iter_method_candidates :
    t -> owner:int -> meth:string -> static:bool -> (int -> int -> int array -> int -> unit) -> unit
  (** [iter_method_candidates t ~owner ~meth ~static f] calls [f def member
      stack len] on each witness {!method_candidates} lists, in its order,
      with the witness's path in [stack.(0 .. len - 1)] as {!iter_paths}
      gives it, and without building or memoizing the list: for a caller
      that resolves each reference once anyway. *)

  val iter_field_candidates :
    t -> owner:int -> field:string -> (int -> int -> int array -> int -> unit) -> unit
  (** {!iter_method_candidates} for {!field_candidates}. *)

  val method_candidates : t -> owner:int -> meth:string -> static:bool -> candidate list
  (** Classes or interfaces on [owner]'s supertype graph whose first method
      called [meth] has matching staticness, each with up to two relation
      paths from [owner] to it, in supertype visit order starting at
      [owner].  An external or unknown [owner] resolves trivially, to the
      single [def = -1] witness. *)

  val field_candidates : t -> owner:int -> field:string -> candidate list
  (** Like {!method_candidates} but for fields, searched on the class chain
      only. *)

  val iter_abstract_obligations : t -> int -> (int -> int -> unit) -> unit
  (** [iter_abstract_obligations t x f] calls [f s i] on each of
      {!abstract_obligations}, in its order, without building the list. *)

  val abstract_obligations : t -> int -> (int * int) list
  (** For a concrete class: every abstract method declared by a reachable
      supertype [s] (interface or abstract class), as [(s, method index)] —
      the obligations the class must satisfy with a concrete
      implementation.  Premise paths are enumerated separately with
      {!iter_paths}, because dropping paths from obligation premises would
      weaken the model. *)

  val check_acyclic : t -> (unit, string) result
  (** No class or interface may be its own (transitive) supertype. *)
end

val super_chain : Classpool.t -> string -> string list
(** [super_chain pool c] lists [c] and its superclasses, innermost first,
    ending with the first external class (usually [Object]).  Assumes
    acyclicity. *)
