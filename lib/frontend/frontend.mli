(** The [Frontend] signature: what a domain must provide to become a
    reduction workload.

    The paper's algorithms only ever see an Input Reduction Problem —
    a variable universe [I], a CNF validity formula [R_I], and a black-box
    predicate [𝒫] (Definition 4.1).  A frontend is the adapter that builds
    that triple from a concrete artifact (a JVM class pool, a DIMACS file,
    an FJI program): an item inventory ({!S.derive}/{!S.universe}), a
    constraint generator ({!S.constraints}), a serializer
    ({!S.parse}/{!S.print}), size metrics ({!S.items}/{!S.bytes}), and a
    predicate bridge ({!S.predicate}).

    Invariants every frontend must maintain (checked for the shipped ones
    by the test suite):

    - {b Soundness of [R_I]}: the full item set satisfies the generated
      constraints, and any assignment satisfying them maps ({!S.prepare})
      to a well-formed artifact of the domain.  Constraints may
      over-approximate (pruning valid sub-inputs is allowed); they must
      never admit an assignment whose artifact is malformed in a way the
      predicate cannot evaluate.
    - {b Monotone predicate}: on constraint-satisfying sub-inputs, if the
      bridged predicate holds on [φ] it holds on every valid [φ' ⊇ φ].
      {!Run} relies on this exactly as GBR does.
    - {b Serializer totality}: {!S.parse} returns [Error] on malformed
      bytes — never raises — and [parse (print x)] succeeds for every [x]
      produced by [parse] or {!S.prepare}.

    Frontends are identified by {!S.id} strings; {!Registry} maps ids (and
    file extensions) to packed instances for the CLI and the wire layer. *)

open Lbr_logic

module type S = sig
  val id : string
  (** Stable identifier, used on the command line ([--frontend <id>]) and
      in wire/journal frontend tags.  Lowercase, no whitespace. *)

  val doc : string
  (** One-line description for [--frontend] listings. *)

  val extensions : string list
  (** File extensions (with the dot, e.g. [".cnf"]) this frontend claims,
      used to infer a frontend from an input path. *)

  type input
  (** The domain artifact being reduced. *)

  type ctx
  (** Per-input derivation state: the item inventory with its variable
      bindings (e.g. [Lbr_jvm.Jvars.t]). *)

  val parse : string -> (input, string) result
  (** Deserialize an artifact from its transport form (file contents /
      wire payload bytes).  Total. *)

  val print : input -> string
  (** Serialize an artifact — the inverse of {!parse}, and the payload of
      results.  For textual domains this is the concrete syntax. *)

  val items : input -> int
  (** The size in the domain's natural unit; the first axis of progress
      reporting.  [dimacs] and [fj] count their reducible items; [jvm]
      counts classes, the unit every JVM report uses. *)

  val bytes : input -> int
  (** Size in (estimated) bytes; the second axis, and the input to the
      simulated-cost model [1 + 4e-4 × bytes]. *)

  val derive : Var.Pool.t -> input -> (ctx, string) result
  (** Register one variable per item (creation order = the default
      reduction order [<]) and return the inventory. *)

  val universe : ctx -> Assignment.t
  (** The full variable set [I]. *)

  val constraints : ctx -> input -> (Cnf.t, string) result
  (** The validity formula [R_I] over the inventory's variables. *)

  val prepare : ctx -> input -> Assignment.t -> input
  (** [prepare ctx x] is the reducer: partially applied to resolve the
      inventory once, then applied per candidate assignment.  [prepare ctx
      x (universe ctx) = x] up to representation. *)

  val predicate : ctx -> input -> spec:string -> (input -> bool, string) result
  (** Bridge the black-box predicate.  [spec] is frontend-specific
      configuration carried in the job spec's tool field: the decompiler
      name for [jvm] ([""] = first buggy), a required substring of the
      printed artifact for [fj], unused for [dimacs].  [Error] when the
      full input does not satisfy the predicate (nothing to reduce) or
      [spec] is invalid. *)
end

type packed = Packed : (module S with type input = 'i and type ctx = 'c) -> packed
(** Existentially packed frontend, for registries and dispatch on ids. *)

val id_of : packed -> string
val doc_of : packed -> string
val extensions_of : packed -> string list
