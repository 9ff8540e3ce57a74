(** Boolean variables: dense integer identifiers.

    A variable stands for one item of the input, but nothing on the
    reduction path looks an item up by its variable's name, so a variable
    has none: a {!Pool} only hands out fresh identifiers.  A frontend that
    needs names for its variables keeps its own table (the FJI frontend's
    [Vars] does). *)

type t = int
(** A variable identifier, dense in [0 .. Pool.size - 1] for its pool. *)

module Pool : sig
  type var = t

  type t
  (** A counter of allocated variables. *)

  val create : unit -> t

  val fresh : t -> var
  (** [fresh pool] allocates the next identifier, [size pool]; creation
      order is the default total order [<] used by the MSA procedure and
      GBR. *)

  val size : t -> int
  (** Number of allocated variables. *)
end
