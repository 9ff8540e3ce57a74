(** Item inventory and Boolean-variable derivation for class pools. *)

open Lbr_logic

val items_of_pool : Classpool.t -> Item.t list
(** Every reducible item, in deterministic order: classes in name order;
    within a class: the class, its extends relation (when the superclass is
    internal), implements / interface-extends relations, fields, methods
    (each method followed by its code when present), constructors (likewise),
    annotations, inner-class attributes. *)

val count_items : Classpool.t -> int
(** [List.length (items_of_pool pool)], counted from the classes without
    building the items. *)

type t

val derive : Var.Pool.t -> Classpool.t -> t
(** Allocate one variable per item of the class pool (creation order =
    inventory order, the default reduction order [<]).  Raises
    [Invalid_argument] when a class repeats an interface, a field or a
    method name.  Builds no {!Item.t}: {!items}, {!var} and {!item_of}
    build the inventory on their first call. *)

(** One class's variables by position: [ifaces.(i)] is the relation to the
    class's [i]-th listed interface, [fields.(i)] its [i]-th field, and so
    on.  [-1] marks an item that does not exist: [ext] when the class is an
    interface or its superclass is external, [codes.(i)] for an abstract
    method. *)
type class_vars = {
  cls : Var.t;
  ext : Var.t;
  ifaces : Var.t array;
  fields : Var.t array;
  meths : Var.t array;
  codes : Var.t array;
  ctors : Var.t array;
  ctor_codes : Var.t array;
  annotations : Var.t array;
  inners : Var.t array;
}

val class_vars : t -> int -> class_vars
(** The variables of the [i]-th class of [Classpool.classes pool] (name
    order, the order {!Hierarchy.Ctx} numbers a pool's classes in), for
    the pool [t] was derived from. *)

val all : t -> Assignment.t
val items : t -> Item.t list
val var : t -> Item.t -> Var.t
(** Raises [Not_found] for items without a variable (e.g. anything on an
    external class). *)

val var_opt : t -> Item.t -> Var.t option
val item_of : t -> Var.t -> Item.t
val mem : t -> Var.t -> bool
