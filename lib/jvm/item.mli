(** The reducible items of a class pool — the paper's "total of 11 kinds of
    items", each of which becomes one Boolean variable. *)

type t =
  | Class of string
  | Extends of string
      (** the super-class relation of a class; removing it re-parents the
          class onto [Object] *)
  | Implements of { cls : string; iface : string }
  | Iface_extends of { iface : string; super : string }
  | Field of { cls : string; field : string }
  | Method of { cls : string; meth : string }
  | Code of { cls : string; meth : string }
  | Ctor of { cls : string; index : int }
  | Ctor_code of { cls : string; index : int }
  | Annotation of { cls : string; index : int }
  | Inner_class of { cls : string; index : int }

val to_string : t -> string
(** A unique, stable, human-readable name, for diagnostics (variables
    carry no names; {!Jvars} maps items to variables directly). *)

val owner : t -> string
(** The class the item belongs to. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
