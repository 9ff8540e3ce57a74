(** The Boolean variables [V(P)] derived from an FJI program.

    Six kinds of variables toggle program items: classes [\[C\]], interfaces
    [\[I\]], implements relations [\[C ◁ I\]], class methods [\[C.m()\]],
    method bodies [\[C.m()!code\]], and interface signatures [\[I.m()\]].
    Built-in types have no variables — constraint generation treats them as
    always-kept ([⊤]). *)

open Lbr_logic

type t

val derive : Var.Pool.t -> Syntax.program -> t
(** Allocate all of V(P) from the pool, in the program's declaration order
    (class, then its implements relation, then per method the method and its
    code; interfaces then their signatures).  This creation order is the
    default variable order [<] for reduction.  Raises [Invalid_argument] when
    two items get one name (a class repeating a method, an interface
    repeating a signature). *)

val name : t -> Var.t -> string
(** The paper's name of a variable: [C], [C<I] (for [C ◁ I]), [C.m()],
    [C.m()!code] or [I.m()].  Raises [Invalid_argument] for a variable not
    derived here. *)

val all : t -> Assignment.t
(** The full variable set — the universe [I] of the reduction problem. *)

val cls : t -> Syntax.type_name -> Var.t
(** Variable of class or interface [T].  Raises [Not_found] for built-ins
    and unknown types. *)

val cls_formula : t -> Syntax.type_name -> Formula.t
(** [⊤] for built-ins, the class/interface variable otherwise. *)

val impl : t -> c:Syntax.type_name -> Var.t
(** The [\[C ◁ I\]] variable of class [C] (classes implementing
    [EmptyInterface] have none — raises [Not_found]). *)

val impl_opt : t -> c:Syntax.type_name -> Var.t option

val meth : t -> c:Syntax.type_name -> m:string -> Var.t
val code : t -> c:Syntax.type_name -> m:string -> Var.t
val sig_ : t -> i:Syntax.type_name -> m:string -> Var.t
