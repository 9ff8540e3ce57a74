(** Featherweight Java with Interfaces (FJI) — syntax (Figure 4).

    FJI extends Featherweight Java with single-interface implementation:
    every class declares [extends D implements I] and every interface is a
    set of method signatures.  Constructors are the canonical FJ form and
    are synthesised from the field lists, so they are not represented.

    Three type names are built in and never reduced: [Object] (the root
    class), [EmptyInterface] (the empty interface every reduced class can
    fall back to), and [String] (a stand-in for library classes that the
    example programs mention but reduction must preserve). *)

type type_name = string

type expr =
  | Var of string  (** variable reference, including [this] *)
  | Field of expr * string  (** [e.f] *)
  | Call of expr * string * expr list  (** [e.m(ē)] *)
  | New of type_name * expr list  (** [new C(ē)] *)
  | Cast of type_name * expr  (** [(T) e] *)

type meth = {
  m_ret : type_name;
  m_name : string;
  m_params : (type_name * string) list;
  m_body : expr;
}

type signature = {
  s_ret : type_name;
  s_name : string;
  s_params : (type_name * string) list;
}

type cls = {
  c_name : type_name;
  c_super : type_name;
  c_iface : type_name;  (** the single implemented interface *)
  c_fields : (type_name * string) list;
  c_methods : meth list;
}

type iface = { i_name : type_name; i_sigs : signature list }

type decl = Class of cls | Interface of iface

type program = { decls : decl list; main : expr option }
(** [main] is the program's expression [e] in [P ::= R̄ e]; [None] models
    inputs that are just a set of declarations (e.g. bytecode fed to a
    tool), as in the paper's running example. *)

val object_name : type_name
val empty_interface_name : type_name
val string_name : type_name

val is_builtin : type_name -> bool

val find_class : program -> type_name -> cls option
val find_iface : program -> type_name -> iface option

val decl_name : decl -> type_name

val find_method : cls -> string -> meth option
val find_signature : iface -> string -> signature option

val stub_body : meth -> expr
(** The trivial body substituted by the reducer when a method is kept but its
    code is removed: [return this.m(x̄);], which always type checks in place
    of the original body. *)

val wf_names : program -> (unit, string) result
(** Basic well-formedness: declaration names are unique and do not collide
    with the built-ins. *)
