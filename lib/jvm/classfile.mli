(** A simplified Java class-file model.

    This substrate plays the role of real bytecode in the paper's pipeline:
    it has the structural features the constraint generator must model —
    class/interface hierarchies with multiple interfaces and interface
    inheritance, abstract classes and methods, fields, overloaded
    constructors, method bodies made of instructions that reference other
    items, casts that exercise subtype relations, and reflection
    ([Load_const_class]) requiring the generics approximation of §3. *)

type insn =
  | Invoke_virtual of { owner : string; meth : string }
      (** resolve [meth] on [owner]'s class hierarchy *)
  | Invoke_interface of { owner : string; meth : string }
      (** resolve on an interface hierarchy *)
  | Invoke_static of { owner : string; meth : string }
  | New_instance of { cls : string; ctor : int }
      (** instantiate, calling constructor number [ctor] *)
  | Get_field of { owner : string; field : string }
  | Put_field of { owner : string; field : string }
  | Check_cast of string
  | Instance_of of string
  | Upcast of { from_ : string; to_ : string }
      (** a point where the verifier needs [from_ ≤ to_] (argument passing,
          returns, field stores) *)
  | Load_const_class of string
      (** [ldc] of a class constant: reflection, triggering the
          superclass-preservation approximation for generics *)
  | Arith
  | Load_store
  | Return_insn

type field = { f_name : string; f_type : Jtype.t; f_static : bool }

type meth = {
  m_name : string;  (** methods are identified by name; no overloading *)
  m_params : Jtype.t list;
  m_ret : Jtype.t;
  m_static : bool;
  m_abstract : bool;
  m_body : insn list;  (** empty when abstract *)
}

type ctor = { k_params : Jtype.t list; k_body : insn list }

type cls = {
  name : string;
  super : string;  (** superclass; ["java/lang/Object"] terminates *)
  interfaces : string list;  (** implemented (class) or extended (interface) *)
  is_interface : bool;
  is_abstract : bool;
  fields : field list;
  methods : meth list;
  ctors : ctor list;  (** empty for interfaces *)
  annotations : string list;  (** annotation class references *)
  inner_classes : string list;  (** InnerClasses attribute references *)
}

val object_name : string
val string_name : string

val is_external : string -> bool
(** Classes outside the pool namespace (JDK stand-ins) that reduction must
    preserve: [Object], [String] and anything prefixed ["java/"]. *)

val find_method : cls -> string -> meth option
