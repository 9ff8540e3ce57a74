type insn =
  | Invoke_virtual of { owner : string; meth : string }
  | Invoke_interface of { owner : string; meth : string }
  | Invoke_static of { owner : string; meth : string }
  | New_instance of { cls : string; ctor : int }
  | Get_field of { owner : string; field : string }
  | Put_field of { owner : string; field : string }
  | Check_cast of string
  | Instance_of of string
  | Upcast of { from_ : string; to_ : string }
  | Load_const_class of string
  | Arith
  | Load_store
  | Return_insn

type field = { f_name : string; f_type : Jtype.t; f_static : bool }

type meth = {
  m_name : string;
  m_params : Jtype.t list;
  m_ret : Jtype.t;
  m_static : bool;
  m_abstract : bool;
  m_body : insn list;
}

type ctor = { k_params : Jtype.t list; k_body : insn list }

type cls = {
  name : string;
  super : string;
  interfaces : string list;
  is_interface : bool;
  is_abstract : bool;
  fields : field list;
  methods : meth list;
  ctors : ctor list;
  annotations : string list;
  inner_classes : string list;
}

let object_name = "java/lang/Object"
let string_name = "java/lang/String"

(* Asked for nearly every class reference during constraint generation:
   five byte tests, no allocation. *)
let is_external name =
  String.length name >= 5
  && String.unsafe_get name 0 = 'j'
  && String.unsafe_get name 1 = 'a'
  && String.unsafe_get name 2 = 'v'
  && String.unsafe_get name 3 = 'a'
  && String.unsafe_get name 4 = '/'


let find_method cls name = List.find_opt (fun (m : meth) -> m.m_name = name) cls.methods
