type type_name = string

type expr =
  | Var of string
  | Field of expr * string
  | Call of expr * string * expr list
  | New of type_name * expr list
  | Cast of type_name * expr

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
  c_iface : type_name;
  c_fields : (type_name * string) list;
  c_methods : meth list;
}

type iface = { i_name : type_name; i_sigs : signature list }

type decl = Class of cls | Interface of iface

type program = { decls : decl list; main : expr option }

let object_name = "Object"
let empty_interface_name = "EmptyInterface"
let string_name = "String"

let is_builtin name =
  name = object_name || name = empty_interface_name || name = string_name

let decl_name = function Class c -> c.c_name | Interface i -> i.i_name

let find_class program name =
  if name = string_name || name = object_name then
    (* Built-in classes have no fields or methods. *)
    Some { c_name = name; c_super = object_name; c_iface = empty_interface_name;
           c_fields = []; c_methods = [] }
  else
    List.find_map
      (function Class c when c.c_name = name -> Some c | Class _ | Interface _ -> None)
      program.decls

let find_iface program name =
  if name = empty_interface_name then Some { i_name = name; i_sigs = [] }
  else
    List.find_map
      (function Interface i when i.i_name = name -> Some i | Class _ | Interface _ -> None)
      program.decls

let find_method cls name = List.find_opt (fun m -> m.m_name = name) cls.c_methods

let find_signature iface name = List.find_opt (fun s -> s.s_name = name) iface.i_sigs

let stub_body m = Call (Var "this", m.m_name, List.map (fun (_, x) -> Var x) m.m_params)

let wf_names program =
  let rec check seen = function
    | [] -> Ok ()
    | d :: rest ->
        let name = decl_name d in
        if is_builtin name then Error (Printf.sprintf "declaration shadows built-in %s" name)
        else if List.mem name seen then Error (Printf.sprintf "duplicate declaration %s" name)
        else check (name :: seen) rest
  in
  check [] program.decls
