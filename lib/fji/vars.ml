open Lbr_logic

(* The variables' names live here, not in the pool: this is the one
   frontend that looks its variables up by name. *)
type t = {
  first : Var.t;
  names : string array;  (* by variable, from [first] on *)
  index : (string, Var.t) Hashtbl.t;
  all : Assignment.t;
  impls : (string, Var.t) Hashtbl.t;
}

let cls_name c = c
let impl_name c i = Printf.sprintf "%s<%s" c i
let meth_name c m = Printf.sprintf "%s.%s()" c m
let code_name c m = Printf.sprintf "%s.%s()!code" c m
let sig_name i m = Printf.sprintf "%s.%s()" i m

let derive pool (program : Syntax.program) =
  let first = Var.Pool.size pool in
  let names = ref [] in
  let index = Hashtbl.create 64 in
  let impls = Hashtbl.create 16 in
  let register name =
    if Hashtbl.mem index name then
      invalid_arg (Printf.sprintf "Vars.derive: duplicate name %S" name);
    let v = Var.Pool.fresh pool in
    Hashtbl.add index name v;
    names := name :: !names;
    v
  in
  List.iter
    (fun decl ->
      match decl with
      | Syntax.Class c ->
          ignore (register (cls_name c.c_name));
          if c.c_iface <> Syntax.empty_interface_name then
            Hashtbl.add impls c.c_name (register (impl_name c.c_name c.c_iface));
          List.iter
            (fun (m : Syntax.meth) ->
              ignore (register (meth_name c.c_name m.m_name));
              ignore (register (code_name c.c_name m.m_name)))
            c.c_methods
      | Syntax.Interface i ->
          ignore (register (cls_name i.i_name));
          List.iter
            (fun (s : Syntax.signature) -> ignore (register (sig_name i.i_name s.s_name)))
            i.i_sigs)
    program.decls;
  let names = Array.of_list (List.rev !names) in
  let all = Assignment.of_list (List.init (Array.length names) (fun i -> first + i)) in
  { first; names; index; all; impls }

let all t = t.all

let name t v = t.names.(v - t.first)

let lookup t name = Hashtbl.find t.index name

let cls t name =
  if Syntax.is_builtin name then raise Not_found else lookup t (cls_name name)

let cls_formula t name =
  if Syntax.is_builtin name then Formula.True else Formula.var (lookup t (cls_name name))

let impl t ~c =
  match Hashtbl.find_opt t.impls c with Some v -> v | None -> raise Not_found

let impl_opt t ~c = Hashtbl.find_opt t.impls c

let meth t ~c ~m = lookup t (meth_name c m)

let code t ~c ~m = lookup t (code_name c m)

let sig_ t ~i ~m = lookup t (sig_name i m)
