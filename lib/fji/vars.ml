open Lbr_logic

type t = { pool : Var.Pool.t; all : Assignment.t; impls : (string, Var.t) Hashtbl.t }

let cls_name c = c
let impl_name c i = Printf.sprintf "%s<%s" c i
let meth_name c m = Printf.sprintf "%s.%s()" c m
let code_name c m = Printf.sprintf "%s.%s()!code" c m
let sig_name i m = Printf.sprintf "%s.%s()" i m

let derive pool (program : Syntax.program) =
  let vars = ref [] in
  let impls = Hashtbl.create 16 in
  let register name =
    let v = Var.Pool.fresh pool name in
    vars := v :: !vars;
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
  { pool; all = Assignment.of_list !vars; impls }

let pool t = t.pool

let all t = t.all

let lookup t name =
  match Var.Pool.find t.pool name with
  | Some v -> v
  | None -> raise Not_found

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
