(* J-Reduce's view of a JVM class pool: one item per class, and one graph
   constraint per class reference.  Serialization, sizes and the predicate
   are the JVM frontend's. *)

open Lbr_logic
open Lbr_jvm

let class_references pool (c : Classfile.cls) =
  let open Classfile in
  let acc = ref [] in
  let add name = if Classpool.mem pool name && name <> c.name then acc := name :: !acc in
  let add_ty ty = match Jtype.ref_name ty with Some n -> add n | None -> () in
  add c.super;
  List.iter add c.interfaces;
  List.iter (fun (f : field) -> add_ty f.f_type) c.fields;
  let add_insn = function
    | Invoke_virtual { owner; _ } | Invoke_interface { owner; _ } | Invoke_static { owner; _ } ->
        add owner
    | New_instance { cls; _ } -> add cls
    | Get_field { owner; _ } | Put_field { owner; _ } -> add owner
    | Check_cast t | Instance_of t | Load_const_class t -> add t
    | Upcast { from_; to_ } -> add from_; add to_
    | Arith | Load_store | Return_insn -> ()
  in
  List.iter
    (fun (m : meth) ->
      List.iter add_ty (m.m_ret :: m.m_params);
      List.iter add_insn m.m_body)
    c.methods;
  List.iter
    (fun (k : ctor) ->
      List.iter add_ty k.k_params;
      List.iter add_insn k.k_body)
    c.ctors;
  List.iter add c.annotations;
  List.iter add c.inner_classes;
  List.sort_uniq String.compare !acc

let restrict_classes pool keep_names =
  Classpool.classes pool
  |> List.filter (fun (c : Classfile.cls) -> List.mem c.Classfile.name keep_names)
  |> Classpool.of_classes

let id = "jvm-classes"
let doc = "a JVM class pool, one item per class (J-Reduce's granularity)"
let extensions = []

type input = Classpool.t
type ctx = string array

let parse = Jvm.parse
let print = Jvm.print
let items = Jvm.items
let bytes = Jvm.bytes

let derive vpool pool =
  let names = Array.of_list (Classpool.names pool) in
  Array.iter (fun n -> ignore (Var.Pool.fresh vpool n : Var.t)) names;
  Ok names

let universe names = Assignment.of_list (List.init (Array.length names) Fun.id)

let constraints names pool =
  let index_of =
    let tbl = Hashtbl.create (Array.length names) in
    Array.iteri (fun i n -> Hashtbl.add tbl n i) names;
    Hashtbl.find tbl
  in
  Classpool.classes pool
  |> List.concat_map (fun (c : Classfile.cls) ->
         List.map
           (fun target -> Clause.edge (index_of c.Classfile.name) (index_of target))
           (class_references pool c))
  |> Cnf.make |> Result.ok

let prepare names pool assignment =
  Perf.time "jvm.restrict-classes" @@ fun () ->
  restrict_classes pool (List.map (fun i -> names.(i)) (Assignment.to_list assignment))

let predicate (_ : ctx) = Jvm.tool_predicate
