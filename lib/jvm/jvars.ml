open Lbr_logic

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

(* The one walk that fixes the inventory order: [fresh] is called on each
   item of the class in that order, and its results are recorded by
   position.  Every [let] below is sequenced, and [Array.map] runs left to
   right, so the call order is the order written. *)
let walk_class fresh (c : Classfile.cls) =
  let name = c.name in
  let each xs f = Array.map f (Array.of_list xs) in
  let eachi xs f = Array.mapi f (Array.of_list xs) in
  let cls = fresh (Item.Class name) in
  let ext =
    if c.is_interface || Classfile.is_external c.super then -1 else fresh (Item.Extends name)
  in
  let ifaces =
    each c.interfaces (fun i ->
        fresh
          (if c.is_interface then Item.Iface_extends { iface = name; super = i }
           else Item.Implements { cls = name; iface = i }))
  in
  let fields =
    each c.fields (fun (f : Classfile.field) -> fresh (Item.Field { cls = name; field = f.f_name }))
  in
  let meths_codes =
    each c.methods (fun (m : Classfile.meth) ->
        let mv = fresh (Item.Method { cls = name; meth = m.m_name }) in
        let cv = if m.m_abstract then -1 else fresh (Item.Code { cls = name; meth = m.m_name }) in
        (mv, cv))
  in
  let ctors_codes =
    eachi c.ctors (fun index _ ->
        let kv = fresh (Item.Ctor { cls = name; index }) in
        let cv = fresh (Item.Ctor_code { cls = name; index }) in
        (kv, cv))
  in
  let annotations = eachi c.annotations (fun index _ -> fresh (Item.Annotation { cls = name; index })) in
  let inners = eachi c.inner_classes (fun index _ -> fresh (Item.Inner_class { cls = name; index })) in
  {
    cls;
    ext;
    ifaces;
    fields;
    meths = Array.map fst meths_codes;
    codes = Array.map snd meths_codes;
    ctors = Array.map fst ctors_codes;
    ctor_codes = Array.map snd ctors_codes;
    annotations;
    inners;
  }

let items_of_pool pool =
  let items = ref [] in
  List.iter
    (fun c -> ignore (walk_class (fun item -> items := item :: !items; 0) c))
    (Classpool.classes pool);
  List.rev !items

(* Only the inventory order and the per-class arrays are needed on the
   reduction path; the item-to-variable table is built on first use. *)
type t = {
  items : Item.t array;  (* by variable, from [first] on *)
  first : Var.t;
  classes : class_vars array;
  all : Assignment.t;
  mutable by_item : (Item.t, Var.t) Hashtbl.t option;
}

(* Two members of one kind under one name would be one item twice; the
   pool already refuses a repeated class, so a per-class check of the
   sorted member names covers every repeat. *)
let check_members (c : Classfile.cls) =
  let check kind names =
    let rec go = function
      | a :: (b :: _ as rest) ->
          if String.equal a b then
            invalid_arg (Printf.sprintf "Jvars.derive: class %s repeats %s %s" c.name kind a);
          go rest
      | [] | [ _ ] -> ()
    in
    go (List.sort String.compare names)
  in
  check "interface" c.interfaces;
  check "field" (List.map (fun (f : Classfile.field) -> f.f_name) c.fields);
  check "method" (List.map (fun (m : Classfile.meth) -> m.m_name) c.methods)

let derive pool_vars pool =
  let items = ref [] in
  let fresh item =
    items := item :: !items;
    Var.Pool.fresh pool_vars
  in
  let first = Var.Pool.size pool_vars in
  let classes =
    Array.map
      (fun c ->
        check_members c;
        walk_class fresh c)
      (Array.of_list (Classpool.classes pool))
  in
  let items = Array.of_list (List.rev !items) in
  {
    items;
    first;
    classes;
    all = Assignment.of_list (List.init (Array.length items) (fun i -> first + i));
    by_item = None;
  }

let all t = t.all

let items t = Array.to_list t.items

let class_vars t i = t.classes.(i)

let var_opt t item =
  let table =
    match t.by_item with
    | Some table -> table
    | None ->
        let table = Hashtbl.create (Array.length t.items) in
        Array.iteri (fun i item -> Hashtbl.replace table item (t.first + i)) t.items;
        t.by_item <- Some table;
        table
  in
  Hashtbl.find_opt table item

let var t item =
  match var_opt t item with Some v -> v | None -> raise Not_found

let mem t v = v >= t.first && v < t.first + Array.length t.items

let item_of t v = if mem t v then t.items.(v - t.first) else raise Not_found
