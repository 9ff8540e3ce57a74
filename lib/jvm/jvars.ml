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

(* What an item is, short of building it: the walk names each item by its
   kind, its position among the class's members of that kind, and the
   member's name where it has one ([""] where it is identified by
   position). *)
type kind =
  | K_class
  | K_extends
  | K_iface
  | K_field
  | K_method
  | K_code
  | K_ctor
  | K_ctor_code
  | K_annotation
  | K_inner

let item_of_kind (c : Classfile.cls) kind index member : Item.t =
  let cls = c.name in
  match kind with
  | K_class -> Class cls
  | K_extends -> Extends cls
  | K_iface ->
      if c.is_interface then Iface_extends { iface = cls; super = member }
      else Implements { cls; iface = member }
  | K_field -> Field { cls; field = member }
  | K_method -> Method { cls; meth = member }
  | K_code -> Code { cls; meth = member }
  | K_ctor -> Ctor { cls; index }
  | K_ctor_code -> Ctor_code { cls; index }
  | K_annotation -> Annotation { cls; index }
  | K_inner -> Inner_class { cls; index }

(* The one walk that fixes the inventory order: [fresh kind index member]
   is called on each item of the class in that order, and its results are
   recorded by position.  The walk builds no item: [derive] only numbers,
   and the inventory is rebuilt from the same calls ({!item_of_kind}). *)
let walk_class fresh (c : Classfile.cls) =
  let each kind xs name_of =
    let vars = Array.make (List.length xs) (-1) in
    List.iteri (fun i x -> vars.(i) <- fresh kind i (name_of x)) xs;
    vars
  in
  let cls = fresh K_class 0 "" in
  let ext =
    if c.is_interface || Classfile.is_external c.super then -1 else fresh K_extends 0 ""
  in
  let ifaces = each K_iface c.interfaces Fun.id in
  let fields = each K_field c.fields (fun (f : Classfile.field) -> f.f_name) in
  let nm = List.length c.methods in
  let meths = Array.make nm (-1) and codes = Array.make nm (-1) in
  List.iteri
    (fun i (m : Classfile.meth) ->
      meths.(i) <- fresh K_method i m.m_name;
      if not m.m_abstract then codes.(i) <- fresh K_code i m.m_name)
    c.methods;
  let nk = List.length c.ctors in
  let ctors = Array.make nk (-1) and ctor_codes = Array.make nk (-1) in
  for i = 0 to nk - 1 do
    ctors.(i) <- fresh K_ctor i "";
    ctor_codes.(i) <- fresh K_ctor_code i ""
  done;
  let annotations = each K_annotation c.annotations (fun _ -> "") in
  let inners = each K_inner c.inner_classes (fun _ -> "") in
  { cls; ext; ifaces; fields; meths; codes; ctors; ctor_codes; annotations; inners }

let items_of_classes classes =
  let items = ref [] in
  Array.iter
    (fun c ->
      ignore
        (walk_class
           (fun kind index member ->
             items := item_of_kind c kind index member :: !items;
             0)
           c))
    classes;
  List.rev !items

let items_of_pool pool = items_of_classes (Array.of_list (Classpool.classes pool))

(* The walk's count, from the member lists alone. *)
let count_class (c : Classfile.cls) =
  1
  + (if c.is_interface || Classfile.is_external c.super then 0 else 1)
  + List.length c.interfaces + List.length c.fields
  + List.fold_left (fun n (m : Classfile.meth) -> n + if m.m_abstract then 1 else 2) 0 c.methods
  + (2 * List.length c.ctors)
  + List.length c.annotations + List.length c.inner_classes

let count_items pool = Classpool.fold (fun c n -> n + count_class c) pool 0

(* Only the inventory order and the per-class arrays are needed on the
   reduction path; the items, and the item-to-variable table, are rebuilt
   from the classes on first use (a race between domains builds them
   twice, equally). *)
type t = {
  source : Classfile.cls array;  (* the pool's classes, in name order *)
  first : Var.t;
  count : int;
  classes : class_vars array;
  all : Assignment.t;
  mutable items : Item.t array option;  (* by variable, from [first] on *)
  mutable by_item : (Item.t, Var.t) Hashtbl.t option;
}

(* Two members of one kind under one name would be one item twice; the
   pool already refuses a repeated class, so a per-class check of the
   member names covers every repeat.  Short lists are compared pairwise,
   which allocates nothing; a repeat, or a long list, is named from the
   sorted names, the smallest repeated one first. *)
let rec named_in name_of n = function
  | [] -> false
  | y :: rest -> String.equal n (name_of y) || named_in name_of n rest

let rec pairwise_distinct name_of = function
  | [] -> true
  | x :: rest -> (not (named_in name_of (name_of x) rest)) && pairwise_distinct name_of rest

let check_members (c : Classfile.cls) =
  let check kind name_of xs =
    if List.compare_length_with xs 16 > 0 || not (pairwise_distinct name_of xs) then
      let rec go = function
        | a :: (b :: _ as rest) ->
            if String.equal a b then
              invalid_arg (Printf.sprintf "Jvars.derive: class %s repeats %s %s" c.name kind a);
            go rest
        | [] | [ _ ] -> ()
      in
      go (List.sort String.compare (List.map name_of xs))
  in
  check "interface" Fun.id c.interfaces;
  check "field" (fun (f : Classfile.field) -> f.f_name) c.fields;
  check "method" (fun (m : Classfile.meth) -> m.m_name) c.methods

let derive pool_vars pool =
  let first = Var.Pool.size pool_vars in
  let fresh _ _ _ = Var.Pool.fresh pool_vars in
  let source = Array.of_list (Classpool.classes pool) in
  let classes =
    Array.map
      (fun c ->
        check_members c;
        walk_class fresh c)
      source
  in
  let count = Var.Pool.size pool_vars - first in
  let all =
    if count = 0 then Assignment.empty
    else begin
      let bits = Sys.int_size in
      let words = Array.make (((first + count - 1) / bits) + 1) 0 in
      for v = first to first + count - 1 do
        words.(v / bits) <- words.(v / bits) lor (1 lsl (v mod bits))
      done;
      Assignment.of_words words
    end
  in
  { source; first; count; classes; all; items = None; by_item = None }

let all t = t.all

let inventory t =
  match t.items with
  | Some items -> items
  | None ->
      let items = Array.of_list (items_of_classes t.source) in
      t.items <- Some items;
      items

let items t = Array.to_list (inventory t)

let class_vars t i = t.classes.(i)

let var_opt t item =
  let table =
    match t.by_item with
    | Some table -> table
    | None ->
        let table = Hashtbl.create t.count in
        Array.iteri (fun i item -> Hashtbl.replace table item (t.first + i)) (inventory t);
        t.by_item <- Some table;
        table
  in
  Hashtbl.find_opt table item

let var t item =
  match var_opt t item with Some v -> v | None -> raise Not_found

let mem t v = v >= t.first && v < t.first + t.count

let item_of t v = if mem t v then (inventory t).(v - t.first) else raise Not_found
