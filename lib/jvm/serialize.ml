open Classfile
open Lbr_codec.Codec

let magic = "LBRC"
let version = 1

let w_list b f xs =
  w_u16 b (List.length xs);
  List.iter f xs

let r_list r f = List.init (r_count r (r_u16 r)) (fun _ -> f r)

(* ------------------------------------------------------------------ *)
(* Per-class string table                                              *)

module Strtab = struct
  type t = { index : (string, int) Hashtbl.t; mutable entries : string list; mutable next : int }

  let create () = { index = Hashtbl.create 32; entries = []; next = 0 }

  let intern t s =
    match Hashtbl.find_opt t.index s with
    | Some i -> i
    | None ->
        let i = t.next in
        Hashtbl.add t.index s i;
        t.entries <- s :: t.entries;
        t.next <- i + 1;
        i

  let to_list t = List.rev t.entries
end

(* ------------------------------------------------------------------ *)
(* Type and instruction tags                                           *)

let rec collect_jtype_strings tab = function
  | Jtype.Int | Jtype.Long | Jtype.Double | Jtype.Bool | Jtype.Void -> ()
  | Jtype.Ref n -> ignore (Strtab.intern tab n)
  | Jtype.Array t -> collect_jtype_strings tab t

let rec w_jtype w tab = function
  | Jtype.Int -> w_u8 w 0
  | Jtype.Long -> w_u8 w 1
  | Jtype.Double -> w_u8 w 2
  | Jtype.Bool -> w_u8 w 3
  | Jtype.Void -> w_u8 w 4
  | Jtype.Ref n ->
      w_u8 w 5;
      w_u16 w (Strtab.intern tab n)
  | Jtype.Array t ->
      w_u8 w 6;
      w_jtype w tab t

(* The server feeds this reader attacker-shaped bytes straight off a
   socket, so every access must fail through [Codec.fail], never raise
   anything else: string indices are bounds-checked and array-type
   nesting is depth-capped (the writer never emits anywhere near this
   depth; unchecked recursion would let a tag-6 run overflow the stack). *)
let max_array_depth = 64

let r_string r strings =
  let i = r_u16 r in
  if i >= Array.length strings then fail "string index %d out of range" i;
  strings.(i)

let rec r_jtype ?(depth = 0) r strings =
  if depth > max_array_depth then fail "array type nested deeper than %d" max_array_depth;
  match r_u8 r with
  | 0 -> Jtype.Int
  | 1 -> Jtype.Long
  | 2 -> Jtype.Double
  | 3 -> Jtype.Bool
  | 4 -> Jtype.Void
  | 5 -> Jtype.Ref (r_string r strings)
  | 6 -> Jtype.Array (r_jtype ~depth:(depth + 1) r strings)
  | t -> fail "unknown type tag %d" t

let collect_insn_strings tab = function
  | Invoke_virtual { owner; meth } | Invoke_interface { owner; meth }
  | Invoke_static { owner; meth } ->
      ignore (Strtab.intern tab owner);
      ignore (Strtab.intern tab meth)
  | New_instance { cls; _ } -> ignore (Strtab.intern tab cls)
  | Get_field { owner; field } | Put_field { owner; field } ->
      ignore (Strtab.intern tab owner);
      ignore (Strtab.intern tab field)
  | Check_cast t | Instance_of t | Load_const_class t -> ignore (Strtab.intern tab t)
  | Upcast { from_; to_ } ->
      ignore (Strtab.intern tab from_);
      ignore (Strtab.intern tab to_)
  | Arith | Load_store | Return_insn -> ()

let w_insn w tab insn =
  let s x = w_u16 w (Strtab.intern tab x) in
  match insn with
  | Invoke_virtual { owner; meth } -> w_u8 w 0; s owner; s meth
  | Invoke_interface { owner; meth } -> w_u8 w 1; s owner; s meth
  | Invoke_static { owner; meth } -> w_u8 w 2; s owner; s meth
  | New_instance { cls; ctor } -> w_u8 w 3; s cls; w_u16 w ctor
  | Get_field { owner; field } -> w_u8 w 4; s owner; s field
  | Put_field { owner; field } -> w_u8 w 5; s owner; s field
  | Check_cast t -> w_u8 w 6; s t
  | Instance_of t -> w_u8 w 7; s t
  | Upcast { from_; to_ } -> w_u8 w 8; s from_; s to_
  | Load_const_class t -> w_u8 w 9; s t
  | Arith -> w_u8 w 10
  | Load_store -> w_u8 w 11
  | Return_insn -> w_u8 w 12

let r_insn r strings =
  let s () = r_string r strings in
  match r_u8 r with
  | 0 -> let owner = s () in Invoke_virtual { owner; meth = s () }
  | 1 -> let owner = s () in Invoke_interface { owner; meth = s () }
  | 2 -> let owner = s () in Invoke_static { owner; meth = s () }
  | 3 -> let cls = s () in New_instance { cls; ctor = r_u16 r }
  | 4 -> let owner = s () in Get_field { owner; field = s () }
  | 5 -> let owner = s () in Put_field { owner; field = s () }
  | 6 -> Check_cast (s ())
  | 7 -> Instance_of (s ())
  | 8 -> let from_ = s () in Upcast { from_; to_ = s () }
  | 9 -> Load_const_class (s ())
  | 10 -> Arith
  | 11 -> Load_store
  | 12 -> Return_insn
  | t -> fail "unknown instruction tag %d" t

(* ------------------------------------------------------------------ *)
(* Class bodies                                                        *)

let collect_class_strings tab (c : cls) =
  ignore (Strtab.intern tab c.name);
  ignore (Strtab.intern tab c.super);
  List.iter (fun i -> ignore (Strtab.intern tab i)) c.interfaces;
  List.iter
    (fun (f : field) ->
      ignore (Strtab.intern tab f.f_name);
      collect_jtype_strings tab f.f_type)
    c.fields;
  List.iter
    (fun (m : meth) ->
      ignore (Strtab.intern tab m.m_name);
      List.iter (collect_jtype_strings tab) (m.m_ret :: m.m_params);
      List.iter (collect_insn_strings tab) m.m_body)
    c.methods;
  List.iter
    (fun (k : ctor) ->
      List.iter (collect_jtype_strings tab) k.k_params;
      List.iter (collect_insn_strings tab) k.k_body)
    c.ctors;
  List.iter (fun a -> ignore (Strtab.intern tab a)) c.annotations;
  List.iter (fun i -> ignore (Strtab.intern tab i)) c.inner_classes

let flags_of c =
  (if c.is_interface then 1 else 0) lor if c.is_abstract then 2 else 0

let w_class w (c : cls) =
  let tab = Strtab.create () in
  collect_class_strings tab c;
  (* string table *)
  w_list w (w_str16 w) (Strtab.to_list tab);
  let str x = w_u16 w (Strtab.intern tab x) in
  str c.name;
  str c.super;
  w_u8 w (flags_of c);
  w_list w str c.interfaces;
  w_list w
    (fun (f : field) ->
      str f.f_name;
      w_jtype w tab f.f_type;
      w_u8 w (if f.f_static then 1 else 0))
    c.fields;
  w_list w
    (fun (m : meth) ->
      str m.m_name;
      w_jtype w tab m.m_ret;
      w_list w (w_jtype w tab) m.m_params;
      w_u8 w ((if m.m_static then 1 else 0) lor if m.m_abstract then 2 else 0);
      w_list w (w_insn w tab) m.m_body)
    c.methods;
  w_list w
    (fun (k : ctor) ->
      w_list w (w_jtype w tab) k.k_params;
      w_list w (w_insn w tab) k.k_body)
    c.ctors;
  w_list w str c.annotations;
  w_list w str c.inner_classes

let r_class r =
  let strings = Array.of_list (r_list r r_str16) in
  let str () = r_string r strings in
  let name = str () in
  let super = str () in
  let flags = r_u8 r in
  let interfaces = r_list r (fun _ -> str ()) in
  let fields =
    r_list r (fun r ->
        let f_name = str () in
        let f_type = r_jtype r strings in
        let f_static = r_u8 r = 1 in
        { f_name; f_type; f_static })
  in
  let methods =
    r_list r (fun r ->
        let m_name = str () in
        let m_ret = r_jtype r strings in
        let m_params = r_list r (fun r -> r_jtype r strings) in
        let mflags = r_u8 r in
        let m_body = r_list r (fun r -> r_insn r strings) in
        {
          m_name;
          m_ret;
          m_params;
          m_static = mflags land 1 <> 0;
          m_abstract = mflags land 2 <> 0;
          m_body;
        })
  in
  let ctors =
    r_list r (fun r ->
        let k_params = r_list r (fun r -> r_jtype r strings) in
        let k_body = r_list r (fun r -> r_insn r strings) in
        { k_params; k_body })
  in
  let annotations = r_list r (fun _ -> str ()) in
  let inner_classes = r_list r (fun _ -> str ()) in
  {
    name;
    super;
    interfaces;
    is_interface = flags land 1 <> 0;
    is_abstract = flags land 2 <> 0;
    fields;
    methods;
    ctors;
    annotations;
    inner_classes;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let class_of_bytes data = read data r_class

let to_bytes pool =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  w_u16 b version;
  w_list b (w_class b) (Classpool.classes pool);
  Buffer.contents b

let of_bytes data =
  read data (fun r ->
      r_magic r magic;
      let v = r_u16 r in
      if v <> version then fail "unsupported version %d" v;
      match Classpool.of_classes (r_list r r_class) with
      | pool -> pool
      | exception Invalid_argument m -> fail "%s" m)

let serialized_size pool = String.length (to_bytes pool)

let write_file path pool =
  let oc = open_out_bin path in
  output_string oc (to_bytes pool);
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  of_bytes data
