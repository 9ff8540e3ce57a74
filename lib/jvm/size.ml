open Classfile

let classes = Classpool.size

let insn_bytes = function
  | Invoke_virtual _ | Invoke_interface _ | Invoke_static _ -> 3
  | New_instance _ -> 7 (* new + dup + invokespecial *)
  | Get_field _ | Put_field _ -> 3
  | Check_cast _ | Instance_of _ -> 3
  | Upcast _ -> 0 (* a verification fact, not an instruction *)
  | Load_const_class _ -> 2
  | Arith -> 1
  | Load_store -> 2
  | Return_insn -> 1

let body_insn_bytes body = List.fold_left (fun a i -> a + insn_bytes i) 0 body

(* method_info + name/descriptor constants + Code attribute header *)
let meth_bytes_with (m : meth) ~insns =
  48 + (8 * List.length m.m_params) + if m.m_abstract then 0 else 24 + insns

let ctor_bytes_with (k : ctor) ~insns = 48 + (8 * List.length k.k_params) + 24 + insns

let meth_bytes (m : meth) = meth_bytes_with m ~insns:(body_insn_bytes m.m_body)
let ctor_bytes (k : ctor) = ctor_bytes_with k ~insns:(body_insn_bytes k.k_body)

(* A stub body is a lone [Return_insn]. *)
let meth_stub_bytes (m : meth) = meth_bytes_with m ~insns:(insn_bytes Return_insn)
let ctor_stub_bytes (k : ctor) = ctor_bytes_with k ~insns:(insn_bytes Return_insn)

let class_header_bytes (c : cls) =
  200 (* header, constant pool base, this/super entries *)
  + (2 * String.length c.name)

let iface_bytes = 16
let field_bytes = 40
let annotation_bytes = 24
let inner_bytes = 16

let class_bytes (c : cls) =
  class_header_bytes c
  + (iface_bytes * List.length c.interfaces)
  + List.fold_left (fun a (_ : field) -> a + field_bytes) 0 c.fields
  + List.fold_left (fun a m -> a + meth_bytes m) 0 c.methods
  + List.fold_left (fun a k -> a + ctor_bytes k) 0 c.ctors
  + (annotation_bytes * List.length c.annotations)
  + (inner_bytes * List.length c.inner_classes)

let bytes pool =
  Classpool.memo_bytes pool (fun p -> Classpool.fold (fun c acc -> acc + class_bytes c) p 0)

let items pool = Jvars.count_items pool
