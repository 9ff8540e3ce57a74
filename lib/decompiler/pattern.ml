open Lbr_jvm
open Lbr_jvm.Classfile

type instance = {
  pattern : string;
  message : string;
  requires : Item.t list;
}

type t = {
  name : string;
  detect : Classpool.t -> instance list;
}

let mk pattern message requires = { pattern; message; requires }

(* Real decompiler bugs fire on specific code shapes, not on every
   occurrence of a feature, and the triggering idiom tends to cluster in a
   package written in one style.  Two stable hashes — one on the package,
   one on the precise location — keep each pattern rare and clustered while
   staying deterministic across runs and identical between the original
   pool and its sub-pools. *)
let package_of where =
  match String.index_opt where '/' with
  | Some i -> String.sub where 0 i
  | None -> where

let package_modulus = 4

(* A location is kept structured so the pretty [where] string — used in
   error messages — is only built for the rare bodies that actually fire. *)
type loc = Cls of string | Meth of string * string | Ctor of string * int

let where_of = function
  | Cls name -> name
  | Meth (cls, meth) -> cls ^ "." ^ meth
  | Ctor (cls, index) -> cls ^ ".<init>#" ^ string_of_int index

(* The gate value: depends only on the pattern and the location — never on
   the pool — so each decision is shared across the thousands of sub-pools
   a reduction probes the tool with. *)
let gate_value pattern loc modulus =
  let where = where_of loc in
  Hashtbl.hash (pattern ^ "@" ^ package_of where) mod package_modulus = 0
  && Hashtbl.hash (pattern ^ "/" ^ where) mod modulus = 0

(* Gate memos.  They sit on the hot path of every predicate run: one
   lookup per (class × pattern) plus one per surviving member, so the
   tables are nested by class name — the probe key is always a string (or
   int) the caller already holds, never a freshly built tuple, and the
   hit path allocates nothing.  A parallel corpus run probes tools from
   several domains at once and Hashtbl is not safe under concurrent
   mutation, so each domain gets its own tables via [Domain.DLS] — no
   locking, at the cost of each domain re-deriving the (pure,
   deterministic) gate values it needs. *)
type gates = {
  g_pkg : (string, bool) Hashtbl.t;  (* class-level package prefilter *)
  g_cls : (string, bool) Hashtbl.t;  (* full gate for [Cls] locations *)
  g_meth : (string, (string, bool) Hashtbl.t) Hashtbl.t;  (* cls -> meth *)
  g_ctor : (string, (int, bool) Hashtbl.t) Hashtbl.t;  (* cls -> ctor index *)
}

let gates_key : (string, gates) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let gates_for pattern =
  let tbl = Domain.DLS.get gates_key in
  try Hashtbl.find tbl pattern
  with Not_found ->
    let g =
      {
        g_pkg = Hashtbl.create 1024;
        g_cls = Hashtbl.create 1024;
        g_meth = Hashtbl.create 1024;
        g_ctor = Hashtbl.create 64;
      }
    in
    Hashtbl.add tbl pattern g;
    g

(* Class-level prefilter.  When the class name carries a package prefix
   (always, for generated pools), every member location shares the class's
   package, so a failed package gate rules out the whole class — one memo
   lookup instead of one per body. *)
let class_may_fire g pattern cls_name =
  try Hashtbl.find g.g_pkg cls_name
  with Not_found ->
    let v =
      match String.index_opt cls_name '/' with
      | None -> true (* no package: member wheres hash independently *)
      | Some i ->
          Hashtbl.hash (pattern ^ "@" ^ String.sub cls_name 0 i) mod package_modulus = 0
    in
    Hashtbl.add g.g_pkg cls_name v;
    v

let cls_gate g pattern cls_name modulus =
  try Hashtbl.find g.g_cls cls_name
  with Not_found ->
    let v = gate_value pattern (Cls cls_name) modulus in
    Hashtbl.add g.g_cls cls_name v;
    v

let inner_table outer cls_name create =
  try Hashtbl.find outer cls_name
  with Not_found ->
    let t = Hashtbl.create create in
    Hashtbl.add outer cls_name t;
    t

let meth_gate g pattern cls_name meth_name modulus =
  let mg = inner_table g.g_meth cls_name 8 in
  try Hashtbl.find mg meth_name
  with Not_found ->
    let v = gate_value pattern (Meth (cls_name, meth_name)) modulus in
    Hashtbl.add mg meth_name v;
    v

let ctor_gate g pattern cls_name index modulus =
  let cg = inner_table g.g_ctor cls_name 4 in
  try Hashtbl.find cg index
  with Not_found ->
    let v = gate_value pattern (Ctor (cls_name, index)) modulus in
    Hashtbl.add cg index v;
    v

(* Iterate over every gated (class, method-or-ctor context, body): [f] only
   sees bodies whose location passes the [gate_value pattern _ modulus]
   gate. *)
let fold_gated_bodies pool pattern modulus f acc =
  let g = gates_for pattern in
  Classpool.fold
    (fun (c : cls) acc ->
      if not (class_may_fire g pattern c.name) then acc
      else
        let rec meths acc = function
          | [] -> acc
          | (m : meth) :: rest ->
              let acc =
                if m.m_abstract || not (meth_gate g pattern c.name m.m_name modulus) then acc
                else
                  f acc c
                    (Item.Code { cls = c.name; meth = m.m_name })
                    (Meth (c.name, m.m_name))
                    m.m_body
              in
              meths acc rest
        in
        let rec ctors acc index = function
          | [] -> acc
          | (k : ctor) :: rest ->
              let acc =
                if not (ctor_gate g pattern c.name index modulus) then acc
                else
                  f acc c
                    (Item.Ctor_code { cls = c.name; index })
                    (Ctor (c.name, index))
                    k.k_body
              in
              ctors acc (index + 1) rest
        in
        ctors (meths acc c.methods) 0 c.ctors)
    pool acc

(* Class-level gate for patterns that fire on the class itself. *)
let selective pattern cls_name modulus = cls_gate (gates_for pattern) pattern cls_name modulus

let is_internal_interface pool name =
  match Classpool.find pool name with Some c -> c.is_interface | None -> false

(* Pattern: a checkcast to an internal interface inside a body confuses the
   decompiler's type reconstruction. *)
let rec first_iface_cast pool = function
  | [] -> None
  | Check_cast t :: _ when is_internal_interface pool t -> Some t
  | _ :: rest -> first_iface_cast pool rest

let iface_cast =
  {
    name = "iface-cast";
    detect =
      (fun pool ->
        fold_gated_bodies pool "iface-cast" 6
          (fun acc _c code_item loc body ->
              (* Only the first hit matters, so stop at it instead of
                 collecting every occurrence. *)
              match first_iface_cast pool body with
              | None -> acc
              | Some t ->
                  mk "iface-cast"
                    ("error: incompatible types: required " ^ t ^ " (in " ^ where_of loc ^ ")")
                    [ code_item; Item.Class t ]
                  :: acc)
          []);
  }

(* Pattern: reflective class constants are decompiled into raw types that
   no longer compile. *)
let rec first_pool_ldc pool = function
  | [] -> None
  | Load_const_class t :: _ when Classpool.mem pool t -> Some t
  | _ :: rest -> first_pool_ldc pool rest

let reflective_ldc =
  {
    name = "reflective-ldc";
    detect =
      (fun pool ->
        fold_gated_bodies pool "reflective-ldc" 3
          (fun acc _c code_item loc body ->
              match first_pool_ldc pool body with
              | None -> acc
              | Some t ->
                  mk "reflective-ldc"
                    ("error: unchecked class literal " ^ t ^ ".class (in " ^ where_of loc ^ ")")
                    [ code_item; Item.Class t ]
                  :: acc)
          []);
  }

(* Pattern: a class implementing two or more interfaces while one of its
   bodies makes an interface call — the decompiler picks the wrong bound. *)
let rec body_has_icall = function
  | [] -> false
  | Invoke_interface _ :: _ -> true
  | _ :: rest -> body_has_icall rest

let rec has_icall = function
  | [] -> false
  | (m : meth) :: rest -> body_has_icall m.m_body || has_icall rest

let rec first_two_internal pool = function
  | [] -> None
  | i1 :: rest -> (
      if not (Classpool.mem pool i1) then first_two_internal pool rest
      else
        let rec second = function
          | [] -> None
          | i2 :: rest -> if Classpool.mem pool i2 then Some (i1, i2) else second rest
        in
        second rest)

let diamond =
  {
    name = "diamond";
    detect =
      (fun pool ->
        (* Class-level: one instance per class that keeps >= 2 interfaces
           while any of its bodies makes an interface call. *)
        Classpool.fold
          (fun (c : cls) acc ->
            if c.is_interface || not (selective "diamond" c.name 2) then acc
            else
              match first_two_internal pool c.interfaces with
              | Some (i1, i2) when has_icall c.methods ->
                  mk "diamond"
                    ("error: ambiguous supertype bound (class " ^ c.name ^ ")")
                    [
                      Item.Implements { cls = c.name; iface = i1 };
                      Item.Implements { cls = c.name; iface = i2 };
                    ]
                  :: acc
              | Some _ | None -> acc)
          pool []);
  }

(* Pattern: the InnerClasses attribute together with an annotation makes the
   decompiler emit a malformed nested declaration. *)
let inner_annot =
  {
    name = "inner-annot";
    detect =
      (fun pool ->
        Classpool.fold
          (fun (c : cls) acc ->
            if c.annotations <> [] && c.inner_classes <> [] && selective "inner-annot" c.name 2
            then
              mk "inner-annot"
                ("error: illegal start of type (class " ^ c.name ^ ")")
                [
                  Item.Annotation { cls = c.name; index = 0 };
                  Item.Inner_class { cls = c.name; index = 0 };
                ]
              :: acc
            else acc)
          pool []);
  }

(* Pattern: a static call that resolves through a superclass is decompiled
   as an instance call.  [hx] is the pool's one hierarchy context, built on
   the first call that needs a resolution. *)
let rec has_super_static pool hx = function
  | [] -> false
  | Invoke_static { owner; meth } :: rest -> (
      (match Classpool.find pool owner with
      | Some oc -> (
          match Classfile.find_method oc meth with
          | Some _ -> false (* defined directly: decompiles fine *)
          | None ->
              let hx = Lazy.force hx in
              Hierarchy.Ctx.method_candidates hx ~owner:(Hierarchy.Ctx.id hx owner) ~meth
                ~static:true
              <> [])
      | None -> false)
      || has_super_static pool hx rest)
  | _ :: rest -> has_super_static pool hx rest

let static_through_super =
  {
    name = "static-super";
    detect =
      (fun pool ->
        let hx = lazy (Hierarchy.Ctx.create pool) in
        fold_gated_bodies pool "static-super" 5
          (fun acc _c code_item loc body ->
              if has_super_static pool hx body then
                mk "static-super"
                  ("error: non-static method referenced from static context (in " ^ where_of loc ^ ")")
                  [ code_item ]
                :: acc
              else acc)
          []);
  }

(* Pattern: a concrete class extending an internal abstract class — the
   decompiler drops the concrete override's covariance. *)
let abstract_super =
  {
    name = "abstract-super";
    detect =
      (fun pool ->
        Classpool.fold
          (fun (c : cls) acc ->
            if c.is_interface || c.is_abstract then acc
            else
              match Classpool.find pool c.super with
              | Some s
                when s.is_abstract && (not s.is_interface)
                     && selective "abstract-super" c.name 3 ->
                  mk "abstract-super"
                    ("error: " ^ c.name ^ " is not abstract and does not override (" ^ c.super ^ ")")
                    [ Item.Extends c.name; Item.Class c.super ]
                  :: acc
              | Some _ | None -> acc)
          pool []);
  }

(* Pattern: an upcast whose target is an interface — the decompiler inserts
   a spurious cast that breaks generics inference. *)
let rec first_upcast_iface pool = function
  | [] -> None
  | Upcast { to_; _ } :: _ when is_internal_interface pool to_ -> Some to_
  | _ :: rest -> first_upcast_iface pool rest

let upcast_iface =
  {
    name = "upcast-iface";
    detect =
      (fun pool ->
        fold_gated_bodies pool "upcast-iface" 8
          (fun acc _c code_item loc body ->
              match first_upcast_iface pool body with
              | None -> acc
              | Some t ->
                  mk "upcast-iface"
                    ("error: inference variable " ^ t ^ " has incompatible bounds (in " ^ where_of loc ^ ")")
                    [ code_item; Item.Class t ]
                  :: acc)
          []);
  }

(* Pattern: use of a non-zero-argument constructor overload. *)
let rec first_ctor_overload pool = function
  | [] -> None
  | New_instance { cls; ctor } :: _ when ctor > 0 && Classpool.mem pool cls -> Some (cls, ctor)
  | _ :: rest -> first_ctor_overload pool rest

let ctor_overload =
  {
    name = "ctor-overload";
    detect =
      (fun pool ->
        fold_gated_bodies pool "ctor-overload" 8
          (fun acc _c code_item loc body ->
              match first_ctor_overload pool body with
              | None -> acc
              | Some (cls, ctor) ->
                  mk "ctor-overload"
                    ("error: constructor " ^ cls ^ " cannot be applied (in " ^ where_of loc ^ ")")
                    [ code_item; Item.Ctor { cls; index = ctor } ]
                  :: acc)
          []);
  }

let all =
  [
    iface_cast;
    reflective_ldc;
    diamond;
    inner_annot;
    static_through_super;
    abstract_super;
    upcast_iface;
    ctor_overload;
  ]

let find name = List.find (fun p -> p.name = name) all
