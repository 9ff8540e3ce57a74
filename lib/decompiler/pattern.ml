open Lbr_jvm
open Lbr_jvm.Classfile

type instance = {
  pattern : string;
  message : string;
  requires : Item.t list;
}

type t = {
  name : string;
  prepare : Classpool.t -> Classpool.t -> instance list;
}

(* A detector's verdict on one location: [Some] instance when it fires. *)
let mk pattern message requires = Some { pattern; message; requires }

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

(* The gate value of a location: the class name for class-level patterns,
   ["cls.meth"] or ["cls.<init>#k"] for bodies.  It depends only on the
   pattern and the location — never on the pool — so each pattern resolves
   its gates once per input, against the original pool, and every sub-pool
   probe visits only the locations that pass. *)
let gate_value pattern where modulus =
  Hashtbl.hash (pattern ^ "@" ^ package_of where) mod package_modulus = 0
  && Hashtbl.hash (pattern ^ "/" ^ where) mod modulus = 0

(* [gate_value] for one class at a time, classes in name order: [gate cls]
   is [None] when no location of the class passes, else the test of the
   location [cls ^ sep ^ member].  Under a package prefix every location of
   a class has the class's package, so the package half is hashed once per
   package (consecutive classes share it) and the location half only in
   passing packages.  Without a prefix each location is its own package. *)
let location_gate pattern modulus =
  let last = ref None in
  fun cls ->
    match String.index_opt cls '/' with
    | None -> Some (fun sep member -> gate_value pattern (cls ^ sep ^ member) modulus)
    | Some i ->
        let pkg = String.sub cls 0 i in
        let ok =
          match !last with
          | Some (p, ok) when String.equal p pkg -> ok
          | Some _ | None ->
              let ok = Hashtbl.hash (pattern ^ "@" ^ pkg) mod package_modulus = 0 in
              last := Some (pkg, ok);
              ok
        in
        if not ok then None
        else
          let prefix = pattern ^ "/" ^ cls in
          Some (fun sep member -> Hashtbl.hash (prefix ^ sep ^ member) mod modulus = 0)

(* The class a probed pool has under an indexed name.  The index keeps
   each name's slot in the original pool, which every sub-pool the reducer
   makes shares; a pool over another name index is probed by name. *)
let find_indexed pool ~by_slot name slot =
  if by_slot then Classpool.find_slot pool slot else Classpool.find pool name

(* A class-level pattern.  Its index holds the names, in name order, of
   the classes that [keep] admits — on what no reduction changes — and
   whose own location passes, each with its slot; a probe runs [fire pool]
   on each of them still in the pool. *)
let class_pattern name modulus keep fire =
  let prepare original =
    let gate = location_gate name modulus in
    let index =
      Classpool.fold
        (fun (c : cls) acc ->
          if not (keep c) then acc
          else
            match gate c.name with
            | Some pass when pass "" "" -> (c.name, Classpool.slot original c.name) :: acc
            | _ -> acc)
        original []
      |> List.rev
    in
    fun pool ->
      let fire = fire pool in
      let by_slot = Classpool.same_index pool original in
      List.fold_left
        (fun acc (cls, slot) ->
          match Option.bind (find_indexed pool ~by_slot cls slot) fire with
          | Some i -> i :: acc
          | None -> acc)
        [] index
  in
  { name; prepare }

(* A body location is kept structured so the pretty [where] string — used
   in error messages — is only built for the rare bodies that actually
   fire. *)
type loc = Meth of string * string | Ctor of string * int

let where_of = function
  | Meth (cls, meth) -> cls ^ "." ^ meth
  | Ctor (cls, index) -> cls ^ ".<init>#" ^ string_of_int index

let item_of = function
  | Meth (cls, meth) -> Item.Code { cls; meth }
  | Ctor (cls, index) -> Item.Ctor_code { cls; index }

(* A body pattern, firing only on bodies with an instruction that [uses]
   admits.  Its index holds, per class in name order, the gated methods by
   name and the gated constructors by position, each with its location.
   Positions, not constructors: the reducer renumbers the constructors it
   keeps, so position k of a sub-pool class is gated iff position k of the
   original is.  A reduction stubs bodies and renumbers constructor calls
   but never adds an instruction, so only methods with a used instruction
   (abstract ones have none) are indexed, and constructor positions from
   which on some constructor has one.  Classes are indexed with their
   slots, as in [class_pattern].  A probe runs [fire pool] on each indexed
   body still in the pool, methods before constructors. *)
let body_pattern name modulus ~uses fire =
  let prepare original =
    let gate = location_gate name modulus in
    let gated (c : cls) pass =
      let meths =
        List.filter_map
          (fun (m : meth) ->
            if List.exists uses m.m_body && pass "." m.m_name then
              Some (m.m_name, Meth (c.name, m.m_name))
            else None)
          c.methods
      in
      let rec ctors index = function
        | [] -> ([], false)
        | (k : ctor) :: rest ->
            let gated, later = ctors (index + 1) rest in
            let used = later || List.exists uses k.k_body in
            if used && pass ".<init>#" (string_of_int index) then
              ((index, Ctor (c.name, index)) :: gated, used)
            else (gated, used)
      in
      (meths, fst (ctors 0 c.ctors))
    in
    let index =
      Classpool.fold
        (fun (c : cls) acc ->
          match Option.map (gated c) (gate c.name) with
          | None | Some ([], []) -> acc
          | Some (meths, ctors) -> (c.name, Classpool.slot original c.name, meths, ctors) :: acc)
        original []
      |> List.rev
    in
    fun pool ->
      let fire = fire pool in
      let by_slot = Classpool.same_index pool original in
      let hit acc loc body = match fire loc body with Some i -> i :: acc | None -> acc in
      let rec ctors acc index ks gated =
        match (ks, gated) with
        | [], _ | _, [] -> acc
        | (k : ctor) :: ks, (p, loc) :: rest ->
            if index = p then ctors (hit acc loc k.k_body) (index + 1) ks rest
            else ctors acc (index + 1) ks gated
      in
      List.fold_left
        (fun acc (cls, slot, meths, gated_ctors) ->
          match find_indexed pool ~by_slot cls slot with
          | None -> acc
          | Some c ->
              let acc =
                List.fold_left
                  (fun acc (meth, loc) ->
                    match Classfile.find_method c meth with
                    | Some m -> hit acc loc m.m_body
                    | None -> acc)
                  acc meths
              in
              ctors acc 0 c.ctors gated_ctors)
        [] index
  in
  { name; prepare }

let is_internal_interface pool name =
  match Classpool.find pool name with Some c -> c.is_interface | None -> false

(* Pattern: a checkcast to an internal interface inside a body confuses the
   decompiler's type reconstruction. *)
let rec first_iface_cast pool = function
  | [] -> None
  | Check_cast t :: _ when is_internal_interface pool t -> Some t
  | _ :: rest -> first_iface_cast pool rest

let iface_cast =
  body_pattern "iface-cast" 6
    ~uses:(function Check_cast _ -> true | _ -> false)
    (fun pool loc body ->
      (* Only the first hit matters, so stop at it instead of collecting
         every occurrence. *)
      match first_iface_cast pool body with
      | None -> None
      | Some t ->
          mk "iface-cast"
            ("error: incompatible types: required " ^ t ^ " (in " ^ where_of loc ^ ")")
            [ item_of loc; Item.Class t ])

(* Pattern: reflective class constants are decompiled into raw types that
   no longer compile. *)
let rec first_pool_ldc pool = function
  | [] -> None
  | Load_const_class t :: _ when Classpool.mem pool t -> Some t
  | _ :: rest -> first_pool_ldc pool rest

let reflective_ldc =
  body_pattern "reflective-ldc" 3
    ~uses:(function Load_const_class _ -> true | _ -> false)
    (fun pool loc body ->
      match first_pool_ldc pool body with
      | None -> None
      | Some t ->
          mk "reflective-ldc"
            ("error: unchecked class literal " ^ t ^ ".class (in " ^ where_of loc ^ ")")
            [ item_of loc; Item.Class t ])

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

(* Class-level: one instance per class that keeps >= 2 interfaces while
   any of its bodies makes an interface call. *)
let diamond =
  class_pattern "diamond" 2
    (fun c -> not c.is_interface)
    (fun pool c ->
      match first_two_internal pool c.interfaces with
      | Some (i1, i2) when has_icall c.methods ->
          mk "diamond"
            ("error: ambiguous supertype bound (class " ^ c.name ^ ")")
            [
              Item.Implements { cls = c.name; iface = i1 };
              Item.Implements { cls = c.name; iface = i2 };
            ]
      | Some _ | None -> None)

(* Pattern: the InnerClasses attribute together with an annotation makes the
   decompiler emit a malformed nested declaration. *)
let has_annot_and_inner (c : cls) = c.annotations <> [] && c.inner_classes <> []

let inner_annot =
  class_pattern "inner-annot" 2 has_annot_and_inner (fun _pool c ->
      if not (has_annot_and_inner c) then None
      else
        mk "inner-annot"
          ("error: illegal start of type (class " ^ c.name ^ ")")
          [
            Item.Annotation { cls = c.name; index = 0 };
            Item.Inner_class { cls = c.name; index = 0 };
          ])

(* Pattern: a static call that resolves through a superclass is decompiled
   as an instance call.  [hx] is the probed pool's one hierarchy context,
   built on the first call that needs a resolution. *)
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
  body_pattern "static-super" 5
    ~uses:(function Invoke_static _ -> true | _ -> false)
    (fun pool ->
      let hx = lazy (Hierarchy.Ctx.create pool) in
      fun loc body ->
        if not (has_super_static pool hx body) then None
        else
          mk "static-super"
            ("error: non-static method referenced from static context (in " ^ where_of loc ^ ")")
            [ item_of loc ])

(* Pattern: a concrete class extending an internal abstract class — the
   decompiler drops the concrete override's covariance. *)
let abstract_super =
  class_pattern "abstract-super" 3
    (fun c -> not (c.is_interface || c.is_abstract))
    (fun pool c ->
      match Classpool.find pool c.super with
      | Some s when s.is_abstract && not s.is_interface ->
          mk "abstract-super"
            ("error: " ^ c.name ^ " is not abstract and does not override (" ^ c.super ^ ")")
            [ Item.Extends c.name; Item.Class c.super ]
      | Some _ | None -> None)

(* Pattern: an upcast whose target is an interface — the decompiler inserts
   a spurious cast that breaks generics inference. *)
let rec first_upcast_iface pool = function
  | [] -> None
  | Upcast { to_; _ } :: _ when is_internal_interface pool to_ -> Some to_
  | _ :: rest -> first_upcast_iface pool rest

let upcast_iface =
  body_pattern "upcast-iface" 8
    ~uses:(function Upcast _ -> true | _ -> false)
    (fun pool loc body ->
      match first_upcast_iface pool body with
      | None -> None
      | Some t ->
          mk "upcast-iface"
            ("error: inference variable " ^ t ^ " has incompatible bounds (in " ^ where_of loc ^ ")")
            [ item_of loc; Item.Class t ])

(* Pattern: use of a non-zero-argument constructor overload. *)
let rec first_ctor_overload pool = function
  | [] -> None
  | New_instance { cls; ctor } :: _ when ctor > 0 && Classpool.mem pool cls -> Some (cls, ctor)
  | _ :: rest -> first_ctor_overload pool rest

let ctor_overload =
  body_pattern "ctor-overload" 8
    ~uses:(function New_instance _ -> true | _ -> false)
    (fun pool loc body ->
      match first_ctor_overload pool body with
      | None -> None
      | Some (cls, ctor) ->
          mk "ctor-overload"
            ("error: constructor " ^ cls ^ " cannot be applied (in " ^ where_of loc ^ ")")
            [ item_of loc; Item.Ctor { cls; index = ctor } ])

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
