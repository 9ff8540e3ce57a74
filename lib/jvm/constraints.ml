open Lbr_logic
open Classfile

(* The model is emitted straight into clauses.  Every constraint is an
   implication whose premise is a conjunction of variables and whose
   conclusion is built from conjunctions and disjunctions of variables, so
   each clause is the premise's variables, negated, plus one positive
   clause of the conclusion.

   Reduction outputs depend on clause order (through the engine trail), so
   the order is fixed by a rule, and a test pins the clause list of several
   pools by digest.  Writing L(f) for the clause list of f:
   - the model is rev(L(f1) @ ... @ L(fn)) over the emitted implications in
     emission order (just L(f1) when n = 1), which is what consing every
     clause onto one accumulator, in order, builds, and what the builder
     finished in reverse gives;
   - L(⊤) = [], L(v) = [[v]], a one-element conjunction is its element, and
     a longer conjunction of g1 .. gk is rev(L(g1) @ ... @ L(gk));
   - a disjunction is the cross product of its disjuncts' lists, the first
     disjunct outermost;
   - P ⇒ C adds ¬P to every clause of L(C), and is the single clause ¬P
     when C is ⊥.
   Literals are sorted and deduplicated within a clause, and a clause
   holding some v and ¬v is dropped.  This is the list that lowering the
   same implications, written as formula trees, by distribution gives.

   A conclusion is kept as its positive clauses in L order ([Some]), or
   [None] for ⊥.  Each distinct instruction's conclusion is computed once
   and its literal arrays are shared by every body using it; the model's
   {!Cnf.Builder} copies each clause's literals into its packed store. *)

(* Disjunctions of conjunctions explode multiplicatively when lowered to CNF
   without auxiliary variables (k disjuncts of m conjuncts give m^k
   clauses).  [bounded_disj] keeps the cheapest disjuncts while the estimated
   clause product stays small.  Dropping disjuncts only strengthens the
   model, so soundness (Theorem 3.1's analogue) is preserved; the model
   merely rules out a few valid sub-inputs, like the paper's own
   approximations for generics.  A disjunct's weight is the size of the
   formula it stands for, in atoms and connectives. *)
let max_clause_product = 64

(* [arr] sorted and deduplicated, by insertion in place: premises and
   cross-product clauses hold two to a handful of variables. *)
let sort_unique (arr : Var.t array) =
  let k = ref 0 in
  for i = 0 to Array.length arr - 1 do
    let v = arr.(i) in
    let j = ref !k in
    while !j > 0 && arr.(!j - 1) > v do
      decr j
    done;
    if !j = 0 || arr.(!j - 1) <> v then begin
      Array.blit arr !j arr (!j + 1) (!k - !j);
      arr.(!j) <- v;
      incr k
    end
  done;
  if !k = Array.length arr then arr else Array.sub arr 0 !k

let union a b = sort_unique (Array.append a b)

let rec cross = function
  | [] -> [ [||] ]
  | [ cs ] -> cs
  | cs :: rest ->
      let tail = cross rest in
      List.concat_map (fun c -> List.map (union c) tail) cs

(* [disjuncts] are (weight, clause list) pairs; [None] is ⊥. *)
let bounded_disj disjuncts =
  let sorted =
    match disjuncts with
    | [] | [ _ ] -> disjuncts
    | _ -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) disjuncts
  in
  let rec keep acc product = function
    | [] -> List.rev acc
    | (w, cs) :: rest ->
        let product = product * w in
        if product > max_clause_product then List.rev acc else keep (cs :: acc) product rest
  in
  match sorted with
  | [] -> None
  | [ (_, only) ] -> Some only
  | (w0, first) :: rest -> Some (cross (keep [ first ] w0 rest))

let generate jv pool =
  Perf.time "jvm.constraints" @@ fun () ->
  (* One interned hierarchy context for the whole generation: resolution
     and obligation queries repeat the same reachability walks and path
     enumerations heavily across call sites. *)
  let hx = Hierarchy.Ctx.create pool in
  let n = Hierarchy.Ctx.pool_size hx in
  let cvs = Array.init n (Jvars.class_vars jv) in
  (* The relation variable of every edge: a class's out-edges list its
     extends edge (when it has one) and then its interfaces, as its
     variables do. *)
  let edge_var =
    Array.make (if n = 0 then 0 else Hierarchy.Ctx.last_edge hx (n - 1) + 1) (-1)
  in
  Array.iteri
    (fun x (cv : Jvars.class_vars) ->
      let first = Hierarchy.Ctx.first_edge hx x in
      let ifaces_from = if cv.ext >= 0 then (edge_var.(first) <- cv.ext; first + 1) else first in
      Array.iteri (fun i v -> edge_var.(ifaces_from + i) <- v) cv.ifaces)
    cvs;
  let unit v = [| v |] in
  let missing name = invalid_arg ("Constraints.generate: reference to missing class " ^ name) in
  (* The class variable of [name], [-1] (⊤) for external classes. *)
  let cls_var name =
    if Classfile.is_external name then -1
    else
      let x = Hierarchy.Ctx.id hx name in
      if x >= 0 && x < n then cvs.(x).cls else missing name
  in
  let rec type_ref_var = function
    | Jtype.Ref n -> cls_var n
    | Jtype.Array t -> type_ref_var t
    | Jtype.Int | Jtype.Long | Jtype.Double | Jtype.Bool | Jtype.Void -> -1
  in
  (* The model, emitted in order and finished reversed (see the top of this
     file). *)
  let model = Cnf.Builder.create () in
  let formulas = ref 0 in
  let push neg pos = Cnf.Builder.add model ~neg ~pos in
  (* P ⇒ C for a conclusion given as its clause list. *)
  let imply neg = function
    | None -> incr formulas; push neg [||]
    | Some cs -> incr formulas; List.iter (push neg) cs
  in
  (* P ⇒ (vc ∧ v), [-1] standing for ⊤: a two-element conjunction, so the
     clauses come reversed. *)
  let push_var neg v = if v >= 0 then push neg (unit v) in
  let imply_pair neg vc v =
    incr formulas;
    push_var neg v;
    push_var neg vc
  in
  (* P ⇒ (vc ∧ t1 ∧ … ∧ tk) over declared types, reversed likewise (for
     k = 0 the conjunction is vc alone, whose order is moot). *)
  let rec push_types_rev neg = function
    | [] -> ()
    | ty :: rest ->
        push_types_rev neg rest;
        push_var neg (type_ref_var ty)
  in
  (* mAny over resolution candidates: keeping the call site valid requires
     some defining class to survive with both the relation path to it and
     the member item itself.  A witness resolving outside the pool is ⊤.
     Each disjunct is [path ∧ member], whose clause list is the member,
     then the path's edges in order. *)
  let resolution candidates ~member =
    bounded_disj
      (List.map
         (fun { Hierarchy.def; member = i; path } ->
           if def < 0 then (1, [])
           else
             let k = List.length path in
             ( (if k <= 1 then 3 else k + 3),
               unit (member cvs.(def) i) :: List.map (fun e -> unit edge_var.(e)) path ))
         candidates)
  in
  (* The class variable of [name] whose id [x] is already known. *)
  let cls_var_at x name =
    if x >= 0 && x < n && not (Classfile.is_external name) then cvs.(x).cls else cls_var name
  in
  (* [owner ∧ R]: R's clauses reversed, then the owner's. *)
  let owned x owner = function
    | None -> None
    | Some cs ->
        let rs = List.rev cs in
        let o = cls_var_at x owner in
        Some (if o >= 0 then rs @ [ unit o ] else rs)
  in
  let method_var (cv : Jvars.class_vars) i = cv.meths.(i) in
  let field_var (cv : Jvars.class_vars) i = cv.fields.(i) in
  let invoke x owner meth ~static =
    owned x owner
      (resolution (Hierarchy.Ctx.method_candidates hx ~owner:x ~meth ~static) ~member:method_var)
  in
  (* Disjunction over the relation paths witnessing [sub ≤ sup]: a path of
     k ≥ 2 edges is a conjunction, so its clauses come last edge first. *)
  let subtype x ~sub ~sup =
    if sub = sup || Classfile.is_external sub || sup = object_name then Some []
    else
      bounded_disj
        (List.map
           (fun path ->
             let k = List.length path in
             let cs = List.map (fun e -> unit edge_var.(e)) path in
             ((if k <= 1 then 1 else k + 1), if k <= 1 then cs else List.rev cs))
           (Hierarchy.Ctx.subtype_paths hx ~sub:x ~sup:(Hierarchy.Ctx.id hx sup)))
  in
  (* An instruction's conclusion depends only on the instruction and the
     (fixed) pool, and call sites repeat heavily across bodies, so the
     whole resolution — hierarchy search included — is shared per distinct
     instruction. *)
  let insn_clauses_uncached x insn =
    match insn with
    | Invoke_virtual { owner; meth } | Invoke_interface { owner; meth } ->
        invoke x owner meth ~static:false
    | Invoke_static { owner; meth } -> invoke x owner meth ~static:true
    | New_instance { cls; ctor } ->
        if Classfile.is_external cls then Some []
        else
          let x = Hierarchy.Ctx.id hx cls in
          let c = cls_var cls in
          if ctor < 0 || ctor >= Array.length cvs.(x).ctors then missing (cls ^ ".<init>");
          Some [ unit cvs.(x).ctors.(ctor); unit c ]
    | Get_field { owner; field } | Put_field { owner; field } ->
        owned x owner
          (resolution (Hierarchy.Ctx.field_candidates hx ~owner:x ~field) ~member:field_var)
    | Check_cast t | Instance_of t ->
        let v = cls_var t in
        Some (if v >= 0 then [ unit v ] else [])
    | Upcast { from_; to_ } -> (
        let f = cls_var_at x from_ and t = cls_var to_ in
        match subtype x ~sub:from_ ~sup:to_ with
        | None -> None
        | Some cs ->
            let tail = List.filter_map (fun v -> if v >= 0 then Some (unit v) else None) [ t; f ] in
            Some (List.rev_append cs tail))
    | Load_const_class c ->
        (* Generics/reflection approximation (§3): reflection on [c] makes
           this body depend on [c] keeping all its supertype relations —
           every edge out of every supertype, in DFS visit order, then the
           class itself. *)
        if Classfile.is_external c then Some []
        else begin
          let v = cls_var_at x c in
          let edges = ref [] in
          let visited = Hashtbl.create 8 in
          let rec collect x =
            if not (Hashtbl.mem visited x) then begin
              Hashtbl.add visited x ();
              for e = Hierarchy.Ctx.first_edge hx x to Hierarchy.Ctx.last_edge hx x do
                edges := unit edge_var.(e) :: !edges;
                collect (Hierarchy.Ctx.edge_target hx e)
              done
            end
          in
          collect x;
          Some (List.rev (unit v :: !edges))
        end
    | Arith | Load_store | Return_insn -> Some []
  in
  (* Memo buckets by the pool class an instruction resolves against (its
     owner, its upcast source, its reflected class): the class id is looked
     up anyway, and within a bucket only the member names need comparing.
     Instructions that need no hierarchy query skip the memo. *)
  let same_member a b =
    match (a, b) with
    | Invoke_virtual a, Invoke_virtual b -> String.equal a.meth b.meth
    | Invoke_interface a, Invoke_interface b -> String.equal a.meth b.meth
    | Invoke_static a, Invoke_static b -> String.equal a.meth b.meth
    | Get_field a, Get_field b -> String.equal a.field b.field
    | Put_field a, Put_field b -> String.equal a.field b.field
    | Upcast a, Upcast b -> String.equal a.to_ b.to_
    | Load_const_class _, Load_const_class _ -> true
    | _ -> false
  in
  let insn_memo = Array.make n [] in
  let memoized key insn =
    let x = Hierarchy.Ctx.id hx key in
    if x < 0 || x >= n then insn_clauses_uncached x insn
    else
      let rec find = function
        | [] ->
            let r = insn_clauses_uncached x insn in
            insn_memo.(x) <- (insn, r) :: insn_memo.(x);
            r
        | (i, r) :: rest -> if same_member insn i then r else find rest
      in
      find insn_memo.(x)
  in
  let insn_clauses insn =
    match insn with
    | Arith | Load_store | Return_insn -> Some []
    | New_instance _ | Check_cast _ | Instance_of _ -> insn_clauses_uncached (-1) insn
    | Invoke_virtual { owner; _ }
    | Invoke_interface { owner; _ }
    | Invoke_static { owner; _ }
    | Get_field { owner; _ }
    | Put_field { owner; _ }
    | Upcast { from_ = owner; _ }
    | Load_const_class owner ->
        memoized owner insn
  in
  (* code ⇒ (head ∧ body): the body's clauses reversed — for k ≥ 2
     instructions that is each instruction's list in order, for one it is
     that list reversed — then the head's. *)
  let imply_code code head body =
    let neg = unit code in
    let blocks = List.map insn_clauses body in
    incr formulas;
    if List.memq None blocks then push neg [||]
    else begin
      (match blocks with
      | [ Some cs ] -> List.iter (push neg) (List.rev cs)
      | _ -> List.iter (function Some cs -> List.iter (push neg) cs | None -> ()) blocks);
      push neg (unit head)
    end
  in
  let gen_class x (c : cls) =
    let cv = cvs.(x) in
    let vc = cv.cls in
    (* Relations. *)
    if cv.ext >= 0 then imply_pair (unit cv.ext) vc (cls_var c.super);
    List.iteri (fun i iface -> imply_pair (unit cv.ifaces.(i)) vc (cls_var iface)) c.interfaces;
    (* Fields. *)
    List.iteri
      (fun i (f : field) -> imply_pair (unit cv.fields.(i)) vc (type_ref_var f.f_type))
      c.fields;
    (* Methods. *)
    List.iteri
      (fun i (m : meth) ->
        let vm = cv.meths.(i) in
        let neg = unit vm in
        incr formulas;
        push_types_rev neg m.m_params;
        push_var neg (type_ref_var m.m_ret);
        push_var neg vc;
        if not m.m_abstract then imply_code cv.codes.(i) vm m.m_body)
      c.methods;
    (* Constructors, with the implicit super-constructor call: if the body
       is kept and the extends relation is kept, some super constructor
       must survive. *)
    List.iteri
      (fun i (k : ctor) ->
        let vk = cv.ctors.(i) and vkcode = cv.ctor_codes.(i) in
        let neg = unit vk in
        incr formulas;
        push_types_rev neg k.k_params;
        push_var neg vc;
        imply_code vkcode vk k.k_body;
        if not (Classfile.is_external c.super) then begin
          let s = Hierarchy.Ctx.id hx c.super in
          if s >= 0 && s < n then begin
            if cv.ext < 0 then missing (c.name ^ "!extends");
            imply (sort_unique [| vkcode; cv.ext |]) (Some [ cvs.(s).ctors ])
          end
        end)
      c.ctors;
    (* Attributes. *)
    List.iteri (fun i a -> imply_pair (unit cv.annotations.(i)) vc (cls_var a)) c.annotations;
    List.iteri
      (fun i inner -> imply_pair (unit cv.inners.(i)) vc (cls_var inner))
      c.inner_classes;
    (* Interface-implementation obligations (the FJI "signature typing
       relative to a class", generalised to interface hierarchies and
       abstract classes): if a relation path to the abstract declaration
       and the declaration itself survive, a concrete implementation must
       survive reachable from C.  One constraint per premise path —
       dropping premise paths would WEAKEN the model (premises sit in
       negative position), so when there are too many paths to enumerate we
       emit the sound over-approximation with no path premise at all. *)
    if (not c.is_abstract) && not c.is_interface then
      Hierarchy.Ctx.abstract_obligations hx x
      |> List.map (fun (t, i) -> (t, (List.nth (Hierarchy.Ctx.cls hx t).methods i).m_name, i))
      |> List.sort_uniq (fun (t1, m1, _) (t2, m2, _) ->
             (* Ids follow name order, so this is (class, method) name order. *)
             if t1 <> t2 then Int.compare t1 t2 else String.compare m1 m2)
      |> List.iter (fun (t, m, i) ->
             let concrete =
               Hierarchy.Ctx.method_candidates hx ~owner:x ~meth:m ~static:false
               |> List.filter (fun { Hierarchy.def; member; _ } ->
                      def >= 0
                      && not (List.nth (Hierarchy.Ctx.cls hx def).methods member).m_abstract)
             in
             let conclusion = resolution concrete ~member:method_var in
             let decl = cvs.(t).meths.(i) in
             let max_premise_paths = 48 in
             let paths = Hierarchy.Ctx.paths_to hx ~src:x ~dst:t ~max_paths:max_premise_paths in
             if List.length paths >= max_premise_paths then
               imply (sort_unique [| vc; decl |]) conclusion
             else
               List.iter
                 (fun path ->
                   let premise = Array.make (List.length path + 2) vc in
                   premise.(1) <- decl;
                   List.iteri (fun k e -> premise.(k + 2) <- edge_var.(e)) path;
                   imply (sort_unique premise) conclusion)
                 paths)
  in
  List.iteri gen_class (Classpool.classes pool);
  let cnf = Cnf.Builder.finish ~rev:(!formulas <> 1) model in
  if Cnf.is_unsat cnf then invalid_arg "Constraints.generate: unsatisfiable model (invalid pool?)";
  cnf
