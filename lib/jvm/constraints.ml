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

   Conclusions are packed: every positive clause of every conclusion lives
   in one literal array, a conclusion is a run of consecutive clauses, and
   a body, a premise or an obligation refers to a conclusion by its index.
   An instruction's conclusion depends only on the instruction and the
   pool, so each distinct (class, kind, member) is resolved once, stored in
   final L order, and emitted by index into the model's {!Cnf.Builder}
   wherever it is used. *)

(* Disjunctions of conjunctions explode multiplicatively when lowered to CNF
   without auxiliary variables (k disjuncts of m conjuncts give m^k
   clauses).  A disjunction keeps the cheapest disjuncts while the
   estimated clause product stays small.  Dropping disjuncts only
   strengthens the model, so soundness (Theorem 3.1's analogue) is
   preserved; the model merely rules out a few valid sub-inputs, like the
   paper's own approximations for generics.  A disjunct's weight is the
   size of the formula it stands for, in atoms and connectives. *)
let max_clause_product = 64

(* Premises of obligations over more relation paths than this are dropped
   (see [generate]). *)
let max_premise_paths = 48

(* A growable int array holding [a.(0) .. a.(n - 1)]. *)
type buf = { mutable a : int array; mutable n : int }

let add b v =
  if b.n = Array.length b.a then begin
    let g = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 g 0 b.n;
    b.a <- g
  end;
  Array.unsafe_set b.a b.n v;
  b.n <- b.n + 1

(* [a.(lo) .. a.(hi - 1)] sorted and deduplicated in place, by insertion:
   premises and cross-product clauses hold two to a handful of variables.
   Returns the new end. *)
let sort_unique (a : int array) lo hi =
  let k = ref lo in
  for i = lo to hi - 1 do
    let v = a.(i) in
    let j = ref !k in
    while !j > lo && a.(!j - 1) > v do
      decr j
    done;
    if !j = lo || a.(!j - 1) <> v then begin
      Array.blit a !j a (!j + 1) (!k - !j);
      a.(!j) <- v;
      incr k
    end
  done;
  !k

(* Generation scratch, one set per domain, reset by each [generate]:
   - conclusion clause [k] is [lits.(cstart.(k)) .. lits.(cstart.(k + 1) - 1)]
     and conclusion [c] the clauses [cfirst.(c) .. cfirst.(c + 1) - 1];
     conclusion 0 is ⊤ (no clause) and [-1] stands for ⊥;
   - the disjunction being built: disjunct [d] weighs [dweight.(d)] and is
     the conjunction of [dvars.(dstart.(d)) .. dvars.(dstart.(d + 1) - 1)];
     [order] and [digit] rank and enumerate it;
   - [body]: the conclusions of the body being emitted;
   - [prem]: the premise being emitted, [one]: a unit head;
   - a class's obligations [obl], and the premise paths of one: path [p]
     is the relation variables
     [paths.(path_start.(p)) .. paths.(path_start.(p + 1) - 1)]. *)
type scratch = {
  lits : buf;
  cstart : buf;
  cfirst : buf;
  dweight : buf;
  dstart : buf;
  dvars : buf;
  order : buf;
  digit : buf;
  body : buf;
  prem : buf;
  one : int array;
  paths : buf;
  path_start : buf;
  obl : buf;
}

let new_buf () = { a = Array.make 64 0; n = 0 }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        lits = new_buf ();
        cstart = new_buf ();
        cfirst = new_buf ();
        dweight = new_buf ();
        dstart = new_buf ();
        dvars = new_buf ();
        order = new_buf ();
        digit = new_buf ();
        body = new_buf ();
        prem = new_buf ();
        one = [| 0 |];
        paths = new_buf ();
        path_start = new_buf ();
        obl = new_buf ();
      })

(* Memo tags of the resolved instruction kinds. *)
let tag_virtual = 0
let tag_static = 1
let tag_field = 2
let tag_upcast = 3
let tag_reflect = 4

type memo = { tag : int; member : string; conc : int }

(* The memoized conclusion, or [-2]. *)
let rec find_memo tag member = function
  | [] -> -2
  | e :: rest ->
      if e.tag = tag && (e.member == member || String.equal e.member member) then e.conc
      else find_memo tag member rest

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
  let missing name = invalid_arg ("Constraints.generate: reference to missing class " ^ name) in
  (* The class variable of [name], [-1] (⊤) for external classes. *)
  let cls_var name =
    if Classfile.is_external name then -1
    else
      let x = Hierarchy.Ctx.id hx name in
      if x >= 0 && x < n then cvs.(x).cls else missing name
  in
  (* The class variable of [name] whose id [x] is already known. *)
  let cls_var_at x name =
    if x >= 0 && x < n && not (Classfile.is_external name) then cvs.(x).cls else cls_var name
  in
  let rec type_ref_var = function
    | Jtype.Ref n -> cls_var n
    | Jtype.Array t -> type_ref_var t
    | Jtype.Int | Jtype.Long | Jtype.Double | Jtype.Bool | Jtype.Void -> -1
  in
  let st = Domain.DLS.get scratch_key in
  let { lits; cstart; cfirst; dweight; dstart; dvars; order; digit; body; prem; one; paths; path_start; obl }
      =
    st
  in
  lits.n <- 0;
  cstart.n <- 0;
  add cstart 0;
  cfirst.n <- 0;
  add cfirst 0;
  add cfirst 0;
  (* The model, emitted in order and finished reversed (see the top of this
     file).  Every clause's premise is [prem]. *)
  let model = Cnf.Builder.create () in
  let formulas = ref 0 in
  let premise v =
    prem.n <- 0;
    add prem v
  in
  let push_empty () = Cnf.Builder.add_sub model prem.a 0 prem.n one 0 0 in
  (* [-1] stands for ⊤. *)
  let push_var v =
    if v >= 0 then begin
      one.(0) <- v;
      Cnf.Builder.add_sub model prem.a 0 prem.n one 0 1
    end
  in
  let push_clause k =
    Cnf.Builder.add_sub model prem.a 0 prem.n lits.a cstart.a.(k) cstart.a.(k + 1)
  in
  (* L(c), or L(c) reversed. *)
  let emit c ~rev =
    if rev then
      for k = cfirst.a.(c + 1) - 1 downto cfirst.a.(c) do
        push_clause k
      done
    else
      for k = cfirst.a.(c) to cfirst.a.(c + 1) - 1 do
        push_clause k
      done
  in
  let imply c =
    incr formulas;
    if c < 0 then push_empty () else emit c ~rev:false
  in
  (* P ⇒ (vc ∧ v), [-1] standing for ⊤: a two-element conjunction, so the
     clauses come reversed. *)
  let imply_pair p vc v =
    premise p;
    incr formulas;
    push_var v;
    push_var vc
  in
  (* P ⇒ (vc ∧ t1 ∧ … ∧ tk) over declared types, reversed likewise (for
     k = 0 the conjunction is vc alone, whose order is moot). *)
  let rec push_types_rev = function
    | [] -> ()
    | ty :: rest ->
        push_types_rev rest;
        push_var (type_ref_var ty)
  in
  (* Building a conclusion: its clauses are appended after the last one
     stored, and [close] numbers them. *)
  let end_clause () = add cstart lits.n in
  let unit_clause v =
    add lits v;
    end_clause ()
  in
  let close () =
    add cfirst (cstart.n - 1);
    cfirst.n - 2
  in
  (* Forget the clauses appended since the last [close]. *)
  let discard () =
    let k = cfirst.a.(cfirst.n - 1) in
    lits.n <- cstart.a.(k);
    cstart.n <- k + 1
  in
  (* Forget the last conclusion. *)
  let pop () =
    cfirst.n <- cfirst.n - 1;
    discard ()
  in
  let start_disj () =
    dweight.n <- 0;
    dvars.n <- 0;
    dstart.n <- 0;
    add dstart 0
  in
  let end_disjunct w =
    add dweight w;
    add dstart dvars.n
  in
  (* Append the clauses of the disjunction built since [start_disj],
     reversed with [rev]; [false] when it has no disjunct (⊥).  The
     disjuncts are ranked by weight (stably) and kept while the product of
     weights stays within [max_clause_product]; one kept disjunct is its
     unit clauses, several are their cross product, the first outermost. *)
  let disjunction ~rev =
    let m = dweight.n in
    if m = 0 then false
    else begin
      order.n <- 0;
      for d = 0 to m - 1 do
        add order d;
        let w = dweight.a.(d) in
        let j = ref d in
        while !j > 0 && dweight.a.(order.a.(!j - 1)) > w do
          order.a.(!j) <- order.a.(!j - 1);
          decr j
        done;
        order.a.(!j) <- d
      done;
      let kept = ref 1 and product = ref dweight.a.(order.a.(0)) in
      while !kept < m && !product * dweight.a.(order.a.(!kept)) <= max_clause_product do
        product := !product * dweight.a.(order.a.(!kept));
        incr kept
      done;
      let kept = !kept in
      (* Kept disjunct [d] is [dvars.(start.(ranked.(d))) ..
         dvars.(start.(ranked.(d) + 1) - 1)]. *)
      let start = dstart.a and ranked = order.a in
      if kept = 1 then begin
        if rev then
          for i = start.(ranked.(0) + 1) - 1 downto start.(ranked.(0)) do
            unit_clause dvars.a.(i)
          done
        else
          for i = start.(ranked.(0)) to start.(ranked.(0) + 1) - 1 do
            unit_clause dvars.a.(i)
          done
      end
      else begin
        (* Odometer over one variable per kept disjunct, the last fastest;
           counting down enumerates the product in reverse. *)
        let empty = ref false in
        digit.n <- 0;
        for d = 0 to kept - 1 do
          if start.(ranked.(d) + 1) = start.(ranked.(d)) then empty := true;
          add digit (if rev then start.(ranked.(d) + 1) - 1 else start.(ranked.(d)))
        done;
        let live = ref (not !empty) in
        while !live do
          let from = lits.n in
          for d = 0 to kept - 1 do
            add lits dvars.a.(digit.a.(d))
          done;
          lits.n <- sort_unique lits.a from lits.n;
          end_clause ();
          let d = ref (kept - 1) and carry = ref true in
          while !carry && !d >= 0 do
            let i = !d in
            if rev then begin
              if digit.a.(i) > start.(ranked.(i)) then (digit.a.(i) <- digit.a.(i) - 1; carry := false)
              else digit.a.(i) <- start.(ranked.(i) + 1) - 1
            end
            else if digit.a.(i) < start.(ranked.(i) + 1) - 1 then (digit.a.(i) <- digit.a.(i) + 1; carry := false)
            else digit.a.(i) <- start.(ranked.(i));
            decr d
          done;
          if !carry then live := false
        done
      end;
      true
    end
  in
  (* mAny over resolution candidates: keeping the call site valid requires
     some defining class to survive with both the relation path to it and
     the member item itself.  A witness resolving outside the pool is ⊤
     (obligations, which need a concrete implementation in the pool, skip
     it and abstract definitions).  Each disjunct is [path ∧ member], whose
     clause list is the member, then the path's edges in order. *)
  let candidate ~field ~concrete_only def member (path : int array) k =
    if def < 0 then (if not concrete_only then end_disjunct 1)
    else if not (concrete_only && (Hierarchy.Ctx.methods hx def).(member).m_abstract) then begin
      add dvars (if field then cvs.(def).fields.(member) else cvs.(def).meths.(member));
      for i = 0 to k - 1 do
        add dvars edge_var.(path.(i))
      done;
      end_disjunct (if k <= 1 then 3 else k + 3)
    end
  in
  let method_candidate = candidate ~field:false ~concrete_only:false
  and concrete_candidate = candidate ~field:false ~concrete_only:true
  and field_candidate = candidate ~field:true ~concrete_only:false in
  (* [owner ∧ R] for the resolution R built since [start_disj]: R's clauses
     reversed, then the owner's. *)
  let owned x owner =
    if not (disjunction ~rev:true) then -1
    else begin
      let o = cls_var_at x owner in
      if o >= 0 then unit_clause o;
      close ()
    end
  in
  let invoke x owner meth ~static =
    start_disj ();
    Hierarchy.Ctx.iter_method_candidates hx ~owner:x ~meth ~static method_candidate;
    owned x owner
  in
  (* A path of k ≥ 2 edges is a conjunction, so its clauses come last edge
     first. *)
  let subtype_path (path : int array) k =
    if k <= 1 then
      for i = 0 to k - 1 do
        add dvars edge_var.(path.(i))
      done
    else
      for i = k - 1 downto 0 do
        add dvars edge_var.(path.(i))
      done;
    end_disjunct (if k <= 1 then 1 else k + 1)
  in
  (* [to ∧ from ∧ D] for the disjunction D over the relation paths
     witnessing [sub ≤ sup] (⊤ when trivial): D's clauses reversed, then
     the two classes'. *)
  let upcast x from_ to_ =
    let tx = Hierarchy.Ctx.id hx to_ in
    let f = cls_var_at x from_ and t = cls_var_at tx to_ in
    let holds =
      if from_ = to_ || Classfile.is_external from_ || to_ = object_name then true
      else begin
        start_disj ();
        Hierarchy.Ctx.iter_subtype_paths hx ~sub:x ~sup:tx subtype_path;
        disjunction ~rev:true
      end
    in
    if not holds then -1
    else begin
      if t >= 0 then unit_clause t;
      if f >= 0 then unit_clause f;
      close ()
    end
  in
  (* The conclusion of an instruction against pool class [x] (its owner,
     its upcast source or its reflected class), computed. *)
  let resolve x insn =
    match insn with
    | Invoke_virtual { owner; meth } | Invoke_interface { owner; meth } ->
        invoke x owner meth ~static:false
    | Invoke_static { owner; meth } -> invoke x owner meth ~static:true
    | Get_field { owner; field } | Put_field { owner; field } ->
        start_disj ();
        Hierarchy.Ctx.iter_field_candidates hx ~owner:x ~field field_candidate;
        owned x owner
    | Upcast { from_; to_ } -> upcast x from_ to_
    | Load_const_class c ->
        (* Generics/reflection approximation (§3): reflection on [c] makes
           this body depend on [c] keeping all its supertype relations —
           every edge out of every supertype, in DFS visit order, then the
           class itself. *)
        if Classfile.is_external c then 0
        else begin
          let v = cls_var_at x c in
          Hierarchy.Ctx.iter_closure_edges hx x (fun e -> unit_clause edge_var.(e));
          unit_clause v;
          close ()
        end
    | New_instance _ | Check_cast _ | Instance_of _ | Arith | Load_store | Return_insn -> 0
  in
  (* Memo buckets by the pool class an instruction resolves against: the
     class id is looked up anyway, and within a bucket only the kind and
     the member name need comparing. *)
  let memo = Array.make n [] in
  let memoized key tag member insn =
    let x = Hierarchy.Ctx.id hx key in
    if x < 0 || x >= n then resolve x insn
    else
      let conc = find_memo tag member memo.(x) in
      if conc > -2 then conc
      else begin
        let conc = resolve x insn in
        memo.(x) <- { tag; member; conc } :: memo.(x);
        conc
      end
  in
  let insn_conc insn =
    match insn with
    | Arith | Load_store | Return_insn -> 0
    | New_instance { cls; ctor } ->
        if Classfile.is_external cls then 0
        else begin
          let x = Hierarchy.Ctx.id hx cls in
          let c = cls_var_at x cls in
          if ctor < 0 || ctor >= Array.length cvs.(x).ctors then missing (cls ^ ".<init>");
          unit_clause cvs.(x).ctors.(ctor);
          unit_clause c;
          close ()
        end
    | Check_cast t | Instance_of t ->
        let v = cls_var t in
        if v < 0 then 0
        else begin
          unit_clause v;
          close ()
        end
    | Invoke_virtual { owner; meth } | Invoke_interface { owner; meth } ->
        memoized owner tag_virtual meth insn
    | Invoke_static { owner; meth } -> memoized owner tag_static meth insn
    | Get_field { owner; field } | Put_field { owner; field } ->
        memoized owner tag_field field insn
    | Upcast { from_; to_ } -> memoized from_ tag_upcast to_ insn
    | Load_const_class c -> memoized c tag_reflect "" insn
  in
  (* code ⇒ (head ∧ body): the body's clauses reversed — for k ≥ 2
     instructions that is each instruction's list in order, for one it is
     that list reversed — then the head's. *)
  let bottom = ref false in
  let rec walk count = function
    | [] -> count
    | (Arith | Load_store | Return_insn) :: rest -> walk (count + 1) rest
    | insn :: rest ->
        let c = insn_conc insn in
        if c < 0 then bottom := true else if cfirst.a.(c + 1) > cfirst.a.(c) then add body c;
        walk (count + 1) rest
  in
  let imply_code code head insns =
    body.n <- 0;
    bottom := false;
    let count = walk 0 insns in
    premise code;
    incr formulas;
    if !bottom then push_empty ()
    else begin
      for i = 0 to body.n - 1 do
        emit body.a.(i) ~rev:(count = 1)
      done;
      push_var head
    end
  in
  let save_path stack len =
    for i = 0 to len - 1 do
      add paths edge_var.(stack.(i))
    done;
    add path_start paths.n
  in
  (* Interface-implementation obligations of concrete class [x], as
     (declaring class, method index) pairs in [obl], sorted by declaring
     class then method name (ids follow name order). *)
  let save_obligation t i =
    add obl t;
    add obl i
  in
  let obligations x =
    obl.n <- 0;
    Hierarchy.Ctx.iter_abstract_obligations hx x save_obligation;
    let a = obl.a in
    let name k = (Hierarchy.Ctx.methods hx a.(k)).(a.(k + 1)).m_name in
    let k = ref 2 in
    while !k < obl.n do
      let t = a.(!k) and i = a.(!k + 1) in
      let m = (Hierarchy.Ctx.methods hx t).(i).m_name in
      let j = ref !k in
      while !j > 0 && (a.(!j - 2) > t || (a.(!j - 2) = t && String.compare (name (!j - 2)) m > 0)) do
        a.(!j) <- a.(!j - 2);
        a.(!j + 1) <- a.(!j - 1);
        j := !j - 2
      done;
      a.(!j) <- t;
      a.(!j + 1) <- i;
      k := !k + 2
    done
  in
  let gen_class x (c : cls) =
    let cv = cvs.(x) in
    let vc = cv.cls in
    (* Relations. *)
    if cv.ext >= 0 then imply_pair cv.ext vc (cls_var c.super);
    List.iteri (fun i iface -> imply_pair cv.ifaces.(i) vc (cls_var iface)) c.interfaces;
    (* Fields. *)
    List.iteri (fun i (f : field) -> imply_pair cv.fields.(i) vc (type_ref_var f.f_type)) c.fields;
    (* Methods. *)
    List.iteri
      (fun i (m : meth) ->
        let vm = cv.meths.(i) in
        premise vm;
        incr formulas;
        push_types_rev m.m_params;
        push_var (type_ref_var m.m_ret);
        push_var vc;
        if not m.m_abstract then imply_code cv.codes.(i) vm m.m_body)
      c.methods;
    (* Constructors, with the implicit super-constructor call: if the body
       is kept and the extends relation is kept, some super constructor
       must survive. *)
    let s = if Classfile.is_external c.super then -1 else Hierarchy.Ctx.id hx c.super in
    List.iteri
      (fun i (k : ctor) ->
        let vk = cv.ctors.(i) and vkcode = cv.ctor_codes.(i) in
        premise vk;
        incr formulas;
        push_types_rev k.k_params;
        push_var vc;
        imply_code vkcode vk k.k_body;
        if s >= 0 && s < n then begin
          if cv.ext < 0 then missing (c.name ^ "!extends");
          premise vkcode;
          add prem cv.ext;
          prem.n <- sort_unique prem.a 0 2;
          incr formulas;
          let ctors = cvs.(s).ctors in
          Cnf.Builder.add_sub model prem.a 0 prem.n ctors 0 (Array.length ctors)
        end)
      c.ctors;
    (* Attributes. *)
    List.iteri (fun i a -> imply_pair cv.annotations.(i) vc (cls_var a)) c.annotations;
    List.iteri (fun i inner -> imply_pair cv.inners.(i) vc (cls_var inner)) c.inner_classes;
    (* Interface-implementation obligations (the FJI "signature typing
       relative to a class", generalised to interface hierarchies and
       abstract classes): if a relation path to the abstract declaration
       and the declaration itself survive, a concrete implementation must
       survive reachable from C.  One constraint per premise path —
       dropping premise paths would WEAKEN the model (premises sit in
       negative position), so when there are too many paths to enumerate we
       emit the sound over-approximation with no path premise at all. *)
    if (not c.is_abstract) && not c.is_interface then begin
      let last = ref (-1) and overflow = ref false in
      obligations x;
      for k = 0 to (obl.n / 2) - 1 do
        let t = obl.a.(2 * k) and i = obl.a.((2 * k) + 1) in
          start_disj ();
          Hierarchy.Ctx.iter_method_candidates hx ~owner:x
            ~meth:(Hierarchy.Ctx.methods hx t).(i).m_name ~static:false concrete_candidate;
          let conc = if disjunction ~rev:false then close () else -1 in
          let decl = cvs.(t).meths.(i) in
          (* Obligations come grouped by declaring class, so the paths to
             it are enumerated once per group. *)
          if t <> !last then begin
            last := t;
            paths.n <- 0;
            path_start.n <- 0;
            add path_start 0;
            overflow :=
              Hierarchy.Ctx.iter_paths hx ~src:x ~dst:t ~max_paths:max_premise_paths save_path
              >= max_premise_paths
          end;
          if !overflow then begin
            premise vc;
            add prem decl;
            prem.n <- sort_unique prem.a 0 2;
            imply conc
          end
          else
            for p = 0 to path_start.n - 2 do
              premise vc;
              add prem decl;
              for j = path_start.a.(p) to path_start.a.(p + 1) - 1 do
                add prem paths.a.(j)
              done;
              prem.n <- sort_unique prem.a 0 prem.n;
              imply conc
            done;
          (* The conclusion is this obligation's alone. *)
          if conc >= 0 then pop () else discard ()
      done
    end
  in
  List.iteri gen_class (Classpool.classes pool);
  let cnf = Cnf.Builder.finish ~rev:(!formulas <> 1) model in
  if Cnf.is_unsat cnf then invalid_arg "Constraints.generate: unsatisfiable model (invalid pool?)";
  cnf
