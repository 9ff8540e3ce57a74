open Lbr_logic
open Classfile

(* One reduction instance applies thousands of candidate assignments to the
   same pool, so each member's variable is read once, by position, from
   {!Jvars.class_vars} in a prepared pass, and each application is then
   pure integer membership tests on the assignment.  [-1] marks itemless
   (permanent) positions, e.g. extends of an external super. *)

type prep_class = {
  pc : cls;
  cls_var : int;
  ext_var : int;
  base_bytes : int;  (* class header + name, per {!Size.class_bytes} *)
  full_bytes : int;  (* byte size with every member kept *)
  (* Per-member-list all-kept byte sums, so a rebuild that leaves one list
     untouched shares the original list and adds its weight in one step. *)
  ifaces_bytes : int;
  fields_bytes : int;
  meths_bytes : int;
  ctors_bytes : int;
  annots_bytes : int;
  inners_bytes : int;
  iface_vars : (string * int) list;
  field_vars : (field * int) list;
  meth_vars : (meth * int * int * int * int * bool) list;
      (* method item, code item, bytes if body kept, bytes if stubbed,
         body instantiates a pool class (may need ctor-index remapping) *)
  ctor_vars : (ctor * int * int * int * int * bool) array;
      (* ctor item, ctor-code item, bytes if body kept, bytes if stubbed,
         body instantiates a pool class *)
  annot_vars : (string * int) list;
  inner_vars : (string * int) list;
}

(* Last-application memory for one prepared class: which phi-bits its
   reduced form was computed from, and what came out.  The applier returned
   by {!prepare} owns one of these per class and mutates it in place, so a
   prepared applier must not be shared between domains (each reduction run
   builds its own, which is how every caller already works). *)
type class_cache = {
  sig_words : int array;  (* assignment-word indices covering the class's variables *)
  sig_masks : int array;  (* per word, the bits belonging to those variables *)
  sig_vals : int array;   (* their masked values at the previous application *)
  mutable seen : bool;    (* false until the first application *)
  mutable present : bool;
  mutable ccls : cls;     (* cached reduced class, meaningful when present *)
  mutable cbytes : int;   (* its byte size, 0 when absent *)
  (* Every signature ever reduced, so revisiting one — binary probing hops
     between prefix assignments whose restriction to one class cycles
     through a few values — reuses the very same class structure instead of
     rebuilding it.  Buckets are keyed by a mixed hash of the signature
     words and resolved by exact comparison. *)
  results : (int, sig_entry list) Hashtbl.t;
}

and sig_entry = {
  e_sig : int array;  (* masked signature words this result was built from *)
  e_present : bool;
  e_cls : cls;
  e_bytes : int;
}

let sig_hash vals =
  let h = ref 0 in
  for i = 0 to Array.length vals - 1 do
    h := (!h * 486187739) + Array.unsafe_get vals i
  done;
  !h land max_int

let sig_equal a b =
  let n = Array.length a in
  let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
  go 0

(* @raise Not_found — so the hit path allocates nothing. *)
let rec find_entry vals = function
  | [] -> raise Not_found
  | e :: rest -> if sig_equal e.e_sig vals then e else find_entry vals rest

(* Compare-and-refresh the cached signature words against [phi]; returns
   whether they were all unchanged.  Top-level with every datum an argument
   so the per-class call allocates nothing. *)
let rec sweep_words words masks vals phi i n hit =
  if i >= n then hit
  else
    let w = Assignment.word_at phi (Array.unsafe_get words i) land Array.unsafe_get masks i in
    if Array.unsafe_get vals i = w then sweep_words words masks vals phi (i + 1) n hit
    else begin
      Array.unsafe_set vals i w;
      sweep_words words masks vals phi (i + 1) n false
    end

let sweep_sig cache phi =
  sweep_words cache.sig_words cache.sig_masks cache.sig_vals phi 0
    (Array.length cache.sig_words) cache.seen

let prepare jv pool =
  (* Only [New_instance] sites on pool classes are ever renumbered; bodies
     without one can be shared untouched between the original and every
     sub-pool, which skips the per-application body rebuild entirely. *)
  let references_pool_ctor body =
    List.exists
      (function New_instance { cls; _ } -> Classpool.mem pool cls | _ -> false)
      body
  in
  let index = ref 0 in
  let prep =
    Classpool.fold
      (fun (c : cls) acc ->
        (* [fold] visits classes in name order, the order [Jvars] numbers
           them in. *)
        let cv = Jvars.class_vars jv !index in
        incr index;
        {
          pc = c;
          cls_var = cv.cls;
          ext_var = cv.ext;
          base_bytes = Size.class_header_bytes c;
          full_bytes =
            (* The all-members-kept size, so an application that keeps the
               class whole never re-accumulates it. *)
            Size.class_header_bytes c
            + (List.length c.interfaces * Size.iface_bytes)
            + (List.length c.fields * Size.field_bytes)
            + List.fold_left (fun s m -> s + Size.meth_bytes m) 0 c.methods
            + List.fold_left (fun s k -> s + Size.ctor_bytes k) 0 c.ctors
            + (List.length c.annotations * Size.annotation_bytes)
            + (List.length c.inner_classes * Size.inner_bytes);
          ifaces_bytes = List.length c.interfaces * Size.iface_bytes;
          fields_bytes = List.length c.fields * Size.field_bytes;
          meths_bytes = List.fold_left (fun s m -> s + Size.meth_bytes m) 0 c.methods;
          ctors_bytes = List.fold_left (fun s k -> s + Size.ctor_bytes k) 0 c.ctors;
          annots_bytes = List.length c.annotations * Size.annotation_bytes;
          inners_bytes = List.length c.inner_classes * Size.inner_bytes;
          iface_vars = List.mapi (fun i iface -> (iface, cv.ifaces.(i))) c.interfaces;
          field_vars = List.mapi (fun i f -> (f, cv.fields.(i))) c.fields;
          meth_vars =
            List.mapi
              (fun i (m : meth) ->
                ( m,
                  cv.meths.(i),
                  cv.codes.(i),
                  Size.meth_bytes m,
                  (* remapping preserves per-instruction sizes, so the kept
                     and stubbed byte counts can both be fixed in advance *)
                  (if m.m_abstract then Size.meth_bytes m
                   else Size.meth_bytes { m with m_body = [ Return_insn ] }),
                  references_pool_ctor m.m_body ))
              c.methods;
          ctor_vars =
            Array.of_list
              (List.mapi
                 (fun i k ->
                   ( k,
                     cv.ctors.(i),
                     cv.ctor_codes.(i),
                     Size.ctor_bytes k,
                     Size.ctor_bytes { k with k_body = [ Return_insn ] },
                     references_pool_ctor k.k_body ))
                 c.ctors);
          annot_vars = List.mapi (fun i a -> (a, cv.annotations.(i))) c.annotations;
          inner_vars = List.mapi (fun i inner -> (inner, cv.inners.(i))) c.inner_classes;
        }
        :: acc)
      pool []
  in
  let preps = Array.of_list prep in
  let prep_tbl = Hashtbl.create (Array.length preps) in
  Array.iter (fun p -> Hashtbl.add prep_tbl p.pc.name p) preps;
  (* A class's reduced form is a function of the phi-bits of [sig_vars]
     alone: its own item variables, plus the constructor variables of every
     pool class its bodies instantiate (their kept-set drives New_instance
     renumbering).  [sig_bits] remembers the bits of the previous
     application; while they are unchanged the cached class — including its
     byte count and its entry in the incrementally maintained pool map — is
     reused without touching a single member list. *)
  let caches =
    Array.map
      (fun p ->
        let vars = ref [] in
        let add v = if v >= 0 then vars := v :: !vars in
        add p.cls_var;
        add p.ext_var;
        List.iter (fun (_, v) -> add v) p.iface_vars;
        List.iter (fun (_, v) -> add v) p.field_vars;
        List.iter (fun (_, mv, cv, _, _, _) -> add mv; add cv) p.meth_vars;
        Array.iter (fun (_, kv, cv, _, _, _) -> add kv; add cv) p.ctor_vars;
        List.iter (fun (_, v) -> add v) p.annot_vars;
        List.iter (fun (_, v) -> add v) p.inner_vars;
        let add_refs body =
          List.iter
            (function
              | New_instance { cls; _ } -> (
                  match Hashtbl.find_opt prep_tbl cls with
                  | Some b -> Array.iter (fun (_, kv, _, _, _, _) -> add kv) b.ctor_vars
                  | None -> ())
              | _ -> ())
            body
        in
        List.iter
          (fun ((m : meth), _, _, _, _, may_remap) -> if may_remap then add_refs m.m_body)
          p.meth_vars;
        Array.iter
          (fun ((k : ctor), _, _, _, _, may_remap) -> if may_remap then add_refs k.k_body)
          p.ctor_vars;
        let sig_words, sig_masks = Assignment.masks_of (List.filter (fun v -> v >= 0) !vars) in
        {
          sig_words;
          sig_masks;
          sig_vals = Array.make (Array.length sig_words) 0;
          seen = false;
          present = false;
          ccls = p.pc;
          cbytes = 0;
          results = Hashtbl.create 16;
        })
      preps
  in
  (* Constructor-renumbering mappings, computed on demand for the classes a
     rebuilt body instantiates and memoized for the current application
     only.  [Some mapping] iff dropping constructors shifts a kept index —
     an absent or [None] entry is the identity, exactly as before. *)
  let mapping_memo : (string, int array option) Hashtbl.t = Hashtbl.create 8 in
  let last_pool = ref Classpool.empty in
  let last_total = ref 0 in
  fun phi ->
    let keep v = v < 0 || Assignment.mem v phi in
    if Hashtbl.length mapping_memo > 0 then Hashtbl.reset mapping_memo;
    let mapping_of name =
      match Hashtbl.find_opt mapping_memo name with
      | Some m -> m
      | None ->
          let m =
            match Hashtbl.find_opt prep_tbl name with
            | None -> None
            | Some b ->
                let shifted = ref false in
                let next = ref 0 in
                Array.iteri
                  (fun i (_, kv, _, _, _, _) ->
                    if keep kv then begin
                      if !next <> i then shifted := true;
                      incr next
                    end)
                  b.ctor_vars;
                if not !shifted then None
                else begin
                  let mapping = Array.make (Array.length b.ctor_vars) (-1) in
                  let next = ref 0 in
                  Array.iteri
                    (fun i (_, kv, _, _, _, _) ->
                      if keep kv then begin
                        mapping.(i) <- !next;
                        incr next
                      end)
                    b.ctor_vars;
                  Some mapping
                end
          in
          Hashtbl.add mapping_memo name m;
          m
    in
    let remap_insn insn =
      match insn with
      | New_instance { cls; ctor } -> (
          match mapping_of cls with
          | Some mapping
            when ctor < Array.length mapping
                 && mapping.(ctor) >= 0
                 && mapping.(ctor) <> ctor ->
              New_instance { cls; ctor = mapping.(ctor) }
          | Some _ | None -> insn)
      | Invoke_virtual _ | Invoke_interface _ | Invoke_static _ | Get_field _ | Put_field _
      | Check_cast _ | Instance_of _ | Upcast _ | Load_const_class _ | Arith | Load_store
      | Return_insn -> insn
    in
    let insn_changes insn =
      match insn with
      | New_instance { cls; ctor } -> (
          match mapping_of cls with
          | Some mapping ->
              ctor < Array.length mapping && mapping.(ctor) >= 0 && mapping.(ctor) <> ctor
          | None -> false)
      | _ -> false
    in
    (* Rebuild a body only when some instruction in it actually changes;
       otherwise the original list is shared into the sub-pool. *)
    let remap_body ~may_remap body =
      if not may_remap then body
      else if List.exists insn_changes body then List.map remap_insn body
      else body
    in
    let body_unchanged ~may_remap body =
      (not may_remap) || not (List.exists insn_changes body)
    in
    (* The byte size of the sub-pool is accumulated arithmetically during
       filtering — member weights were fixed at preparation time — so the
       driver's cost function never has to re-walk the bodies.  Each member
       list is tested for being untouched first: an untouched list is shared
       into the rebuilt class (its all-kept weight was fixed at preparation
       time), and a class with every list untouched is shared whole. *)
    let rebuild p =
      let c = p.pc in
      if not (keep p.cls_var) then None
      else begin
        let ifaces_ok = List.for_all (fun (_, v) -> keep v) p.iface_vars in
        let fields_ok = List.for_all (fun (_, v) -> keep v) p.field_vars in
        let meths_ok =
          List.for_all
            (fun ((m : meth), mv, cv, _, _, may_remap) ->
              keep mv
              && (m.m_abstract || (keep cv && body_unchanged ~may_remap m.m_body)))
            p.meth_vars
        in
        let ctors_ok =
          Array.for_all
            (fun ((k : ctor), kv, cv, _, _, may_remap) ->
              keep kv && keep cv && body_unchanged ~may_remap k.k_body)
            p.ctor_vars
        in
        let annots_ok = List.for_all (fun (_, v) -> keep v) p.annot_vars in
        let inners_ok = List.for_all (fun (_, v) -> keep v) p.inner_vars in
        if
          keep p.ext_var && ifaces_ok && fields_ok && meths_ok && ctors_ok && annots_ok
          && inners_ok
        then Some (c, p.full_bytes)
        else begin
          let bytes = ref p.base_bytes in
          let super = if keep p.ext_var then c.super else object_name in
          let interfaces =
            if ifaces_ok then begin bytes := !bytes + p.ifaces_bytes; c.interfaces end
            else
              List.filter_map
                (fun (i, v) ->
                  if keep v then begin bytes := !bytes + Size.iface_bytes; Some i end else None)
                p.iface_vars
          in
          let fields =
            if fields_ok then begin bytes := !bytes + p.fields_bytes; c.fields end
            else
              List.filter_map
                (fun (f, v) ->
                  if keep v then begin bytes := !bytes + Size.field_bytes; Some f end else None)
                p.field_vars
          in
          let methods =
            if meths_ok then begin bytes := !bytes + p.meths_bytes; c.methods end
            else
              List.filter_map
                (fun ((m : meth), mv, cv, full, stub, may_remap) ->
                  if not (keep mv) then None
                  else if m.m_abstract then begin bytes := !bytes + full; Some m end
                  else if keep cv then begin
                    bytes := !bytes + full;
                    let body = remap_body ~may_remap m.m_body in
                    Some (if body == m.m_body then m else { m with m_body = body })
                  end
                  else begin bytes := !bytes + stub; Some { m with m_body = [ Return_insn ] } end)
                p.meth_vars
          in
          (* Indices shift after filtering: stub removed bodies first, then
             drop removed constructors.  New_instance sites referencing a
             removed constructor are ruled out by the constraints; sites
             referencing kept ones are renumbered. *)
          let ctors =
            if ctors_ok then begin bytes := !bytes + p.ctors_bytes; c.ctors end
            else
              Array.to_list p.ctor_vars
              |> List.filter_map (fun ((k : ctor), kv, cv, full, stub, may_remap) ->
                     if not (keep kv) then None
                     else if keep cv then begin
                       bytes := !bytes + full;
                       let body = remap_body ~may_remap k.k_body in
                       Some (if body == k.k_body then k else { k with k_body = body })
                     end
                     else begin bytes := !bytes + stub; Some { k with k_body = [ Return_insn ] } end)
          in
          let annotations =
            if annots_ok then begin bytes := !bytes + p.annots_bytes; c.annotations end
            else
              List.filter_map
                (fun (a, v) ->
                  if keep v then begin bytes := !bytes + Size.annotation_bytes; Some a end
                  else None)
                p.annot_vars
          in
          let inner_classes =
            if inners_ok then begin bytes := !bytes + p.inners_bytes; c.inner_classes end
            else
              List.filter_map
                (fun (i, v) ->
                  if keep v then begin bytes := !bytes + Size.inner_bytes; Some i end else None)
                p.inner_vars
          in
          Some
            ( { c with super; interfaces; fields; methods; ctors; annotations; inner_classes },
              !bytes )
        end
      end
    in
    let pool_acc = ref !last_pool in
    let total = ref !last_total in
    Array.iteri
      (fun idx p ->
        let cache = caches.(idx) in
        let hit = sweep_sig cache phi in
        cache.seen <- true;
        if not hit then begin
          let vals = cache.sig_vals in
          let old_present = cache.present in
          let old_cls = cache.ccls in
          let old_bytes = cache.cbytes in
          let h = sig_hash vals in
          let bucket = try Hashtbl.find cache.results h with Not_found -> [] in
          let entry =
            try find_entry vals bucket
            with Not_found ->
              let e =
                match rebuild p with
                | None ->
                    { e_sig = Array.copy vals; e_present = false; e_cls = p.pc; e_bytes = 0 }
                | Some (c, b) ->
                    { e_sig = Array.copy vals; e_present = true; e_cls = c; e_bytes = b }
              in
              Hashtbl.replace cache.results h (e :: bucket);
              e
          in
          cache.present <- entry.e_present;
          cache.ccls <- entry.e_cls;
          cache.cbytes <- entry.e_bytes;
          if not entry.e_present then begin
            if old_present then begin
              pool_acc := Classpool.unset !pool_acc p.pc.name;
              total := !total - old_bytes
            end
          end
          else begin
            if (not old_present) || not (entry.e_cls == old_cls) then
              pool_acc := Classpool.set !pool_acc entry.e_cls;
            total := !total + entry.e_bytes - (if old_present then old_bytes else 0)
          end
        end)
      preps;
    last_pool := !pool_acc;
    last_total := !total;
    Classpool.with_bytes !pool_acc !total

let prepare jv pool =
  let app = prepare jv pool in
  fun phi -> Perf.time "jvm.reducer-apply" (fun () -> app phi)

let apply jv pool phi = prepare jv pool phi
