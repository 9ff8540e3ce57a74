open Lbr_logic
open Classfile

(* One reduction instance applies thousands of candidate assignments to the
   same pool, so each member's variable is read once, by position, from
   {!Jvars.class_vars} in a prepared pass, and each application is then
   pure integer membership tests on the assignment.  [-1] marks itemless
   (permanent) positions, e.g. extends of an external super. *)

type prep_class = {
  pc : cls;
  slot : int;  (* [pc]'s slot in the pool's name index *)
  cv : Jvars.class_vars;  (* member variables, by position in [pc]'s lists *)
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
  (* Methods and constructors by position: the member, its bytes with its
     body kept and stubbed, and whether its body instantiates a pool class
     (and so may need constructor renumbering). *)
  meths : meth array;
  meth_full : int array;
  meth_stub : int array;
  meth_remap : bool array;
  ctors : ctor array;
  ctor_full : int array;
  ctor_stub : int array;
  ctor_remap : bool array;
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
        let meths = Array.of_list c.methods and ctors = Array.of_list c.ctors in
        let meth_full = Array.map Size.meth_bytes meths in
        let ctor_full = Array.map Size.ctor_bytes ctors in
        let ifaces_bytes = List.length c.interfaces * Size.iface_bytes in
        let fields_bytes = List.length c.fields * Size.field_bytes in
        let meths_bytes = Array.fold_left ( + ) 0 meth_full in
        let ctors_bytes = Array.fold_left ( + ) 0 ctor_full in
        let annots_bytes = List.length c.annotations * Size.annotation_bytes in
        let inners_bytes = List.length c.inner_classes * Size.inner_bytes in
        {
          pc = c;
          slot = Classpool.slot pool c.name;
          cv;
          base_bytes = Size.class_header_bytes c;
          (* The all-members-kept size, so an application that keeps the
             class whole never re-accumulates it. *)
          full_bytes =
            Size.class_header_bytes c + ifaces_bytes + fields_bytes + meths_bytes + ctors_bytes
            + annots_bytes + inners_bytes;
          ifaces_bytes;
          fields_bytes;
          meths_bytes;
          ctors_bytes;
          annots_bytes;
          inners_bytes;
          meths;
          meth_full;
          (* remapping preserves per-instruction sizes, so the kept and
             stubbed byte counts can both be fixed in advance *)
          meth_stub = Array.map Size.meth_stub_bytes meths;
          meth_remap = Array.map (fun (m : meth) -> references_pool_ctor m.m_body) meths;
          ctors;
          ctor_full;
          ctor_stub = Array.map Size.ctor_stub_bytes ctors;
          ctor_remap = Array.map (fun (k : ctor) -> references_pool_ctor k.k_body) ctors;
        }
        :: acc)
      pool []
  in
  (* In reverse name order. *)
  let preps = Array.of_list prep in
  let prep_tbl = Hashtbl.create (Array.length preps) in
  Array.iter (fun p -> Hashtbl.add prep_tbl p.pc.name p) preps;
  (* A class's reduced form is a function of the phi-bits of [sig_vars]
     alone: its own item variables, plus the constructor variables of every
     pool class its bodies instantiate (their kept-set drives New_instance
     renumbering).  [sig_bits] remembers the bits of the previous
     application; while they are unchanged the cached class — including its
     byte count and its slot in the sub-pool — is reused without touching a
     single member list. *)
  let caches =
    Array.map
      (fun p ->
        let cv = p.cv in
        let vars = ref [] in
        let add v = if v >= 0 then vars := v :: !vars in
        let add_all = Array.iter add in
        add cv.cls;
        add cv.ext;
        add_all cv.ifaces;
        add_all cv.fields;
        add_all cv.meths;
        add_all cv.codes;
        add_all cv.ctors;
        add_all cv.ctor_codes;
        add_all cv.annotations;
        add_all cv.inners;
        let add_refs body =
          List.iter
            (function
              | New_instance { cls; _ } -> (
                  match Hashtbl.find_opt prep_tbl cls with
                  | Some b -> add_all b.cv.ctors
                  | None -> ())
              | _ -> ())
            body
        in
        Array.iteri (fun i (m : meth) -> if p.meth_remap.(i) then add_refs m.m_body) p.meths;
        Array.iteri (fun i (k : ctor) -> if p.ctor_remap.(i) then add_refs k.k_body) p.ctors;
        let sig_words, sig_masks = Assignment.masks_of !vars in
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
  (* The classes of the previous application by slot, and its pool and
     byte total.  Each application that changes a class fills one fresh
     slot array from [current]. *)
  let current = Array.make (Classpool.slot_count pool) Classpool.vacant in
  let last_pool = ref (Classpool.of_slots pool (Array.copy current)) in
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
                let kvs = b.cv.ctors in
                let shifted = ref false in
                let next = ref 0 in
                Array.iteri
                  (fun i kv ->
                    if keep kv then begin
                      if !next <> i then shifted := true;
                      incr next
                    end)
                  kvs;
                if not !shifted then None
                else begin
                  let mapping = Array.make (Array.length kvs) (-1) in
                  let next = ref 0 in
                  Array.iteri
                    (fun i kv ->
                      if keep kv then begin
                        mapping.(i) <- !next;
                        incr next
                      end)
                    kvs;
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
    (* The members of a list whose variables [vars] (by position) are kept,
       adding [weight] to [bytes] per member. *)
    let kept vars weight bytes xs =
      List.filteri
        (fun i _ ->
          keep vars.(i)
          && begin
               bytes := !bytes + weight;
               true
             end)
        xs
    in
    (* The byte size of the sub-pool is accumulated arithmetically during
       filtering — member weights were fixed at preparation time — so the
       driver's cost function never has to re-walk the bodies.  Each member
       list is tested for being untouched first: an untouched list is shared
       into the rebuilt class (its all-kept weight was fixed at preparation
       time), and a class with every list untouched is shared whole. *)
    let rebuild p =
      let c = p.pc and cv = p.cv in
      if not (keep cv.cls) then None
      else begin
        let ifaces_ok = Array.for_all keep cv.ifaces in
        let fields_ok = Array.for_all keep cv.fields in
        let meths_ok = ref true in
        Array.iteri
          (fun i (m : meth) ->
            if
              not
                (keep cv.meths.(i)
                && (m.m_abstract
                   || (keep cv.codes.(i) && body_unchanged ~may_remap:p.meth_remap.(i) m.m_body)))
            then meths_ok := false)
          p.meths;
        let ctors_ok = ref true in
        Array.iteri
          (fun i (k : ctor) ->
            if
              not
                (keep cv.ctors.(i) && keep cv.ctor_codes.(i)
                && body_unchanged ~may_remap:p.ctor_remap.(i) k.k_body)
            then ctors_ok := false)
          p.ctors;
        let annots_ok = Array.for_all keep cv.annotations in
        let inners_ok = Array.for_all keep cv.inners in
        if
          keep cv.ext && ifaces_ok && fields_ok && !meths_ok && !ctors_ok && annots_ok
          && inners_ok
        then Some (c, p.full_bytes)
        else begin
          let bytes = ref p.base_bytes in
          let super = if keep cv.ext then c.super else object_name in
          let interfaces =
            if ifaces_ok then begin bytes := !bytes + p.ifaces_bytes; c.interfaces end
            else kept cv.ifaces Size.iface_bytes bytes c.interfaces
          in
          let fields =
            if fields_ok then begin bytes := !bytes + p.fields_bytes; c.fields end
            else kept cv.fields Size.field_bytes bytes c.fields
          in
          let methods =
            if !meths_ok then begin bytes := !bytes + p.meths_bytes; c.methods end
            else begin
              let acc = ref [] in
              for i = Array.length p.meths - 1 downto 0 do
                let m = p.meths.(i) in
                if keep cv.meths.(i) then
                  if m.m_abstract then begin
                    bytes := !bytes + p.meth_full.(i);
                    acc := m :: !acc
                  end
                  else if keep cv.codes.(i) then begin
                    bytes := !bytes + p.meth_full.(i);
                    let body = remap_body ~may_remap:p.meth_remap.(i) m.m_body in
                    acc := (if body == m.m_body then m else { m with m_body = body }) :: !acc
                  end
                  else begin
                    bytes := !bytes + p.meth_stub.(i);
                    acc := { m with m_body = [ Return_insn ] } :: !acc
                  end
              done;
              !acc
            end
          in
          (* Indices shift after filtering: stub removed bodies first, then
             drop removed constructors.  New_instance sites referencing a
             removed constructor are ruled out by the constraints; sites
             referencing kept ones are renumbered. *)
          let ctors =
            if !ctors_ok then begin bytes := !bytes + p.ctors_bytes; c.ctors end
            else begin
              let acc = ref [] in
              for i = Array.length p.ctors - 1 downto 0 do
                let k = p.ctors.(i) in
                if keep cv.ctors.(i) then
                  if keep cv.ctor_codes.(i) then begin
                    bytes := !bytes + p.ctor_full.(i);
                    let body = remap_body ~may_remap:p.ctor_remap.(i) k.k_body in
                    acc := (if body == k.k_body then k else { k with k_body = body }) :: !acc
                  end
                  else begin
                    bytes := !bytes + p.ctor_stub.(i);
                    acc := { k with k_body = [ Return_insn ] } :: !acc
                  end
              done;
              !acc
            end
          in
          let annotations =
            if annots_ok then begin bytes := !bytes + p.annots_bytes; c.annotations end
            else kept cv.annotations Size.annotation_bytes bytes c.annotations
          in
          let inner_classes =
            if inners_ok then begin bytes := !bytes + p.inners_bytes; c.inner_classes end
            else kept cv.inners Size.inner_bytes bytes c.inner_classes
          in
          Some
            ( { c with super; interfaces; fields; methods; ctors; annotations; inner_classes },
              !bytes )
        end
      end
    in
    let changed = ref false in
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
              current.(p.slot) <- Classpool.vacant;
              changed := true;
              total := !total - old_bytes
            end
          end
          else begin
            if (not old_present) || not (entry.e_cls == old_cls) then begin
              current.(p.slot) <- entry.e_cls;
              changed := true
            end;
            total := !total + entry.e_bytes - (if old_present then old_bytes else 0)
          end
        end)
      preps;
    if !changed then last_pool := Classpool.of_slots pool (Array.copy current);
    last_total := !total;
    Classpool.with_bytes !last_pool !total

let prepare jv pool =
  let app = prepare jv pool in
  fun phi -> Perf.time "jvm.reducer-apply" (fun () -> app phi)

let apply jv pool phi = prepare jv pool phi
