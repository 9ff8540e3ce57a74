open Lbr_logic
open Classfile

(* One reduction instance applies thousands of candidate assignments to the
   same pool, so each member's variable is read once, by position, from
   {!Jvars.class_vars} in a prepared pass, and each application is then
   pure integer membership tests on the assignment.  [-1] marks itemless
   (permanent) positions, e.g. extends of an external super. *)

(* One prepared class, and the applier's memory of it.  The applier
   returned by {!prepare} mutates these in place, so a prepared applier
   must not be shared between domains (each reduction run builds its own,
   which is how every caller already works). *)
type klass = {
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
  (* The signature: the assignment words holding the class's own variables
     and the constructor variables of every pool class its bodies
     instantiate, the bits of those variables per word, and their values
     at the current application. *)
  sig_words : int array;
  sig_masks : int array;
  sig_vals : int array;
  mutable present : bool;
  mutable ccls : cls;  (* the current reduced class, meaningful when present *)
  mutable cbytes : int;  (* its byte size, 0 when absent *)
  (* Every signature the class was present under, with what came out:
     binary probing hops between prefix assignments whose restriction to
     one class cycles through a few values, and a revisit reuses the very
     same class structure.  Entry [e]'s signature is
     [sigs.(e * k) .. sigs.(e * k + k - 1)], [k] the signature's length. *)
  mutable stored : int;
  mutable sigs : int array;
  mutable results : cls array;
  mutable sizes : int array;
}

let rec sig_matches sigs base vals i k =
  i >= k
  || Array.unsafe_get sigs (base + i) = Array.unsafe_get vals i
     && sig_matches sigs base vals (i + 1) k

(* The newest stored entry equal to [vals], [-1] when none; top-level with
   every datum an argument, so a hit allocates nothing. *)
let rec find_sig sigs vals k e =
  if e < 0 || sig_matches sigs (e * k) vals 0 k then e else find_sig sigs vals k (e - 1)

let store c cls bytes =
  let k = Array.length c.sig_vals in
  if c.stored = Array.length c.results then begin
    let cap = max 4 (2 * c.stored) in
    let grow a len fill =
      let b = Array.make len fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    c.sigs <- grow c.sigs (cap * k) 0;
    c.results <- grow c.results cap c.pc;
    c.sizes <- grow c.sizes cap 0
  end;
  Array.blit c.sig_vals 0 c.sigs (c.stored * k) k;
  c.results.(c.stored) <- cls;
  c.sizes.(c.stored) <- bytes;
  c.stored <- c.stored + 1

let prepare jv pool =
  let source = Array.of_list (Classpool.classes pool) in
  let n = Array.length source in
  (* Name order is the order [Jvars] numbers the classes in. *)
  let slots = Array.map (fun (c : cls) -> Classpool.slot pool c.name) source in
  let of_slot = Array.make (Classpool.slot_count pool) (-1) in
  Array.iteri (fun i s -> of_slot.(s) <- i) slots;
  let index_of name =
    let s = Classpool.slot pool name in
    if s < 0 then -1 else of_slot.(s)
  in
  let bits = Sys.int_size in
  let nwords = Assignment.word_width (Jvars.all jv) in
  (* Scratch for one class's signature: the mask per word, and the words
     touched so far, in touch order. *)
  let acc = Array.make nwords 0 and touched = Array.make nwords 0 and ntouched = ref 0 in
  let add v =
    if v >= 0 then begin
      let w = v / bits in
      if acc.(w) = 0 then begin
        touched.(!ntouched) <- w;
        incr ntouched
      end;
      acc.(w) <- acc.(w) lor (1 lsl (v mod bits))
    end
  in
  (* The classes whose constructors the current class's bodies instantiate
     have already added theirs when [added.(j)] is the current class. *)
  let added = Array.make n (-1) in
  let prep i (c : cls) =
    let cv = Jvars.class_vars jv i in
    ntouched := 0;
    add cv.cls;
    add cv.ext;
    let add_all = Array.iter add in
    add_all cv.ifaces;
    add_all cv.fields;
    add_all cv.meths;
    add_all cv.codes;
    add_all cv.ctors;
    add_all cv.ctor_codes;
    add_all cv.annotations;
    add_all cv.inners;
    (* One walk per body sums its instruction bytes and finds its
       [New_instance] sites on pool classes: only those are ever
       renumbered, so a body without one is shared untouched between the
       original and every sub-pool.  The instantiated classes' constructor
       variables join the signature, since their kept set drives the
       renumbering. *)
    let remap = ref false in
    let walk body =
      remap := false;
      List.fold_left
        (fun bytes insn ->
          (match insn with
          | New_instance { cls; _ } ->
              let j = index_of cls in
              if j >= 0 then begin
                remap := true;
                if added.(j) <> i then begin
                  added.(j) <- i;
                  add_all (Jvars.class_vars jv j).ctors
                end
              end
          | _ -> ());
          bytes + Size.insn_bytes insn)
        0 body
    in
    let meths = Array.of_list c.methods and ctors = Array.of_list c.ctors in
    let meth_remap = Array.make (Array.length meths) false in
    let meth_full =
      Array.mapi
        (fun m (me : meth) ->
          let insns = if me.m_abstract then 0 else walk me.m_body in
          meth_remap.(m) <- !remap && not me.m_abstract;
          Size.meth_bytes_with me ~insns)
        meths
    in
    let ctor_remap = Array.make (Array.length ctors) false in
    let ctor_full =
      Array.mapi
        (fun m (k : ctor) ->
          let insns = walk k.k_body in
          ctor_remap.(m) <- !remap;
          Size.ctor_bytes_with k ~insns)
        ctors
    in
    let sig_words = Array.sub touched 0 !ntouched in
    let sig_masks = Array.map (fun w -> acc.(w)) sig_words in
    Array.iter (fun w -> acc.(w) <- 0) sig_words;
    let ifaces_bytes = List.length c.interfaces * Size.iface_bytes in
    let fields_bytes = List.length c.fields * Size.field_bytes in
    let meths_bytes = Array.fold_left ( + ) 0 meth_full in
    let ctors_bytes = Array.fold_left ( + ) 0 ctor_full in
    let annots_bytes = List.length c.annotations * Size.annotation_bytes in
    let inners_bytes = List.length c.inner_classes * Size.inner_bytes in
    {
      pc = c;
      slot = slots.(i);
      cv;
      base_bytes = Size.class_header_bytes c;
      (* The all-members-kept size, so an application that keeps the class
         whole never re-accumulates it. *)
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
      (* remapping preserves per-instruction sizes, so the kept and stubbed
         byte counts can both be fixed in advance *)
      meth_stub = Array.map Size.meth_stub_bytes meths;
      meth_remap;
      ctors;
      ctor_full;
      ctor_stub = Array.map Size.ctor_stub_bytes ctors;
      ctor_remap;
      sig_words;
      sig_masks;
      sig_vals = Array.make (Array.length sig_words) 0;
      present = false;
      ccls = c;
      cbytes = 0;
      stored = 0;
      sigs = [||];
      results = [||];
      sizes = [||];
    }
  in
  let classes = Array.mapi prep source in
  (* The word -> classes index: the classes with a signature bit in word
     [w] are [by_cls.(w)], with their bits of that word in [by_mask.(w)]. *)
  let by_word = Array.make nwords [] in
  Array.iteri
    (fun i c ->
      Array.iteri (fun s w -> by_word.(w) <- (i, c.sig_masks.(s)) :: by_word.(w)) c.sig_words)
    classes;
  let by_cls = Array.map (fun l -> Array.of_list (List.map fst l)) by_word in
  let by_mask = Array.map (fun l -> Array.of_list (List.map snd l)) by_word in
  (* The previous application's words; the classes to revisit this
     application, stamped with its number so each is listed once. *)
  let last_words = Array.make nwords 0 in
  let epoch = ref 0 in
  let stamp = Array.make n (-1) in
  let dirty = Array.make n 0 and ndirty = ref 0 in
  let mark i =
    if stamp.(i) <> !epoch then begin
      stamp.(i) <- !epoch;
      dirty.(!ndirty) <- i;
      incr ndirty
    end
  in
  (* Constructor-renumbering mappings, computed on demand for the classes a
     rebuilt body instantiates and memoized for the current application
     only (stamped with its number).  [Some mapping] iff dropping
     constructors shifts a kept index — [None] is the identity. *)
  let map_stamp = Array.make n (-1) and map_val = Array.make n None in
  (* The classes of the previous application by slot, and its pool and
     byte total.  Each application that changes a class fills one fresh
     slot array from [current]. *)
  let current = Array.make (Classpool.slot_count pool) Classpool.vacant in
  let last_pool = ref (Classpool.of_slots pool (Array.copy current)) in
  let last_total = ref 0 in
  (* Membership in the current application, read from its words (every
     variable of the pool lies below [nwords] words). *)
  let keep v = v < 0 || (last_words.(v / bits) lsr (v mod bits)) land 1 <> 0 in
  let mapping_of name =
    let j = index_of name in
    if j < 0 then None
    else if map_stamp.(j) = !epoch then map_val.(j)
    else begin
      let kvs = classes.(j).cv.ctors in
      let shifted = ref false in
      let next = ref 0 in
      Array.iteri
        (fun i kv ->
          if keep kv then begin
            if !next <> i then shifted := true;
            incr next
          end)
        kvs;
      let m =
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
      map_stamp.(j) <- !epoch;
      map_val.(j) <- m;
      m
    end
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
  (* A present class's reduced form and byte size.  The size is
     accumulated arithmetically during filtering — member weights were
     fixed at preparation time — so the driver's cost function never has
     to re-walk the bodies.  Each member list is tested for being
     untouched first: an untouched list is shared into the rebuilt class
     (its all-kept weight was fixed at preparation time), and a class
     with every list untouched is shared whole. *)
  let rebuild p =
    let c = p.pc and cv = p.cv in
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
      keep cv.ext && ifaces_ok && fields_ok && !meths_ok && !ctors_ok && annots_ok && inners_ok
    then store p c p.full_bytes
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
      store p
        { c with super; interfaces; fields; methods; ctors; annotations; inner_classes }
        !bytes
    end
  in
  fun phi ->
    incr epoch;
    (* Only the classes with a signature bit in a word that differs from the
       previous application's are revisited; the first application visits
       every class. *)
    ndirty := 0;
    if !epoch = 1 then
      for i = 0 to n - 1 do
        mark i
      done;
    for w = 0 to nwords - 1 do
      let x = Assignment.word_at phi w in
      let d = x lxor last_words.(w) in
      if d <> 0 then begin
        last_words.(w) <- x;
        let cs = by_cls.(w) and ms = by_mask.(w) in
        for e = 0 to Array.length cs - 1 do
          if ms.(e) land d <> 0 then mark cs.(e)
        done
      end
    done;
    let changed = ref false in
    let total = ref !last_total in
    for d = 0 to !ndirty - 1 do
      let p = classes.(dirty.(d)) in
      let was_present = p.present and old_cls = p.ccls and old_bytes = p.cbytes in
      if not (keep p.cv.cls) then begin
        p.present <- false;
        p.cbytes <- 0;
        if was_present then begin
          current.(p.slot) <- Classpool.vacant;
          changed := true;
          total := !total - old_bytes
        end
      end
      else begin
        let vals = p.sig_vals and k = Array.length p.sig_vals in
        for s = 0 to k - 1 do
          vals.(s) <- last_words.(p.sig_words.(s)) land p.sig_masks.(s)
        done;
        let e =
          match find_sig p.sigs vals k (p.stored - 1) with
          | -1 ->
              rebuild p;
              p.stored - 1
          | e -> e
        in
        let cls = p.results.(e) and bytes = p.sizes.(e) in
        p.present <- true;
        p.ccls <- cls;
        p.cbytes <- bytes;
        if (not was_present) || not (cls == old_cls) then begin
          current.(p.slot) <- cls;
          changed := true
        end;
        total := !total + bytes - old_bytes
      end
    done;
    if !changed then last_pool := Classpool.of_slots pool (Array.copy current);
    last_total := !total;
    Classpool.with_bytes !last_pool !total

let prepare jv pool =
  let app = prepare jv pool in
  fun phi -> Perf.time "jvm.reducer-apply" (fun () -> app phi)

let apply jv pool phi = prepare jv pool phi
