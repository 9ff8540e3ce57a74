(* Literals are codes: [2v] for variable [v] true, [2v + 1] for [v]
   false, so [l lxor 1] negates.  Variables [0 .. nf - 1] are the
   formula's: variable [u] is DIMACS variable [vars.(u)], the [u]-th
   smallest that occurs.  Variable [nf + i] is clause [i]'s selector
   [s_i], and [2 (nf + i)] the assumption that selects it.  A query's
   assumptions are the selectors of its clauses, then its assumed
   formula literals. *)

let bits = Sys.int_size

(* Clause kinds, per input clause. *)
let normal = '\000'
let tautology = '\001'
let empty = '\002'

type t = {
  nf : int;
  vars : int array;  (* ascending *)
  nclauses : int;
  words : int;  (* of a clause bitset *)
  kind : Bytes.t;
  ninput : int;  (* normal input clauses: the first [ninput] of [db] *)
  (* Search state. *)
  lval : Bytes.t;  (* per literal: '\000' unassigned, '\001' true, '\002' false *)
  level : int array;
  reason : int array;  (* per variable: the clause that implied it, or -1 *)
  trail : int array;  (* literals made true, in order *)
  mutable trail_len : int;
  mutable qhead : int;  (* trail literals before this are propagated *)
  mutable lim : int array;  (* per decision level: the trail length it started at *)
  mutable nlevels : int;
  (* Clause store: the normal input clauses, then every learned clause.
     Positions 0 and 1 of a clause are its watched literals, and a
     clause that implied a literal holds it at position 0. *)
  mutable db : int array array;
  mutable ndb : int;
  watches : int array array;  (* per literal: the clauses watching it *)
  wlen : int array;
  (* Branching over the formula's variables: a max-heap on activity, and
     the value each variable last had. *)
  activity : float array;
  mutable var_inc : float;
  heap : int array;
  mutable heap_len : int;
  heap_pos : int array;  (* -1 when out of the heap *)
  phase : Bytes.t;
  (* Scratch. *)
  seen : Bytes.t;  (* per variable *)
  learnt : int array;
  mutable nlearnt : int;
  mutable assumps : int array;
  mutable nassumps : int;
  (* Stored results, newest first: each model with the clauses it
     falsifies, and each core. *)
  mutable models : (Bytes.t * int array) list;
  mutable cores : int array list;
  mutable last_model : Bytes.t;
  mutable last_core : int array;
}

(* ------------------------------------------------------------------ *)
(* Clause bitsets.                                                      *)

let selection t = Array.make t.words 0
let mem sel i = sel.(i / bits) land (1 lsl (i mod bits)) <> 0
let select sel i = sel.(i / bits) <- sel.(i / bits) lor (1 lsl (i mod bits))

let disjoint a b =
  let w = ref 0 in
  while !w < Array.length a && a.(!w) land b.(!w) = 0 do
    incr w
  done;
  !w = Array.length a

let subset a b =
  let w = ref 0 in
  while !w < Array.length a && a.(!w) land lnot b.(!w) = 0 do
    incr w
  done;
  !w = Array.length a

(* ------------------------------------------------------------------ *)
(* Assignment, watches and propagation.                                 *)

let lit_true t l = Bytes.unsafe_get t.lval l = '\001'
let lit_false t l = Bytes.unsafe_get t.lval l = '\002'

let enqueue t l r =
  Bytes.unsafe_set t.lval l '\001';
  Bytes.unsafe_set t.lval (l lxor 1) '\002';
  let v = l lsr 1 in
  t.level.(v) <- t.nlevels;
  t.reason.(v) <- r;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let watch t l cr =
  let n = t.wlen.(l) in
  if n = Array.length t.watches.(l) then begin
    let grown = Array.make (Int.max 4 (2 * n)) 0 in
    Array.blit t.watches.(l) 0 grown 0 n;
    t.watches.(l) <- grown
  end;
  t.watches.(l).(n) <- cr;
  t.wlen.(l) <- n + 1

let add_clause t c =
  if t.ndb = Array.length t.db then begin
    let grown = Array.make (Int.max 16 (2 * t.ndb)) [||] in
    Array.blit t.db 0 grown 0 t.ndb;
    t.db <- grown
  end;
  let cr = t.ndb in
  t.db.(cr) <- c;
  t.ndb <- cr + 1;
  watch t c.(0) cr;
  watch t c.(1) cr;
  cr

(* Make each queued literal's negation false in the clauses watching it.
   A clause keeps a watch on a literal that is not false where it has
   one; a clause left with one unassigned literal implies it, moved to
   position 0; one left with none is the conflict, returned.  -1 when
   the queue drains without a conflict. *)
let propagate t =
  let confl = ref (-1) in
  while !confl < 0 && t.qhead < t.trail_len do
    let false_lit = t.trail.(t.qhead) lxor 1 in
    t.qhead <- t.qhead + 1;
    (* A new watch is never [false_lit], so this list is not grown
       while it is scanned. *)
    let ws = t.watches.(false_lit) in
    let n = t.wlen.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = ws.(!i) in
      incr i;
      let c = t.db.(cr) in
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      let first = c.(0) in
      if lit_true t first then begin
        ws.(!j) <- cr;
        incr j
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && lit_false t c.(!k) do
          incr k
        done;
        if !k < len then begin
          c.(1) <- c.(!k);
          c.(!k) <- false_lit;
          watch t c.(1) cr
        end
        else begin
          ws.(!j) <- cr;
          incr j;
          if lit_false t first then begin
            confl := cr;
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr i;
              incr j
            done;
            t.qhead <- t.trail_len
          end
          else enqueue t first cr
        end
      end
    done;
    t.wlen.(false_lit) <- !j
  done;
  !confl

(* ------------------------------------------------------------------ *)
(* Branching heap.                                                      *)

let heap_set t i v =
  t.heap.(i) <- v;
  t.heap_pos.(v) <- i

let heap_up t i =
  let v = t.heap.(i) in
  let a = t.activity.(v) in
  let i = ref i in
  while !i > 0 && t.activity.(t.heap.((!i - 1) / 2)) < a do
    let p = (!i - 1) / 2 in
    heap_set t !i t.heap.(p);
    i := p
  done;
  heap_set t !i v

let heap_down t i =
  let v = t.heap.(i) in
  let a = t.activity.(v) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.heap_len then continue := false
    else begin
      let c =
        if l + 1 < t.heap_len && t.activity.(t.heap.(l + 1)) > t.activity.(t.heap.(l)) then l + 1
        else l
      in
      if t.activity.(t.heap.(c)) > a then begin
        heap_set t !i t.heap.(c);
        i := c
      end
      else continue := false
    end
  done;
  heap_set t !i v

let heap_insert t v =
  heap_set t t.heap_len v;
  t.heap_len <- t.heap_len + 1;
  heap_up t (t.heap_len - 1)

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_len > 0 then begin
    heap_set t 0 t.heap.(t.heap_len);
    heap_down t 0
  end;
  v

(* The most active unassigned formula variable, or -1. *)
let rec pick t =
  if t.heap_len = 0 then -1
  else
    let v = heap_pop t in
    if Bytes.unsafe_get t.lval (2 * v) = '\000' then v else pick t

let bump t v =
  if v < t.nf then begin
    t.activity.(v) <- t.activity.(v) +. t.var_inc;
    if t.activity.(v) > 1e100 then begin
      for u = 0 to t.nf - 1 do
        t.activity.(u) <- t.activity.(u) *. 1e-100
      done;
      t.var_inc <- t.var_inc *. 1e-100
    end;
    if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)
  end

(* ------------------------------------------------------------------ *)
(* Levels.                                                              *)

let new_level t =
  t.lim.(t.nlevels) <- t.trail_len;
  t.nlevels <- t.nlevels + 1

let cancel_until t lvl =
  if t.nlevels > lvl then begin
    let stop = t.lim.(lvl) in
    for k = t.trail_len - 1 downto stop do
      let l = t.trail.(k) in
      let v = l lsr 1 in
      Bytes.unsafe_set t.lval l '\000';
      Bytes.unsafe_set t.lval (l lxor 1) '\000';
      t.reason.(v) <- -1;
      if v < t.nf then begin
        Bytes.unsafe_set t.phase v (if l land 1 = 0 then '\001' else '\000');
        if t.heap_pos.(v) < 0 then heap_insert t v
      end
    done;
    t.trail_len <- stop;
    t.qhead <- stop;
    t.nlevels <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Conflict analysis.                                                   *)

(* First-UIP analysis of conflict clause [confl]: leaves the learned
   clause in [learnt], its asserting literal at position 0 and a literal
   of the highest remaining level at position 1, and returns that level,
   the one to backjump to. *)
let analyze t confl =
  let n = ref 1 and path = ref 0 and p = ref (-1) in
  let idx = ref (t.trail_len - 1) and confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = t.db.(!confl) in
    (* Position 0 of a reason clause is the literal it implied: [p]. *)
    for k = (if !p < 0 then 0 else 1) to Array.length c - 1 do
      let q = c.(k) in
      let v = q lsr 1 in
      if Bytes.unsafe_get t.seen v = '\000' && t.level.(v) > 0 then begin
        Bytes.unsafe_set t.seen v '\001';
        bump t v;
        if t.level.(v) >= t.nlevels then incr path
        else begin
          t.learnt.(!n) <- q;
          incr n
        end
      end
    done;
    while Bytes.unsafe_get t.seen (t.trail.(!idx) lsr 1) = '\000' do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    Bytes.unsafe_set t.seen (!p lsr 1) '\000';
    decr path;
    if !path = 0 then continue := false else confl := t.reason.(!p lsr 1)
  done;
  t.learnt.(0) <- !p lxor 1;
  t.nlearnt <- !n;
  let back = ref 0 and at = ref 1 in
  for k = 1 to !n - 1 do
    let v = t.learnt.(k) lsr 1 in
    Bytes.unsafe_set t.seen v '\000';
    if t.level.(v) > !back then begin
      back := t.level.(v);
      at := k
    end
  done;
  if !n > 1 then begin
    let l = t.learnt.(1) in
    t.learnt.(1) <- t.learnt.(!at);
    t.learnt.(!at) <- l
  end;
  !back

(* The final conflict: assumption [a] is false.  Walk the implication
   graph back from it; the selectors it reaches, with [a] if it is one,
   are the core.  Every decision on the trail is an assumption here:
   formula variables are branched on only once all assumptions hold.  An
   assumed formula literal is reached as a decision too, and joins no
   core. *)
let final_core t a =
  let core = selection t in
  let add x = if x >= t.nf then select core (x - t.nf) in
  add (a lsr 1);
  Bytes.unsafe_set t.seen (a lsr 1) '\001';
  for k = t.trail_len - 1 downto if t.nlevels = 0 then t.trail_len else t.lim.(0) do
    let x = t.trail.(k) lsr 1 in
    if Bytes.unsafe_get t.seen x = '\001' then begin
      (match t.reason.(x) with
      | -1 -> add x
      | r ->
          let c = t.db.(r) in
          for j = 1 to Array.length c - 1 do
            let y = c.(j) lsr 1 in
            if t.level.(y) > 0 then Bytes.unsafe_set t.seen y '\001'
          done);
      Bytes.unsafe_set t.seen x '\000'
    end
  done;
  Bytes.unsafe_set t.seen (a lsr 1) '\000';
  core

(* ------------------------------------------------------------------ *)
(* Search.                                                              *)

(* CDCL under the assumptions [assumps], one decision level each, then
   branching on formula variables.  [true] with every formula variable
   assigned, or [false] with [last_core] set. *)
let search t =
  let result = ref 0 in
  (* 0 searching, 1 satisfiable, 2 unsatisfiable *)
  while !result = 0 do
    let confl = propagate t in
    if confl >= 0 then begin
      if t.nlevels = 0 then begin
        (* Implied by the clause store alone: no assumption is needed. *)
        t.last_core <- selection t;
        result := 2
      end
      else begin
        let back = analyze t confl in
        cancel_until t back;
        let c = Array.sub t.learnt 0 t.nlearnt in
        if Array.length c = 1 then enqueue t c.(0) (-1)
        else enqueue t c.(0) (add_clause t c);
        t.var_inc <- t.var_inc /. 0.95
      end
    end
    else if t.nlevels < t.nassumps then begin
      let a = t.assumps.(t.nlevels) in
      if lit_false t a then begin
        t.last_core <- final_core t a;
        result := 2
      end
      else begin
        let implied = lit_true t a in
        new_level t;
        if not implied then enqueue t a (-1)
      end
    end
    else
      match pick t with
      | -1 -> result := 1
      | v ->
          new_level t;
          enqueue t (if Bytes.unsafe_get t.phase v = '\001' then 2 * v else (2 * v) + 1) (-1)
  done;
  !result = 1

(* A model falsifies every empty clause, and each normal input clause
   whose formula literals are all false; such a clause's one selector
   literal names it. *)
let record_model t =
  let m = Bytes.init t.nf (fun v -> Bytes.unsafe_get t.lval (2 * v)) in
  let falsified = selection t in
  for i = 0 to t.nclauses - 1 do
    if Bytes.unsafe_get t.kind i = empty then select falsified i
  done;
  for cr = 0 to t.ninput - 1 do
    let c = t.db.(cr) in
    let clause = ref (-1) and k = ref 0 in
    while !k < Array.length c && (c.(!k) lsr 1 >= t.nf || lit_false t c.(!k)) do
      if c.(!k) lsr 1 >= t.nf then clause := (c.(!k) lsr 1) - t.nf;
      incr k
    done;
    if !k = Array.length c then select falsified !clause
  done;
  t.models <- (m, falsified) :: t.models;
  t.last_model <- m

(* The number of DIMACS variable [v], or -1 when it does not occur. *)
let number (vars : int array) v =
  let rec find lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      if vars.(mid) = v then mid else if vars.(mid) < v then find (mid + 1) hi else find lo (mid - 1)
  in
  find 0 (Array.length vars - 1)

(* A stored model answers a query with assumed literals only if it agrees
   with each of them; a core found under them is a core of the clauses and
   those literals together, so it is not stored. *)
let satisfiable ?(assuming = []) t sel =
  if Array.length sel <> t.words then invalid_arg "Cdcl.satisfiable: selection of the wrong length";
  let lits =
    List.filter_map
      (fun l ->
        if l = 0 then invalid_arg "Cdcl.satisfiable: literal 0";
        let u = number t.vars (abs l) in
        if u < 0 then None else Some ((2 * u) lor if l > 0 then 0 else 1))
      assuming
  in
  let answers (m, falsified) =
    disjoint falsified sel
    && List.for_all
         (fun l -> Bytes.unsafe_get m (l lsr 1) = if l land 1 = 0 then '\001' else '\002')
         lits
  in
  match List.find_opt answers t.models with
  | Some (m, _) ->
      t.last_model <- m;
      true
  | None -> (
      match List.find_opt (fun core -> subset core sel) t.cores with
      | Some core ->
          t.last_core <- core;
          false
      | None ->
          t.nassumps <- 0;
          if lits <> [] then begin
            (* One level per assumption, then one per formula variable;
               doubled, as a minimization's commitments grow one by one. *)
            let n = t.nclauses + List.length lits in
            if Array.length t.assumps < n then t.assumps <- Array.make (2 * n) 0;
            if Array.length t.lim < n + t.nf + 1 then t.lim <- Array.make ((2 * n) + t.nf + 1) 0
          end;
          let assume a =
            t.assumps.(t.nassumps) <- a;
            t.nassumps <- t.nassumps + 1
          in
          for i = 0 to t.nclauses - 1 do
            if mem sel i && Bytes.unsafe_get t.kind i = normal then assume (2 * (t.nf + i))
          done;
          List.iter assume lits;
          let sat = search t in
          if sat then record_model t else if lits = [] then t.cores <- t.last_core :: t.cores;
          cancel_until t 0;
          sat)

let core t =
  List.filter (mem t.last_core) (List.init t.nclauses Fun.id)

let value t v =
  let u = number t.vars v in
  u >= 0 && u < Bytes.length t.last_model && Bytes.get t.last_model u = '\001'

(* ------------------------------------------------------------------ *)
(* Construction.                                                        *)

let create clauses =
  let nclauses = Array.length clauses in
  (* Number the distinct variables by rank: collect them, sort them, and
     map each to its position. *)
  let numbers = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun l ->
         if l = 0 then invalid_arg "Cdcl.create: literal 0";
         Hashtbl.replace numbers (abs l) 0))
    clauses;
  let vars = Array.of_seq (Hashtbl.to_seq_keys numbers) in
  Array.sort Int.compare vars;
  Array.iteri (fun u v -> Hashtbl.replace numbers v u) vars;
  let nf = Array.length vars in
  let nvars = nf + nclauses in
  let words = (nclauses + bits - 1) / bits in
  let code l = (Hashtbl.find numbers (abs l) lsl 1) lor if l > 0 then 0 else 1 in
  (* Normalise: drop repeated literals, classify tautologies and empty
     clauses.  [mark] holds the literals of the clause being read. *)
  let kind = Bytes.make nclauses normal in
  let orig = Array.make nclauses [||] in  (* a normal clause's literals *)
  let mark = Bytes.make (2 * nf) '\000' in
  Array.iteri
    (fun i c ->
      if Array.length c = 0 then Bytes.set kind i empty
      else begin
        let lits =
          Array.fold_left
            (fun lits l ->
              let l = code l in
              if Bytes.get mark (l lxor 1) = '\001' then Bytes.set kind i tautology;
              if Bytes.get mark l = '\001' then lits
              else begin
                Bytes.set mark l '\001';
                l :: lits
              end)
            [] c
        in
        List.iter (fun l -> Bytes.set mark l '\000') lits;
        if Bytes.get kind i = normal then orig.(i) <- Array.of_list (List.rev lits)
      end)
    clauses;
  let t =
    {
      nf;
      vars;
      nclauses;
      words;
      kind;
      ninput = Bytes.fold_left (fun n k -> if k = normal then n + 1 else n) 0 kind;
      lval = Bytes.make (2 * nvars) '\000';
      level = Array.make nvars 0;
      reason = Array.make nvars (-1);
      trail = Array.make nvars 0;
      trail_len = 0;
      qhead = 0;
      lim = Array.make (nvars + 1) 0;
      nlevels = 0;
      db = [||];
      ndb = 0;
      watches = Array.make (2 * nvars) [||];
      wlen = Array.make (2 * nvars) 0;
      activity = Array.make nf 0.0;
      var_inc = 1.0;
      heap = Array.init nf Fun.id;
      heap_len = nf;
      heap_pos = Array.init nf Fun.id;
      phase = Bytes.make nf '\000';
      seen = Bytes.make nvars '\000';
      learnt = Array.make (nvars + 1) 0;
      nlearnt = 0;
      assumps = Array.make nclauses 0;
      nassumps = 0;
      models = [];
      cores = [];
      last_model = Bytes.empty;
      last_core = [||];
    }
  in
  (* Clause [i] is [C_i ∨ ¬s_i], watched on its first two literals: an
     assumption [s_i] touches only the clauses whose [C_i] is a unit. *)
  for i = 0 to nclauses - 1 do
    if Bytes.get kind i = normal then
      ignore (add_clause t (Array.append orig.(i) [| (2 * (nf + i)) + 1 |]) : int)
  done;
  (* An empty clause is a core on its own, stored from the start. *)
  for i = nclauses - 1 downto 0 do
    if Bytes.get kind i = empty then begin
      let core = selection t in
      select core i;
      t.cores <- core :: t.cores
    end
  done;
  t

let all_satisfiable clauses =
  let t = create clauses in
  let sel = selection t in
  for i = 0 to t.nclauses - 1 do
    select sel i
  done;
  satisfiable t sel
