open Lbr_logic

module Engine = struct
  let bits = Sys.int_size

  (* Everything is a flat array over variable or clause indices, and every
     field is mutable so an {!arena} can reset an engine in place: arrays
     are capacity-sized (length >= the logical bound, [nvars] or
     [nclauses]) and only reallocated when a reset needs more room. *)
  type t = {
    mutable order : Order.t;
    mutable truth : int array;  (* bitset over variable ids, same layout as Assignment *)
    mutable pos_in_trail : int array;  (* var -> trail index, valid while true *)
    mutable in_universe : bool array;
    (* The universe in [order]-ascending order, [sorted.(0) .. sorted.(nsorted
       - 1)]: sorted once by [create], compacted in place by [narrow] (a
       shrunk universe is a subsequence of the old one), walked by
       [sweep]. *)
    mutable sorted : Var.t array;
    mutable nsorted : int;
    mutable nvars : int;
    mutable original_nclauses : int;
    mutable nclauses : int;
    (* The original clauses are the formula's own packed arrays, read in
       place and never written ({!Cnf.lits}): clause [ci]'s premises are
       [lits.(starts.(ci)) .. lits.(heads.(ci) - 1)] and its heads
       [lits.(heads.(ci)) .. lits.(starts.(ci + 1) - 1)].  A clause with a
       premise outside the universe can never complete (that premise is
       fixed false), so it is simply never watched or listed; heads outside
       the universe are never true and never chosen. *)
    mutable lits : Var.t array;
    mutable starts : int array;
    mutable heads : int array;
    (* var -> original clauses whose one premise it is, in decreasing
       clause order (CSR).  Such a clause completes exactly when that
       premise drains, so it needs no watch: [drain] reads this static
       list instead. *)
    mutable sp_off : int array;
    mutable sp_data : int array;
    (* Learned clauses (premise-free, appended past [original_nclauses]):
       clause [original_nclauses + j]'s heads live at
       [lhead_data.(lhead_off.(j)) .. lhead_data.(lhead_off.(j+1) - 1)]. *)
    mutable lhead_off : int array;
    mutable lhead_data : Var.t array;
    mutable satisfied : bool array;  (* original + learned, indexed by clause *)
    (* Watched-premise lists.  Each original clause with at least two
       premises watches exactly one premise that is not yet drained; the
       per-variable watcher lists are singly linked through the clauses:
       [watch_head.(v)] is the first watching clause (or -1) and
       [watch_next.(ci)] the next one.  [watch_slot.(ci)] indexes
       [lits] at the watched premise, so membership is implicit: clause
       [ci] is on the list of [lits.(watch_slot.(ci))]. *)
    mutable watch_head : int array;
    mutable watch_next : int array;
    mutable watch_slot : int array;
    mutable fire_buf : int array;  (* scratch: clauses completed by one drain step *)
    (* The original clauses without premises, ascending: [zero_prem.(0) ..
       zero_prem.(nzero - 1)]. *)
    mutable zero_prem : int array;
    mutable nzero : int;
    (* Propagation trail: variables in the order they were made true.  The
       pending queue is the suffix [trail.(drained) .. trail.(trail_len - 1)]
       — a variable enters the trail exactly when it turns true, and [drain]
       consumes in FIFO order, so no separate queue is needed. *)
    mutable trail : Var.t array;
    mutable trail_len : int;
    mutable drained : int;
    (* [sweep]'s marks: the trail position before its first assumption and
       after each one. *)
    mutable ends : int array;
    (* Bumped whenever [trail] or [ends] may next be overwritten in place —
       a [narrow], a reset by [create], a [sweep] — so a reader
       of the live buffers can tell whether what it read is still there. *)
    mutable epoch : int;
    mutable conflicted : bool;
    mutable watch_visits : int;  (* watcher-list nodes visited since the last flush *)
  }

  (* A pool of dead engines: [create ?arena] pops one and resets it in
     place, reallocating only the arrays whose capacity no longer fits, so
     per-iteration engine churn costs array fills instead of fresh solver
     state. *)
  type arena = { mutable pool : t list }

  let max_var cnf universe =
    Assignment.fold (fun v m -> Int.max v m) universe (Cnf.max_var cnf)

  let[@inline] is_true t v =
    v < t.nvars && t.truth.(v / bits) land (1 lsl (v mod bits)) <> 0

  let true_set t = Assignment.of_words t.truth

  let trail t = t.trail
  let ends t = t.ends
  let epoch t = t.epoch

  let flush_counters t =
    if t.watch_visits > 0 then begin
      Perf.add "sat.watch-visits" t.watch_visits;
      t.watch_visits <- 0
    end

  (* Turn [v] true and append it to the trail for propagation. *)
  let[@inline] set_true t v =
    if t.truth.(v / bits) land (1 lsl (v mod bits)) = 0 then begin
      t.truth.(v / bits) <- t.truth.(v / bits) lor (1 lsl (v mod bits));
      t.pos_in_trail.(v) <- t.trail_len;
      t.trail.(t.trail_len) <- v;
      t.trail_len <- t.trail_len + 1
    end

  (* Clause [ci]'s heads are [data.(lo) .. data.(hi - 1)] with [data] the
     formula's literal array or the learned head array; the scans below
     take the three apart so no tuple is built per clause. *)
  let[@inline] exists_true_in t data lo hi =
    let i = ref lo in
    while !i < hi && not (is_true t data.(!i)) do
      incr i
    done;
    !i < hi

  let[@inline] exists_true_head t ci =
    if ci < t.original_nclauses then
      exists_true_in t t.lits t.heads.(ci) t.starts.(ci + 1)
    else
      let j = ci - t.original_nclauses in
      exists_true_in t t.lhead_data t.lhead_off.(j) t.lhead_off.(j + 1)

  (* The [<]-smallest in-universe head, or -1.  First strictly-smaller rank
     wins, matching the order the heads were stored in (ascending variable
     id within the clause). *)
  let[@inline] best_head_in t data lo hi =
    let best = ref (-1) and best_rank = ref 0 in
    for i = lo to hi - 1 do
      let h = data.(i) in
      if t.in_universe.(h) then begin
        let r = Order.rank t.order h in
        if !best < 0 || r < !best_rank then begin
          best := h;
          best_rank := r
        end
      end
    done;
    !best

  (* A clause whose premises are all drained and whose satisfied flag is
     unset: choose the [<]-smallest head, or conflict when there is none.
     The satisfied flag is a pure cache of "some head is true": a head may
     already be true but still sitting in the pending suffix, so recheck
     before choosing.  An original clause's heads are read unfiltered from
     the formula, and [narrow] shrinks the universe, hence the in-universe
     check. *)
  let[@inline] trigger t ci =
    if not t.satisfied.(ci) then begin
      if exists_true_head t ci then t.satisfied.(ci) <- true
      else begin
        let best =
          if ci < t.original_nclauses then
            best_head_in t t.lits t.heads.(ci) t.starts.(ci + 1)
          else
            let j = ci - t.original_nclauses in
            best_head_in t t.lhead_data t.lhead_off.(j) t.lhead_off.(j + 1)
        in
        if best < 0 then t.conflicted <- true
        else begin
          t.satisfied.(ci) <- true;
          set_true t best
        end
      end
    end

  (* Sort the completed-clause batch into decreasing clause order: the old
     occurrence scan visited clauses in decreasing index per drained
     variable, multi-head choices depend on that firing order, and the
     watcher lists present clauses in whatever order watch moves left them.
     Batches are almost always tiny, so insertion sort. *)
  let sort_desc a len =
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) < x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

  (* Propagate the pending trail suffix.  Draining a variable visits only
     the multi-premise clauses watching it: each either moves its watch to
     another undrained premise (false, or true but still pending) or has
     every premise drained and completes.  A completed clause keeps
     watching the variable that completed it: [narrow] turns every
     variable false again, so the watch invariant (every watch rests on
     an undrained premise) holds again after it with no repair.  The
     variable's single-premise clauses complete with it; both lists are in
     decreasing clause order, and merging them fires the whole batch in
     that order, as the one occurrence scan did. *)
  let drain t =
    while (not t.conflicted) && t.drained < t.trail_len do
      let v = t.trail.(t.drained) in
      t.drained <- t.drained + 1;
      let fire_len = ref 0 in
      let c = ref t.watch_head.(v) in
      if !c >= 0 then begin
        t.watch_head.(v) <- -1;
        while !c >= 0 do
          let ci = !c in
          t.watch_visits <- t.watch_visits + 1;
          let next = t.watch_next.(ci) in
          let lo = t.starts.(ci) and hi = t.heads.(ci) in
          let len = hi - lo in
          (* Scan circularly from just past the stale watch so repeated
             repairs of one clause sweep its premises once overall. *)
          let start = t.watch_slot.(ci) + 1 in
          let slot = ref (-1) in
          let k = ref 0 in
          while !slot < 0 && !k < len do
            let p = start + !k in
            let i = if p >= hi then p - len else p in
            let u = t.lits.(i) in
            if (not (is_true t u)) || t.pos_in_trail.(u) >= t.drained then
              slot := i;
            incr k
          done;
          if !slot >= 0 then begin
            t.watch_slot.(ci) <- !slot;
            let w = t.lits.(!slot) in
            t.watch_next.(ci) <- t.watch_head.(w);
            t.watch_head.(w) <- ci
          end
          else begin
            (* Every premise drained: keep watching [v] (see above) and
               queue the clause for firing. *)
            t.watch_next.(ci) <- t.watch_head.(v);
            t.watch_head.(v) <- ci;
            t.fire_buf.(!fire_len) <- ci;
            incr fire_len
          end;
          c := next
        done;
        sort_desc t.fire_buf !fire_len
      end;
      (* Fire the whole merged batch even through a conflict, exactly as
         the occurrence scan kept decrementing and triggering to the end of
         the drained variable's clause list. *)
      let i = ref 0 and k = ref t.sp_off.(v) in
      let sp_end = t.sp_off.(v + 1) in
      while !i < !fire_len || !k < sp_end do
        if !k >= sp_end || (!i < !fire_len && t.fire_buf.(!i) > t.sp_data.(!k)) then begin
          trigger t t.fire_buf.(!i);
          incr i
        end
        else begin
          trigger t t.sp_data.(!k);
          incr k
        end
      done
    done

  let fresh_shell order =
    {
      order;
      truth = [||];
      pos_in_trail = [||];
      in_universe = [||];
      sorted = [||];
      nsorted = 0;
      nvars = 0;
      original_nclauses = 0;
      nclauses = 0;
      lits = [||];
      starts = [| 0 |];
      heads = [||];
      sp_off = [| 0 |];
      sp_data = [||];
      lhead_off = [| 0 |];
      lhead_data = [||];
      satisfied = [||];
      watch_head = [||];
      watch_next = [||];
      watch_slot = [||];
      fire_buf = [||];
      zero_prem = [||];
      nzero = 0;
      trail = [||];
      trail_len = 0;
      drained = 0;
      ends = [||];
      epoch = 0;
      conflicted = false;
      watch_visits = 0;
    }

  let grab_int a len = if Array.length a < len then Array.make len 0 else a
  let grab_bool a len = if Array.length a < len then Array.make len false else a

  (* Bitset enumeration lists the universe by ascending id, which is
     already [order] for [Order.by_creation]; any other order is sorted
     once here, stably by rank, as [Order.sort] would. *)
  let sort_universe t =
    let rank = Order.rank t.order and a = t.sorted in
    let rec ascending i prev =
      i >= t.nsorted
      ||
      let r = rank a.(i) in
      prev <= r && ascending (i + 1) r
    in
    if t.nsorted > 1 && not (ascending 1 (rank a.(0))) then begin
      (* Rank each variable once, not twice per comparison. *)
      let vars = Array.sub a 0 t.nsorted in
      let ranks = Array.map rank vars and by_rank = Array.init t.nsorted Fun.id in
      Array.stable_sort (fun i j -> Int.compare ranks.(i) ranks.(j)) by_rank;
      Array.iteri (fun k i -> a.(k) <- vars.(i)) by_rank
    end

  (* Turn per-variable counts [off.(0) .. off.(n - 1)] into bucket ends. *)
  let bucket_ends off n =
    let sum = ref 0 in
    for v = 0 to n - 1 do
      sum := !sum + off.(v);
      off.(v) <- !sum
    done;
    off.(n) <- !sum

  (* Whether every variable of [vs.(i) .. vs.(hi - 1)] is in the universe. *)
  let rec all_in in_universe (vs : int array) i hi =
    i >= hi || (in_universe.(vs.(i)) && all_in in_universe vs (i + 1) hi)

  let create ?arena cnf ~order ~universe =
    Lbr_obs.Trace.with_span "sat.engine-create"
      ~args:(fun () ->
        [ ("universe", Lbr_obs.Trace.Int (Assignment.cardinal universe)) ])
    @@ fun () ->
    Perf.time "sat.engine-create" @@ fun () ->
    let t =
      match arena with
      | Some a -> (
          match a.pool with
          | e :: rest ->
              a.pool <- rest;
              Perf.add "sat.arena-reuse" 1;
              e
          | [] -> fresh_shell order)
      | None -> fresh_shell order
    in
    t.order <- order;
    let n = max_var cnf universe + 1 in
    let words = (n + bits - 1) / bits in
    t.truth <- grab_int t.truth words;
    (* Invariant: truth words beyond the logical prefix stay zero.  [true_set]
       reads the physical array, and a recycled shell from a larger reduction
       would otherwise leak its stale bits into this one's assignments. *)
    Array.fill t.truth 0 (Array.length t.truth) 0;
    t.in_universe <- grab_bool t.in_universe n;
    Array.fill t.in_universe 0 n false;
    t.sorted <- grab_int t.sorted n;
    t.nsorted <- 0;
    Assignment.iter
      (fun v ->
        t.in_universe.(v) <- true;
        t.sorted.(t.nsorted) <- v;
        t.nsorted <- t.nsorted + 1)
      universe;
    sort_universe t;
    t.pos_in_trail <- grab_int t.pos_in_trail n;
    t.trail <- grab_int t.trail n;
    t.ends <- grab_int t.ends (n + 1);
    t.epoch <- t.epoch + 1;
    t.watch_head <- grab_int t.watch_head n;
    Array.fill t.watch_head 0 n (-1);
    t.sp_off <- grab_int t.sp_off (n + 1);
    Array.fill t.sp_off 0 (n + 1) 0;
    t.nvars <- n;
    let lits = Cnf.lits cnf and starts = Cnf.starts cnf and heads = Cnf.heads cnf in
    let nc = Array.length heads in
    t.lits <- lits;
    t.starts <- starts;
    t.heads <- heads;
    t.original_nclauses <- nc;
    t.nclauses <- nc;
    t.satisfied <- grab_bool t.satisfied nc;
    Array.fill t.satisfied 0 nc false;
    t.watch_next <- grab_int t.watch_next nc;
    t.watch_slot <- grab_int t.watch_slot nc;
    t.fire_buf <- grab_int t.fire_buf nc;
    t.lhead_off <- grab_int t.lhead_off 1;
    t.lhead_off.(0) <- 0;
    (* Count the single-premise clauses per in-universe premise, then
       prefix-sum the counts to bucket ends: the pass below fills each
       bucket back to front while walking clauses in increasing index, so
       a bucket read forward lists clauses in decreasing index — the
       firing order [drain] keeps — and [sp_off.(v)] lands on the bucket
       start. *)
    let in_universe = t.in_universe and sp_off = t.sp_off in
    let tot_sp = ref 0 in
    for c = 0 to nc - 1 do
      let lo = starts.(c) in
      if heads.(c) - lo = 1 && in_universe.(lits.(lo)) then begin
        incr tot_sp;
        sp_off.(lits.(lo)) <- sp_off.(lits.(lo)) + 1
      end
    done;
    bucket_ends sp_off n;
    t.sp_data <- grab_int t.sp_data !tot_sp;
    let sp_data = t.sp_data in
    (* Fill the single-premise buckets and set the initial watches, for
       clauses of two or more premises all inside the universe: the first
       premise — every variable is false, so any premise is undrained.
       Clauses without premises are listed instead. *)
    t.nzero <- 0;
    for c = 0 to nc - 1 do
      let lo = starts.(c) and h = heads.(c) in
      let premises = h - lo in
      if premises = 1 then begin
        let p = lits.(lo) in
        if in_universe.(p) then begin
          sp_off.(p) <- sp_off.(p) - 1;
          sp_data.(sp_off.(p)) <- c
        end
      end
      else if premises > 1 then begin
        if all_in in_universe lits lo h then begin
          let v = lits.(lo) in
          t.watch_slot.(c) <- lo;
          t.watch_next.(c) <- t.watch_head.(v);
          t.watch_head.(v) <- c
        end
      end
      else begin
        if t.nzero = Array.length t.zero_prem then begin
          let grown = Array.make (Int.max 16 (2 * t.nzero)) 0 in
          Array.blit t.zero_prem 0 grown 0 t.nzero;
          t.zero_prem <- grown
        end;
        t.zero_prem.(t.nzero) <- c;
        t.nzero <- t.nzero + 1
      end
    done;
    t.trail_len <- 0;
    t.drained <- 0;
    t.conflicted <- Cnf.is_unsat cnf;
    t.watch_visits <- 0;
    (* Zero-premise clauses fire immediately. *)
    for k = 0 to t.nzero - 1 do
      trigger t t.zero_prem.(k)
    done;
    drain t;
    flush_counters t;
    if t.conflicted then begin
      (* The shell is still reusable: hand it straight back. *)
      (match arena with Some a -> a.pool <- t :: a.pool | None -> ());
      Error `Conflict
    end
    else Ok t

  let assume t v =
    if t.conflicted then Error `Conflict
    else if v >= t.nvars || not t.in_universe.(v) then Error `Conflict
    else begin
      set_true t v;
      drain t;
      if t.conflicted then Error `Conflict else Ok ()
    end

  let sweep t =
    t.epoch <- t.epoch + 1;
    if t.conflicted then Error `Conflict
    else begin
      t.ends.(0) <- t.trail_len;
      let len = ref 1 and i = ref 0 in
      while (not t.conflicted) && !i < t.nsorted do
        let v = t.sorted.(!i) in
        if not (is_true t v) then begin
          set_true t v;
          drain t;
          t.ends.(!len) <- t.trail_len;
          incr len
        end;
        incr i
      done;
      flush_counters t;
      if t.conflicted then Error `Conflict else Ok !len
    end

  let assume_all t vs =
    List.fold_left
      (fun acc v -> match acc with Error _ as e -> e | Ok () -> assume t v)
      (Ok ()) vs

  let add_clause_sub t (pos : Var.t array) lo hi =
    if lo < 0 || hi > Array.length pos || lo > hi then
      invalid_arg "Msa.Engine.add_clause_sub: slice out of bounds";
    Lbr_obs.Trace.with_span "sat.engine-add-clause"
      ~args:(fun () -> [ ("literals", Lbr_obs.Trace.Int (hi - lo)) ])
    @@ fun () ->
    Perf.time "sat.engine-add-clause" @@ fun () ->
    if t.conflicted then Error `Conflict
    else begin
      let j = t.nclauses - t.original_nclauses in
      if j + 2 > Array.length t.lhead_off then begin
        let a = Array.make (Int.max 8 (2 * Array.length t.lhead_off)) 0 in
        Array.blit t.lhead_off 0 a 0 (j + 1);
        t.lhead_off <- a
      end;
      let base = t.lhead_off.(j) in
      let cap_needed = base + (hi - lo) in
      if cap_needed > Array.length t.lhead_data then begin
        let a = Array.make (Int.max 16 (Int.max cap_needed (2 * Array.length t.lhead_data))) 0 in
        Array.blit t.lhead_data 0 a 0 base;
        t.lhead_data <- a
      end;
      (* Variables outside the universe (or past it) are fixed to false:
         they cannot serve as heads, exactly as [create] restricts. *)
      let cursor = ref base in
      for i = lo to hi - 1 do
        let v = pos.(i) in
        if v >= 0 && v < t.nvars && t.in_universe.(v) then begin
          t.lhead_data.(!cursor) <- v;
          incr cursor
        end
      done;
      t.lhead_off.(j + 1) <- !cursor;
      let ci = t.nclauses in
      t.nclauses <- ci + 1;
      if ci >= Array.length t.satisfied then begin
        let a = Array.make (Int.max 8 (2 * Array.length t.satisfied)) false in
        Array.blit t.satisfied 0 a 0 ci;
        t.satisfied <- a
      end;
      t.satisfied.(ci) <- false;
      (* Integrate into the current fixpoint. *)
      trigger t ci;
      drain t;
      flush_counters t;
      if t.conflicted then Error `Conflict else Ok ()
    end

  let add_clause t ~pos =
    let a = Array.of_list pos in
    add_clause_sub t a 0 (Array.length a)

  (* Propagate the virgin state in the canonical rebuild order.  [r_plus]
     prepends learned clauses oldest-first, so a fresh [create] on the
     rebuilt formula triggers learned zero-premise clauses (oldest to
     newest) before the original ones — multi-head choices depend on that
     order, and replicating it keeps narrow-then-build byte-identical to the
     rebuild oracle. *)
  let reinit t =
    for ci = t.original_nclauses to t.nclauses - 1 do
      trigger t ci
    done;
    for k = 0 to t.nzero - 1 do
      trigger t t.zero_prem.(k)
    done;
    drain t

  (* Turn every variable false again.  A satisfied flag is only ever set
     with a true head as witness, so with nothing true every flag clears.
     Watches need no repair: every watch rests on a variable that is now
     false, hence undrained. *)
  let reset_trail t =
    for i = 0 to t.trail_len - 1 do
      let v = t.trail.(i) in
      t.truth.(v / bits) <- t.truth.(v / bits) land lnot (1 lsl (v mod bits))
    done;
    Array.fill t.satisfied 0 t.nclauses false;
    t.trail_len <- 0;
    t.drained <- 0;
    t.epoch <- t.epoch + 1

  let narrow t ~keep =
    Lbr_obs.Trace.with_span "sat.engine-narrow"
      ~args:(fun () -> [ ("keep", Lbr_obs.Trace.Int (Assignment.cardinal keep)) ])
    @@ fun () ->
    Perf.time "sat.engine-narrow" @@ fun () ->
    if t.conflicted then Error `Conflict
    else begin
      reset_trail t;
      let k = ref 0 in
      for i = 0 to t.nsorted - 1 do
        let v = t.sorted.(i) in
        if Assignment.mem v keep then begin
          t.sorted.(!k) <- v;
          incr k
        end
        else t.in_universe.(v) <- false
      done;
      t.nsorted <- !k;
      reinit t;
      flush_counters t;
      if t.conflicted then Error `Conflict else Ok ()
    end
end

module Arena = struct
  type t = Engine.arena

  let create () : t = { Engine.pool = [] }

  let release (a : t) (e : Engine.t) =
    Engine.flush_counters e;
    a.Engine.pool <- e :: a.Engine.pool

  let key = Domain.DLS.new_key create
  let default () : t = Domain.DLS.get key
end

let compute cnf ~order ?universe ?(required = Assignment.empty) () =
  let universe =
    match universe with
    | Some u -> u
    | None -> Assignment.union (Cnf.vars cnf) required
  in
  if not (Assignment.subset required universe) then None
  else
    let arena = Arena.default () in
    let fast =
      match Engine.create ~arena cnf ~order ~universe with
      | Error `Conflict -> None
      | Ok engine ->
          let result =
            match Engine.assume_all engine (Assignment.to_list required) with
            | Ok () -> Some (Engine.true_set engine)
            | Error `Conflict -> None
          in
          Arena.release arena engine;
          result
    in
    match fast with
    | Some _ as result -> result
    | None ->
        (* Fallback: a solved model, then greedy minimization.  Reached only for
           formulas outside the implication fragment. *)
        let restricted = Cnf.restrict cnf ~keep:universe in
        (match Solver.solve_with restricted ~required with
        | None -> None
        | Some model ->
            Some (Solver.minimize restricted ~order ~required ~model))
