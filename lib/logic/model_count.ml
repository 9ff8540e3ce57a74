let check_universe cnf over =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun v ->
      if Hashtbl.mem seen v then invalid_arg "Model_count: duplicate variable in ~over";
      Hashtbl.add seen v ())
    over;
  Assignment.iter
    (fun v ->
      if not (Hashtbl.mem seen v) then
        invalid_arg "Model_count: formula mentions a variable outside ~over")
    (Cnf.vars cnf)

let pow2 n =
  if n < 0 || n > 61 then invalid_arg "Model_count: universe too large";
  1 lsl n

let count_naive cnf ~over =
  check_universe cnf over;
  let vars = Array.of_list over in
  let n = Array.length vars in
  let total = pow2 n in
  let count = ref 0 in
  for mask = 0 to total - 1 do
    let m =
      Array.to_list vars
      |> List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
      |> Assignment.of_list
    in
    if Cnf.holds cnf m then incr count
  done;
  !count

(* The DPLL counter proper, over the formula's own clause arrays.  A
   subproblem is a [scope]: the clause indices it owns.  Conditioning on a
   branch variable sets its value and pushes it on an undo trail, undone
   after each branch; a clause's status is read by scanning its literals.
   Free variables not mentioned by any active clause of the scope
   contribute a factor of two each.

   The variable-indexed working sets of one count reuse two arrays: an
   epoch stamp per variable replaces per-call hash tables and int sets,
   so the hot recursion allocates only the component lists it returns.
   Every use bumps [epoch] and completes before any recursive call, so
   one state serves the whole recursion tree. *)
type state = {
  lits : Var.t array;
  starts : int array;
  heads : int array;
  value : Bytes.t;  (* per variable: '\000' unassigned, '\001' true, '\002' false *)
  trail : Var.t array;
  mutable len : int;
  stamp : int array;  (* epoch at which the variable was last touched *)
  data : int array;  (* per-use payload: owning slot, or occurrence count *)
  mutable epoch : int;
}

let assign s v b =
  Bytes.unsafe_set s.value v (if b then '\001' else '\002');
  s.trail.(s.len) <- v;
  s.len <- s.len + 1

let undo_to s m =
  while s.len > m do
    s.len <- s.len - 1;
    Bytes.unsafe_set s.value s.trail.(s.len) '\000'
  done

(* The value of literal [k] of clause [ci], encoded as [value]'s bytes: a
   premise is the negation of its variable. *)
let lit s ci k =
  let b = Bytes.unsafe_get s.value s.lits.(k) in
  if b = '\000' || k >= s.heads.(ci) then b else if b = '\001' then '\002' else '\001'

let active s ci =
  let k = ref s.starts.(ci) and hi = s.starts.(ci + 1) in
  while !k < hi && lit s ci !k <> '\001' do
    incr k
  done;
  !k = hi

(* [-1] when clause [ci] is falsified, the position of its one
   unassigned literal when it is unit, [-2] otherwise. *)
let unit_at s ci =
  let r = ref (-1) and k = ref s.starts.(ci) and hi = s.starts.(ci + 1) in
  while !r <> -2 && !k < hi do
    (match lit s ci !k with
    | '\001' -> r := -2
    | '\000' -> r := if !r = -1 then !k else -2
    | _ -> ());
    incr k
  done;
  !r

let iter_unassigned s ci f =
  for k = s.starts.(ci) to s.starts.(ci + 1) - 1 do
    let v = s.lits.(k) in
    if Bytes.unsafe_get s.value v = '\000' then f v
  done

(* Unit propagation over the scope's clauses, pass after pass until one
   assigns nothing; [false] on a falsified clause. *)
let rec propagate s scope =
  let ok = ref true and changed = ref false in
  List.iter
    (fun ci ->
      if !ok then
        match unit_at s ci with
        | -1 -> ok := false
        | -2 -> ()
        | k ->
            assign s s.lits.(k) (k >= s.heads.(ci));
            changed := true)
    scope;
  if !ok && !changed then propagate s scope else !ok

(* Split the scope's active clauses into connected components (clauses
   linked by shared unassigned variables).  [s.data] holds the slot that
   first claimed each variable in this epoch. *)
let components s scope =
  match scope with
  | [] -> []
  | _ ->
      let arr = Array.of_list scope in
      let n = Array.length arr in
      let parent = Array.init n (fun i -> i) in
      let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
      let union i j =
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      in
      s.epoch <- s.epoch + 1;
      let e = s.epoch in
      Array.iteri
        (fun i ci ->
          iter_unassigned s ci (fun v ->
              if s.stamp.(v) = e then union i s.data.(v)
              else begin
                s.stamp.(v) <- e;
                s.data.(v) <- i
              end))
        arr;
      let buckets = Array.make n [] in
      let roots = ref [] in
      for i = n - 1 downto 0 do
        let r = find i in
        if buckets.(r) = [] then roots := r :: !roots;
        buckets.(r) <- arr.(i) :: buckets.(r)
      done;
      List.rev_map (fun r -> buckets.(r)) !roots

let rec count_scope s scope nfree =
  let m = s.len in
  let result =
    if not (propagate s scope) then 0
    else begin
      let nfree = nfree - (s.len - m) in
      let active = List.filter (active s) scope in
      (* Distinct unassigned variables across the active clauses. *)
      s.epoch <- s.epoch + 1;
      let e = s.epoch in
      let constrained = ref 0 in
      List.iter
        (fun ci ->
          iter_unassigned s ci (fun v ->
              if s.stamp.(v) <> e then begin
                s.stamp.(v) <- e;
                incr constrained
              end))
        active;
      assert (!constrained <= nfree);
      let free_factor = pow2 (nfree - !constrained) in
      if active = [] then free_factor
      else
        let product =
          List.fold_left
            (fun acc comp ->
              if acc = 0 then 0
              else begin
                (* Branch on the most frequent variable of the component;
                   occurrence counts live in the scratch payload.  The
                   exact count is independent of the branch variable, so
                   the first-to-reach-maximum tie-break is free to differ
                   from a hash-order fold. *)
                s.epoch <- s.epoch + 1;
                let e = s.epoch in
                let nv = ref 0 and branch_var = ref (-1) and best = ref 0 in
                List.iter
                  (fun ci ->
                    iter_unassigned s ci (fun v ->
                        let c =
                          if s.stamp.(v) = e then s.data.(v) + 1
                          else begin
                            s.stamp.(v) <- e;
                            incr nv;
                            1
                          end
                        in
                        s.data.(v) <- c;
                        if c > !best then begin
                          best := c;
                          branch_var := v
                        end))
                  comp;
                let branch_var = !branch_var and nv = !nv in
                let branch value =
                  let m2 = s.len in
                  assign s branch_var value;
                  let r = count_scope s comp (nv - 1) in
                  undo_to s m2;
                  r
                in
                acc * (branch true + branch false)
              end)
            1 (components s active)
        in
        free_factor * product
    end
  in
  undo_to s m;
  result

let count cnf ~over =
  check_universe cnf over;
  if Cnf.is_unsat cnf then 0
  else begin
    let nvars = Cnf.max_var cnf + 1 in
    let s =
      {
        lits = Cnf.lits cnf;
        starts = Cnf.starts cnf;
        heads = Cnf.heads cnf;
        value = Bytes.make nvars '\000';
        trail = Array.make nvars 0;
        len = 0;
        stamp = Array.make nvars 0;
        data = Array.make nvars 0;
        epoch = 0;
      }
    in
    count_scope s (List.init (Cnf.num_clauses cnf) Fun.id) (List.length over)
  end
