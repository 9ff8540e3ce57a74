type path = int list

type candidate = { def : int; member : int; path : path }

(* All queries are pure functions of the pool, and one constraint
   generation (or validity check) asks the same questions about the same
   hierarchy hundreds of times.  A context interns the pool's class names
   once — the pool's classes first, in [Classpool.classes] order, then every
   other name an edge points at — and keeps adjacency, reachability and
   memoized answers in arrays keyed by class id.  [id] hashes a name, once
   per reference a caller resolves; past it no query hashes or compares a
   class name. *)
module Names = Hashtbl.Make (String)

module Ctx = struct
  type t = {
    classes : Classfile.cls array;  (* ids [0, pool_size) *)
    names : string array;  (* every interned id *)
    ids : int Names.t;
    (* Out-edges of pool class [x] are the ids [first_edge.(x) ..
       first_edge.(x + 1) - 1]: the extends edge when the superclass is
       internal, then one edge per listed interface.  Other ids have none. *)
    first_edge : int array;
    edge_dst : int array;
    (* Supertypes of [x] in DFS visit order; [unset] until asked for. *)
    reach : int array array;
    mark : int array;
    mutable stamp : int;
    (* Per destination, per node: 0 unknown, 1 reaches it, 2 does not. *)
    reaches : Bytes.t array;
    meths : (string * bool * candidate list) list array;
    fields : (string * candidate list) list array;
    (* Per pool class, its methods as an array; [no_methods] until asked
       for. *)
    methods : Classfile.meth array array;
    (* The edges of the path being enumerated, from the source (or the
       supertypes being collected), grown as needed. *)
    mutable stack : int array;
    mutable found : int;  (* paths found by the enumeration under way *)
  }

  let unset = [| -1 |]
  let no_methods : Classfile.meth array = [||]

  let create pool =
    let classes = Array.of_list (Classpool.classes pool) in
    let n_pool = Array.length classes in
    let ids = Names.create n_pool in
    let names = ref [] in
    let count = ref 0 in
    let intern name =
      match Names.find_opt ids name with
      | Some i -> i
      | None ->
          let i = !count in
          incr count;
          Names.add ids name i;
          names := name :: !names;
          i
    in
    Array.iter (fun (c : Classfile.cls) -> ignore (intern c.name)) classes;
    let first_edge = Array.make (n_pool + 1) 0 in
    let dsts = ref [] in
    let n_edges = ref 0 in
    let add target =
      dsts := intern target :: !dsts;
      incr n_edges
    in
    Array.iteri
      (fun x (c : Classfile.cls) ->
        first_edge.(x) <- !n_edges;
        if (not c.is_interface) && not (Classfile.is_external c.super) then add c.super;
        List.iter add c.interfaces)
      classes;
    first_edge.(n_pool) <- !n_edges;
    let names = Array.of_list (List.rev !names) in
    let n = Array.length names in
    {
      classes;
      names;
      ids;
      first_edge;
      edge_dst = Array.of_list (List.rev !dsts);
      reach = Array.make n_pool unset;
      mark = Array.make n 0;
      stamp = 0;
      reaches = Array.make n Bytes.empty;
      meths = Array.make n_pool [];
      fields = Array.make n_pool [];
      methods = Array.make n_pool no_methods;
      stack = Array.make 16 0;
      found = 0;
    }

  let pool_size t = Array.length t.classes
  let id t name = try Names.find t.ids name with Not_found -> -1
  let name t x = t.names.(x)
  let cls t x = t.classes.(x)
  let in_pool t x = x >= 0 && x < Array.length t.classes
  let is_external t x = Classfile.is_external t.names.(x)

  let first_edge t x = if in_pool t x then t.first_edge.(x) else 0
  let last_edge t x = if in_pool t x then t.first_edge.(x + 1) - 1 else -1

  let methods t x =
    let ms = t.methods.(x) in
    if ms != no_methods then ms
    else begin
      let ms = Array.of_list t.classes.(x).methods in
      t.methods.(x) <- ms;
      ms
    end

  let iter_closure_edges t x f =
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    let rec visit y =
      if t.mark.(y) <> stamp then begin
        t.mark.(y) <- stamp;
        for e = first_edge t y to last_edge t y do
          f e;
          visit t.edge_dst.(e)
        done
      end
    in
    visit x

  (* [t.stack.(depth) <- e], growing the stack as needed. *)
  let push_edge t depth e =
    if depth = Array.length t.stack then begin
      let grown = Array.make (2 * depth) 0 in
      Array.blit t.stack 0 grown 0 depth;
      t.stack <- grown
    end;
    t.stack.(depth) <- e

  let supertypes t x =
    if not (in_pool t x) then [||]
    else if t.reach.(x) != unset then t.reach.(x)
    else begin
      t.stamp <- t.stamp + 1;
      let stamp = t.stamp in
      let count = ref 0 in
      let rec dfs y =
        for e = first_edge t y to last_edge t y do
          let target = t.edge_dst.(e) in
          if t.mark.(target) <> stamp then begin
            t.mark.(target) <- stamp;
            push_edge t !count target;
            incr count;
            dfs target
          end
        done
      in
      t.mark.(x) <- stamp;
      dfs x;
      let r = Array.sub t.stack 0 !count in
      t.reach.(x) <- r;
      r
    end

  (* The supertype DAG can contain exponentially many paths (diamonds stack
     multiplicatively), so path enumeration is pruned by a memoized
     can-reach-destination test — dead branches are never entered — and
     capped at [max_paths] results.  Dropping paths only strengthens the
     generated constraints (fewer witnesses in a disjunction), which
     preserves soundness.  A node is marked "does not reach" while its own
     test is running, so a cyclic hierarchy still terminates. *)
  let rec reaches t memo dst x =
    match Bytes.unsafe_get memo x with
    | '\001' -> true
    | '\002' -> false
    | _ ->
        Bytes.unsafe_set memo x '\002';
        let b = x = dst || any_reaches t memo dst (first_edge t x) (last_edge t x) in
        if b then Bytes.unsafe_set memo x '\001';
        b

  and any_reaches t memo dst e last =
    e <= last && (reaches t memo dst t.edge_dst.(e) || any_reaches t memo dst (e + 1) last)

  (* [f def member stack len] per path, [def] and [member] passed through
     so that resolution needs no closure per witness. *)
  let rec walk_paths t memo dst max_paths f def member x depth =
    if t.found < max_paths then begin
      if x = dst then begin
        t.found <- t.found + 1;
        f def member t.stack depth
      end
      else
        for e = first_edge t x to last_edge t x do
          let target = t.edge_dst.(e) in
          if reaches t memo dst target then begin
            push_edge t depth e;
            walk_paths t memo dst max_paths f def member target (depth + 1)
          end
        done
    end

  let paths_through t ~src ~dst ~max_paths f def member =
    if src < 0 || dst < 0 then 0
    else begin
      let memo =
        if Bytes.length t.reaches.(dst) > 0 then t.reaches.(dst)
        else begin
          let m = Bytes.make (Array.length t.names) '\000' in
          t.reaches.(dst) <- m;
          m
        end
      in
      t.found <- 0;
      if reaches t memo dst src then walk_paths t memo dst max_paths f def member src 0;
      t.found
    end

  let iter_paths t ~src ~dst ~max_paths f =
    paths_through t ~src ~dst ~max_paths (fun _ _ stack len -> f stack len) 0 0

  (* [stack.(0) .. stack.(i)] consed onto [acc]. *)
  let rec list_of (stack : int array) i acc =
    if i < 0 then acc else list_of stack (i - 1) (stack.(i) :: acc)

  (* Per-destination path budget for resolution witnesses, and for subtype
     witnesses. *)
  let candidate_paths = 2
  let subtype_max_paths = 3

  let subtype_paths t ~sub ~sup =
    let acc = ref [] in
    ignore
      (iter_paths t ~src:sub ~dst:sup ~max_paths:subtype_max_paths (fun stack len ->
           acc := list_of stack (len - 1) [] :: !acc));
    List.rev !acc

  let iter_subtype_paths t ~sub ~sup f =
    ignore (iter_paths t ~src:sub ~dst:sup ~max_paths:subtype_max_paths f)

  (* The index of the first method called [meth], if its staticness
     matches. *)
  let rec find_method meth static i = function
    | [] -> -1
    | (m : Classfile.meth) :: rest ->
        if String.equal m.m_name meth then if m.m_static = static then i else -1
        else find_method meth static (i + 1) rest

  let rec find_field field i = function
    | [] -> -1
    | (f : Classfile.field) :: rest ->
        if String.equal f.f_name field then i else find_field field (i + 1) rest

  let visit_method t owner meth static f d =
    if in_pool t d then begin
      let member = find_method meth static 0 t.classes.(d).methods in
      if member >= 0 then
        ignore (paths_through t ~src:owner ~dst:d ~max_paths:candidate_paths f d member)
    end

  let iter_method_candidates t ~owner ~meth ~static f =
    if (not (in_pool t owner)) || is_external t owner then f (-1) (-1) t.stack 0
    else begin
      visit_method t owner meth static f owner;
      let sup = supertypes t owner in
      for k = 0 to Array.length sup - 1 do
        visit_method t owner meth static f sup.(k)
      done
    end

  (* Fields resolve on the class chain only, which is a simple path along
     extends edges. *)
  let rec field_chain t field f x depth =
    if in_pool t x then begin
      let c = t.classes.(x) in
      let member = find_field field 0 c.fields in
      if member >= 0 then f x member t.stack depth;
      if (not c.is_interface) && not (Classfile.is_external c.super) then begin
        push_edge t depth t.first_edge.(x);
        field_chain t field f t.edge_dst.(t.first_edge.(x)) (depth + 1)
      end
    end

  let iter_field_candidates t ~owner ~field f =
    if (not (in_pool t owner)) || is_external t owner then f (-1) (-1) t.stack 0
    else field_chain t field f owner 0

  let collect iter =
    let acc = ref [] in
    iter (fun def member stack len -> acc := { def; member; path = list_of stack (len - 1) [] } :: !acc);
    List.rev !acc

  let rec find_memo meth (static : bool) = function
    | [] -> None
    | (m, s, r) :: rest ->
        if s = static && String.equal m meth then Some r else find_memo meth static rest

  let method_candidates t ~owner ~meth ~static =
    let memo = if in_pool t owner then t.meths.(owner) else [] in
    match find_memo meth static memo with
    | Some r -> r
    | None ->
        let r = collect (iter_method_candidates t ~owner ~meth ~static) in
        if in_pool t owner then t.meths.(owner) <- (meth, static, r) :: memo;
        r

  let field_candidates t ~owner ~field =
    let memo = if in_pool t owner then t.fields.(owner) else [] in
    match List.find_opt (fun (f, _) -> String.equal f field) memo with
    | Some (_, r) -> r
    | None ->
        let r = collect (iter_field_candidates t ~owner ~field) in
        if in_pool t owner then t.fields.(owner) <- (field, r) :: memo;
        r

  let iter_abstract_obligations t x f =
    let sup = supertypes t x in
    for k = 0 to Array.length sup - 1 do
      let s = sup.(k) in
      if in_pool t s && (t.classes.(s).is_interface || t.classes.(s).is_abstract) then
        Array.iteri (fun i (m : Classfile.meth) -> if m.m_abstract then f s i) (methods t s)
    done

  let abstract_obligations t x =
    let acc = ref [] in
    iter_abstract_obligations t x (fun s i -> acc := (s, i) :: !acc);
    List.rev !acc

  let check_acyclic t =
    (* Colour-marking DFS over the supertype graph: 0 unvisited, 1 active,
       2 done. *)
    let state = Array.make (Array.length t.names) 0 in
    let rec visit x =
      match state.(x) with
      | 2 -> Ok ()
      | 1 -> Error (Printf.sprintf "cyclic hierarchy through %s" t.names.(x))
      | _ ->
          state.(x) <- 1;
          let last = last_edge t x in
          let rec all e =
            if e > last then Ok ()
            else match visit t.edge_dst.(e) with Ok () -> all (e + 1) | Error _ as err -> err
          in
          let result = all (first_edge t x) in
          state.(x) <- 2;
          result
    in
    let rec classes x =
      if x >= pool_size t then Ok ()
      else match visit x with Ok () -> classes (x + 1) | Error _ as err -> err
    in
    classes 0
end

let super_chain pool start =
  let rec go acc name =
    match Classpool.find pool name with
    | None -> List.rev (name :: acc)
    | Some c -> go (name :: acc) c.Classfile.super
  in
  go [] start
