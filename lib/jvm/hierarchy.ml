type path = int list

type candidate = { def : int; member : int; path : path }

let external_resolution = [ { def = -1; member = -1; path = [] } ]

(* All queries are pure functions of the pool, and one constraint
   generation (or validity check) asks the same questions about the same
   hierarchy hundreds of times.  A context interns the pool's class names
   once — the pool's classes first, in [Classpool.classes] order, then every
   other name an edge points at — and keeps adjacency, reachability and
   memoized answers in arrays keyed by class id, so past the one [id]
   lookup per name no query hashes or compares a class name. *)
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
    (* Enumerated paths per source, keyed by [dst * 4 + max_paths]. *)
    paths : (int * path list) list array;
    meths : (string * bool * candidate list) list array;
    fields : (string * candidate list) list array;
  }

  let unset = [| -1 |]

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
      paths = Array.make n_pool [];
      meths = Array.make n_pool [];
      fields = Array.make n_pool [];
    }

  let pool_size t = Array.length t.classes
  let id t name = match Names.find_opt t.ids name with Some i -> i | None -> -1
  let name t x = t.names.(x)
  let cls t x = t.classes.(x)
  let in_pool t x = x >= 0 && x < Array.length t.classes
  let is_external t x = Classfile.is_external t.names.(x)
  let edge_target t e = t.edge_dst.(e)

  let first_edge t x = if in_pool t x then t.first_edge.(x) else 0
  let last_edge t x = if in_pool t x then t.first_edge.(x + 1) - 1 else -1

  let supertypes t x =
    if not (in_pool t x) then [||]
    else if t.reach.(x) != unset then t.reach.(x)
    else begin
      t.stamp <- t.stamp + 1;
      let stamp = t.stamp in
      let acc = ref [] in
      let rec dfs y =
        for e = first_edge t y to last_edge t y do
          let target = t.edge_dst.(e) in
          if t.mark.(target) <> stamp then begin
            t.mark.(target) <- stamp;
            acc := target :: !acc;
            dfs target
          end
        done
      in
      t.mark.(x) <- stamp;
      dfs x;
      let r = Array.of_list (List.rev !acc) in
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

  let rec collect_paths t memo dst max_paths acc count x rev_path =
    if !count < max_paths then begin
      if x = dst then begin
        incr count;
        acc := List.rev rev_path :: !acc
      end
      else
        for e = first_edge t x to last_edge t x do
          let target = t.edge_dst.(e) in
          if reaches t memo dst target then
            collect_paths t memo dst max_paths acc count target (e :: rev_path)
        done
    end

  let enumerate t ~src ~dst ~max_paths =
    let memo =
      if Bytes.length t.reaches.(dst) > 0 then t.reaches.(dst)
      else begin
        let m = Bytes.make (Array.length t.names) '\000' in
        t.reaches.(dst) <- m;
        m
      end
    in
    if not (reaches t memo dst src) then []
    else begin
      let acc = ref [] in
      collect_paths t memo dst max_paths acc (ref 0) src [];
      List.rev !acc
    end

  let rec assoc_int (key : int) = function
    | [] -> None
    | (k, r) :: rest -> if k = key then Some r else assoc_int key rest

  let paths_to t ~src ~dst ~max_paths =
    if src < 0 || dst < 0 then []
    else if max_paths > 3 || not (in_pool t src) then enumerate t ~src ~dst ~max_paths
    else
      let key = (dst * 4) + max_paths in
      match assoc_int key t.paths.(src) with
      | Some r -> r
      | None ->
          let r = enumerate t ~src ~dst ~max_paths in
          t.paths.(src) <- (key, r) :: t.paths.(src);
          r

  (* Per-destination path budget for resolution witnesses. *)
  let candidate_paths = 2

  let subtype_paths t ~sub ~sup = paths_to t ~src:sub ~dst:sup ~max_paths:3

  let rec index_where p i = function
    | [] -> -1
    | x :: rest -> if p x then i else index_where p (i + 1) rest

  (* The index of the first method called [meth], if its staticness
     matches. *)
  let rec find_method meth static i = function
    | [] -> -1
    | (m : Classfile.meth) :: rest ->
        if String.equal m.m_name meth then if m.m_static = static then i else -1
        else find_method meth static (i + 1) rest

  let resolve t ~owner ~find =
    if (not (in_pool t owner)) || is_external t owner then external_resolution
    else begin
      let acc = ref [] in
      let visit d =
        if in_pool t d then begin
          let member = find t.classes.(d) in
          if member >= 0 then
            List.iter
              (fun path -> acc := { def = d; member; path } :: !acc)
              (paths_to t ~src:owner ~dst:d ~max_paths:candidate_paths)
        end
      in
      visit owner;
      Array.iter visit (supertypes t owner);
      List.rev !acc
    end

  let rec find_memo meth (static : bool) = function
    | [] -> None
    | (m, s, r) :: rest ->
        if s = static && String.equal m meth then Some r else find_memo meth static rest

  let method_candidates t ~owner ~meth ~static =
    let memo = if in_pool t owner then t.meths.(owner) else [] in
    match find_memo meth static memo with
    | Some r -> r
    | None ->
        let r =
          resolve t ~owner ~find:(fun (c : Classfile.cls) ->
              find_method meth static 0 c.methods)
        in
        if in_pool t owner then t.meths.(owner) <- (meth, static, r) :: memo;
        r

  let field_candidates t ~owner ~field =
    let memo = if in_pool t owner then t.fields.(owner) else [] in
    match List.find_opt (fun (f, _) -> String.equal f field) memo with
    | Some (_, r) -> r
    | None ->
        let r =
          if (not (in_pool t owner)) || is_external t owner then external_resolution
          else begin
            (* Fields resolve on the class chain only, which is a simple
               path along extends edges. *)
            let acc = ref [] in
            let rec go x rev_path =
              if in_pool t x then begin
                let c = t.classes.(x) in
                let member =
                  index_where (fun (f : Classfile.field) -> f.f_name = field) 0 c.fields
                in
                if member >= 0 then acc := { def = x; member; path = List.rev rev_path } :: !acc;
                if (not c.is_interface) && not (Classfile.is_external c.super) then
                  go t.edge_dst.(t.first_edge.(x)) (t.first_edge.(x) :: rev_path)
              end
            in
            go owner [];
            List.rev !acc
          end
        in
        if in_pool t owner then t.fields.(owner) <- (field, r) :: memo;
        r

  let abstract_obligations t x =
    Array.to_list (supertypes t x)
    |> List.concat_map (fun s ->
           if not (in_pool t s) then []
           else
             let c = t.classes.(s) in
             if not (c.is_interface || c.is_abstract) then []
             else
               List.concat
                 (List.mapi
                    (fun i (m : Classfile.meth) -> if m.m_abstract then [ (s, i) ] else [])
                    c.methods))

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
