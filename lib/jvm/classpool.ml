(* A pool is a slot array over a name index.  The index holds the names of
   one input's classes in name order, with an open-addressing table from
   name to position; the pool holds, per position, its class or [vacant].
   Every sub-pool made from a pool ([set] of a name the index has, [unset],
   [of_slots]) shares the pool's index, so a sub-pool costs one array of
   classes and a lookup by name costs one hash. *)

type index = {
  names : string array;  (* sorted, distinct *)
  table : int array;  (* open addressing, linear probing: position + 1, 0 empty *)
}

(* The size metric is consulted several times per predicate call (cost
   function, improvement tracking); the memo makes those after the first
   free.  [-1] means "not computed yet". *)
type t = {
  index : index;
  slots : Classfile.cls array;
  size : int;
  mutable bytes_memo : int;
}

let vacant : Classfile.cls =
  {
    name = "";
    super = "";
    interfaces = [];
    is_interface = false;
    is_abstract = false;
    fields = [];
    methods = [];
    ctors = [];
    annotations = [];
    inner_classes = [];
  }

(* Names sorted and distinct.  The table is at most half full. *)
let index_of_names names =
  let cap = ref 8 in
  while !cap < 2 * Array.length names do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let table = Array.make !cap 0 in
  Array.iteri
    (fun i name ->
      let h = ref (Hashtbl.hash name land mask) in
      while table.(!h) <> 0 do
        h := (!h + 1) land mask
      done;
      table.(!h) <- i + 1)
    names;
  { names; table }

let rec probe index name mask h =
  let e = Array.unsafe_get index.table h in
  if e = 0 then -1
  else if String.equal (Array.unsafe_get index.names (e - 1)) name then e - 1
  else probe index name mask ((h + 1) land mask)

let slot pool name =
  let mask = Array.length pool.index.table - 1 in
  probe pool.index name mask (Hashtbl.hash name land mask)

let slot_count pool = Array.length pool.index.names

let same_index a b = a.index == b.index

let find_slot pool i =
  let c = pool.slots.(i) in
  if c == vacant then None else Some c

let find pool name =
  let i = slot pool name in
  if i < 0 then None else find_slot pool i

let mem pool name =
  let i = slot pool name in
  i >= 0 && not (pool.slots.(i) == vacant)

let of_classes classes =
  let sorted = Array.of_list classes in
  Array.stable_sort (fun (a : Classfile.cls) b -> String.compare a.name b.name) sorted;
  for i = 1 to Array.length sorted - 1 do
    if String.equal sorted.(i - 1).name sorted.(i).name then begin
      (* Name the first class, in list order, whose name came before. *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (c : Classfile.cls) ->
          if Hashtbl.mem seen c.name then
            invalid_arg (Printf.sprintf "Classpool.of_classes: duplicate class %s" c.name);
          Hashtbl.add seen c.name ())
        classes
    end
  done;
  {
    index = index_of_names (Array.map (fun (c : Classfile.cls) -> c.name) sorted);
    slots = sorted;
    size = Array.length sorted;
    bytes_memo = -1;
  }

let fold f pool acc =
  let acc = ref acc in
  Array.iter (fun c -> if not (c == vacant) then acc := f c !acc) pool.slots;
  !acc

let classes pool =
  let acc = ref [] in
  for i = Array.length pool.slots - 1 downto 0 do
    let c = pool.slots.(i) in
    if not (c == vacant) then acc := c :: !acc
  done;
  !acc

let names pool = List.map (fun (c : Classfile.cls) -> c.name) (classes pool)

let size pool = pool.size

let memo_bytes pool compute =
  if pool.bytes_memo < 0 then pool.bytes_memo <- compute pool;
  pool.bytes_memo

let of_slots pool slots =
  let names = pool.index.names in
  if Array.length slots <> Array.length names then
    invalid_arg "Classpool.of_slots: not one slot per indexed name";
  let size = ref 0 in
  Array.iteri
    (fun i (c : Classfile.cls) ->
      if not (c == vacant) then begin
        if not (c.name == names.(i) || String.equal c.name names.(i)) then
          invalid_arg ("Classpool.of_slots: class in the slot of another name: " ^ c.name);
        incr size
      end)
    slots;
  { index = pool.index; slots; size = !size; bytes_memo = -1 }

let set pool (c : Classfile.cls) =
  let i = slot pool c.name in
  if i >= 0 then begin
    let slots = Array.copy pool.slots in
    slots.(i) <- c;
    let size = if pool.slots.(i) == vacant then pool.size + 1 else pool.size in
    { index = pool.index; slots; size; bytes_memo = -1 }
  end
  else begin
    (* A name the index lacks: a new index with the name in its place. *)
    let old = pool.index.names in
    let n = Array.length old in
    let at = ref 0 in
    while !at < n && String.compare old.(!at) c.name < 0 do
      incr at
    done;
    let at = !at in
    let pick a i x = if i < at then a.(i) else if i = at then x else a.(i - 1) in
    let names = Array.init (n + 1) (fun i -> pick old i c.name) in
    let slots = Array.init (n + 1) (fun i -> pick pool.slots i c) in
    { index = index_of_names names; slots; size = pool.size + 1; bytes_memo = -1 }
  end

let unset pool name =
  let i = slot pool name in
  if i < 0 || pool.slots.(i) == vacant then pool
  else begin
    let slots = Array.copy pool.slots in
    slots.(i) <- vacant;
    { index = pool.index; slots; size = pool.size - 1; bytes_memo = -1 }
  end

let with_bytes pool bytes = { pool with bytes_memo = bytes }
