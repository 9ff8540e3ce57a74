(* Word-level bitset representation.  A set is an immutable array of words in
   little-endian order: bit [b] of word [w] encodes variable [w * bits + b].
   Canonical form — enforced by every constructor — has a nonzero last word,
   so [equal] and [compare] are plain array walks and the empty set is [||].

   The API is persistent (operations return fresh arrays), which keeps the
   module a drop-in replacement for the previous [Set.Make (Int)] while
   making [union]/[inter]/[diff]/[subset] word-at-a-time. *)

let bits = Sys.int_size

type t = int array

let[@inline] word v = v / bits
let[@inline] bit v = v mod bits

(* 16-bit popcount table, shared; 63-bit words take four lookups. *)
let popcount16 =
  let table = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.set table i (Char.chr (Char.code (Bytes.get table (i lsr 1)) + (i land 1)))
  done;
  fun x -> Char.code (Bytes.unsafe_get table x)

let popcount x =
  popcount16 (x land 0xffff)
  + popcount16 ((x lsr 16) land 0xffff)
  + popcount16 ((x lsr 32) land 0xffff)
  + popcount16 (x lsr 48)

(* Number of trailing zeros of a one-bit word. *)
let[@inline] ntz_pow2 low = popcount (low - 1)

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let empty = [||]

let check v = if v < 0 then invalid_arg "Assignment: negative variable"

let singleton v =
  check v;
  let a = Array.make (word v + 1) 0 in
  a.(word v) <- 1 lsl bit v;
  a

let mem v s =
  v >= 0
  &&
  let w = word v in
  w < Array.length s && s.(w) land (1 lsl bit v) <> 0

let add v s =
  check v;
  if mem v s then s
  else begin
    let len = Int.max (Array.length s) (word v + 1) in
    let a = Array.make len 0 in
    Array.blit s 0 a 0 (Array.length s);
    a.(word v) <- a.(word v) lor (1 lsl bit v);
    a
  end

let remove v s =
  if not (mem v s) then s
  else begin
    let a = Array.copy s in
    a.(word v) <- a.(word v) land lnot (1 lsl bit v);
    trim a
  end

let of_list vs =
  match vs with
  | [] -> empty
  | _ ->
      let m = List.fold_left (fun acc v -> check v; Int.max acc v) 0 vs in
      let a = Array.make (word m + 1) 0 in
      List.iter (fun v -> a.(word v) <- a.(word v) lor (1 lsl bit v)) vs;
      a

let of_words w = trim (Array.copy w)

let of_slice a ~pos ~len =
  if len = 0 then empty
  else begin
    let m = ref 0 in
    for i = pos to pos + len - 1 do
      check a.(i);
      m := Int.max !m a.(i)
    done;
    let s = Array.make (word !m + 1) 0 in
    for i = pos to pos + len - 1 do
      let v = a.(i) in
      s.(word v) <- s.(word v) lor (1 lsl bit v)
    done;
    s
  end

let word_width s = Array.length s

let digest_hex s =
  (* The canonical word array (nonzero last word) makes the digest a
     function of the set, and the 8-byte little-endian framing makes it
     stable across processes on the same platform. *)
  let n = Array.length s in
  let b = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (i * 8) (Int64.of_int s.(i))
  done;
  Digest.to_hex (Digest.bytes b)

let word_at s i = if i < Array.length s then Array.unsafe_get s i else 0

let or_into s buf =
  if Array.length buf < Array.length s then
    invalid_arg "Assignment.or_into: buffer too short";
  for i = 0 to Array.length s - 1 do
    buf.(i) <- buf.(i) lor s.(i)
  done

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let short, long = if la <= lb then (a, b) else (b, a) in
    let r = Array.copy long in
    for i = 0 to Array.length short - 1 do
      r.(i) <- r.(i) lor short.(i)
    done;
    r
  end

let inter a b =
  let l = Int.min (Array.length a) (Array.length b) in
  if l = 0 then empty
  else begin
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      r.(i) <- a.(i) land b.(i)
    done;
    trim r
  end

let diff a b =
  let la = Array.length a in
  if la = 0 then empty
  else begin
    let r = Array.copy a in
    let l = Int.min la (Array.length b) in
    for i = 0 to l - 1 do
      r.(i) <- r.(i) land lnot b.(i)
    done;
    trim r
  end

let subset a b =
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let rec go i =
    i >= la || (a.(i) land lnot b.(i) = 0 && go (i + 1))
  in
  go 0

let disjoint a b =
  let l = Int.min (Array.length a) (Array.length b) in
  let rec go i = i >= l || (a.(i) land b.(i) = 0 && go (i + 1)) in
  go 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

let is_empty s = Array.length s = 0

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Matches [Set.Make (Int)]'s order: lexicographic comparison of the two
   increasing element sequences (a strict prefix sorts first).  Callers rely
   on this only as "some total order", but keeping the seed's order keeps
   candidate orderings — and thus reduction traces — bit-for-bit stable. *)
let compare a b =
  let la = Array.length a and lb = Array.length b in
  let l = Int.min la lb in
  let rec go i =
    if i >= l then Int.compare la lb
    else if a.(i) = b.(i) then go (i + 1)
    else begin
      let d = a.(i) lxor b.(i) in
      let low = d land -d in
      (* Bits strictly above the lowest differing bit. *)
      let above = -low lsl 1 in
      if a.(i) land low <> 0 then
        (* [a] owns the smallest differing element e; if [b] still has any
           element above e its sequence continues with a larger element. *)
        if b.(i) land above <> 0 || lb > i + 1 then -1 else 1
      else if a.(i) land above <> 0 || la > i + 1 then 1
      else -1
    end
  in
  go 0

let fold f s init =
  let acc = ref init in
  for i = 0 to Array.length s - 1 do
    let w = ref s.(i) in
    let base = i * bits in
    while !w <> 0 do
      let low = !w land - !w in
      acc := f (base + ntz_pow2 low) !acc;
      w := !w land (!w - 1)
    done
  done;
  !acc

let iter f s = fold (fun v () -> f v) s ()

let to_list s = List.rev (fold (fun v acc -> v :: acc) s [])

let exists p s =
  let rec go_word i =
    i < Array.length s
    &&
    let rec go_bits w =
      w <> 0
      &&
      let low = w land -w in
      p ((i * bits) + ntz_pow2 low) || go_bits (w land (w - 1))
    in
    go_bits s.(i) || go_word (i + 1)
  in
  go_word 0

let for_all p s = not (exists (fun v -> not (p v)) s)

let filter p s =
  let a = Array.make (Array.length s) 0 in
  iter (fun v -> if p v then a.(word v) <- a.(word v) lor (1 lsl bit v)) s;
  trim a

let min_by ~order s =
  fold
    (fun v best ->
      match best with
      | None -> Some v
      | Some b -> if order v < order b then Some v else best)
    s None

let union_all sets = List.fold_left union empty sets
