type t = { neg : Var.t array; pos : Var.t array }

let sorted_unique_general vars =
  let arr = Array.of_list vars in
  (* [Var.t] is an immediate int: the monomorphic comparator lets the sort
     skip the polymorphic-compare dispatch per element pair. *)
  Array.sort Int.compare arr;
  let n = Array.length arr in
  if n <= 1 then arr
  else begin
    (* Count distinct elements, then copy them over. *)
    let distinct = ref 1 in
    for i = 1 to n - 1 do
      if arr.(i) <> arr.(i - 1) then incr distinct
    done;
    if !distinct = n then arr
    else begin
      let out = Array.make !distinct arr.(0) in
      let j = ref 0 in
      for i = 1 to n - 1 do
        if arr.(i) <> arr.(i - 1) then begin
          incr j;
          out.(!j) <- arr.(i)
        end
      done;
      out
    end
  end

(* Clauses are overwhelmingly tiny; building them is on the constraint
   generation hot path, so the 0/1/2-literal cases skip the generic
   of_list + sort + dedup round trip. *)
let sorted_unique vars =
  match vars with
  | [] -> [||]
  | [ v ] -> [| v |]
  | [ a; b ] -> if a = b then [| a |] else if a < b then [| a; b |] else [| b; a |]
  | _ -> sorted_unique_general vars

(* Both arrays sorted: a single merge scan replaces a binary search per
   element.  The scans are top-level with every datum an argument, so a
   check allocates no closure, and typed [Var.t] so comparisons are
   integer ones. *)
let rec disjoint_from (a : Var.t array) (b : Var.t array) i j =
  i >= Array.length a
  || j >= Array.length b
  ||
  let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
  x <> y && if x < y then disjoint_from a b (i + 1) j else disjoint_from a b i (j + 1)

let disjoint_sorted a b = disjoint_from a b 0 0

let make ~neg ~pos =
  let neg = sorted_unique neg and pos = sorted_unique pos in
  if disjoint_sorted neg pos then Some { neg; pos } else None

let rec increasing_from (arr : Var.t array) i =
  i >= Array.length arr
  || (Array.unsafe_get arr (i - 1) < Array.unsafe_get arr i && increasing_from arr (i + 1))

let strictly_increasing arr = increasing_from arr 1

(* Clauses are mostly one or two literals a side: those copies are inline
   allocations rather than a runtime call. *)
let copy (a : Var.t array) =
  match Array.length a with
  | 0 -> [||]
  | 1 -> [| Array.unsafe_get a 0 |]
  | 2 -> [| Array.unsafe_get a 0; Array.unsafe_get a 1 |]
  | _ -> Array.copy a

let of_sorted ~neg ~pos =
  if not (strictly_increasing neg && strictly_increasing pos) then
    invalid_arg "Clause.of_sorted: literals not strictly increasing";
  if disjoint_sorted neg pos then Some { neg = copy neg; pos = copy pos } else None

let make_exn ~neg ~pos =
  match make ~neg ~pos with
  | Some c -> c
  | None -> invalid_arg "Clause.make_exn: tautology"

let unit_pos v = { neg = [||]; pos = [| v |] }

let edge x y =
  if x = y then invalid_arg "Clause.edge: self edge is a tautology";
  { neg = [| x |]; pos = [| y |] }

let of_disjunction ~pos = { neg = [||]; pos = sorted_unique pos }

type kind = Unit_pos | Unit_neg | Edge | Horn | General

let kind c =
  match Array.length c.neg, Array.length c.pos with
  | 0, 1 -> Unit_pos
  | 1, 0 -> Unit_neg
  | 1, 1 -> Edge
  | _, 1 -> Horn
  | _, _ -> General

let is_graph c = match kind c with Unit_pos | Edge -> true | Unit_neg | Horn | General -> false

let num_literals c = Array.length c.neg + Array.length c.pos

let is_empty c = num_literals c = 0

let holds c ~true_set =
  Array.exists true_set c.pos || Array.exists (fun v -> not (true_set v)) c.neg

let equal a b = a.neg = b.neg && a.pos = b.pos
