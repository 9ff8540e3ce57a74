open Lbr_logic

type t = { rank_of : Var.t -> int }

let by_creation _pool = { rank_of = (fun v -> v) }

(* Ranks in an array indexed by variable, [-1] for an unlisted one. *)
let of_list vars =
  let n = List.length vars in
  let rank = Array.make (List.fold_left (fun m v -> Int.max m (v + 1)) 0 vars) (-1) in
  List.iteri
    (fun i v ->
      if rank.(v) >= 0 then invalid_arg "Order.of_list: duplicate variable";
      rank.(v) <- i)
    vars;
  let listed v = 0 <= v && v < Array.length rank && rank.(v) >= 0 in
  { rank_of = (fun v -> if listed v then rank.(v) else n + v) }

let reversed t = { rank_of = (fun v -> -t.rank_of v) }

let rank t v = t.rank_of v

let compare t a b = Int.compare (t.rank_of a) (t.rank_of b)

let min_of t set = Assignment.min_by ~order:t.rank_of set

let min_of_array t arr ~keep =
  Array.fold_left
    (fun best v ->
      if not (keep v) then best
      else
        match best with
        | None -> Some v
        | Some b -> if t.rank_of v < t.rank_of b then Some v else best)
    None arr

(* Universes overwhelmingly arrive already rank-ascending — bitset
   enumeration yields ascending variable ids and [by_creation] ranks by id —
   so an O(n) presorted check saves the O(n log n) sort on the common path.
   The check costs one extra scan when the input is genuinely unsorted. *)
let sort t vars =
  let rec is_sorted prev = function
    | [] -> true
    | v :: rest -> t.rank_of prev <= t.rank_of v && is_sorted v rest
  in
  match vars with
  | [] | [ _ ] -> vars
  | v :: rest -> if is_sorted v rest then vars else List.sort (compare t) vars
