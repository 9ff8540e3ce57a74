open Lbr_logic

type t = {
  num_vars : int;
  clauses : int array array;
  keeps : int list;
  implications : (int * int) list;
}

type input = t

let id = "dimacs"
let doc = "reduce a DIMACS CNF file to a small unsatisfiable core (items = clauses)"
let extensions = [ ".cnf"; ".dimacs" ]

(* ------------------------------------------------------------------ *)
(* Parser.  Line-oriented, but clauses may span lines; total.          *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* DIMACS numbers are plain decimals.  [int_of_string] would also read
   0x1F, 0o7, 0b1, 1_0 and +3, so: [nat] takes digits only, [literal] an
   optional '-' before them but not "-0", which is no literal and must not
   end a clause. *)
let rec digits s i acc =
  if i = String.length s then Some acc
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if acc > (max_int - d) / 10 then None else digits s (i + 1) ((acc * 10) + d)
    | _ -> None

let nat s = if s = "" then None else digits s 0 0

let literal s =
  if String.length s > 1 && s.[0] = '-' then
    match digits s 1 0 with Some 0 | None -> None | Some n -> Some (-n)
  else nat s

let parse text =
  let header = ref None in
  let clauses = ref [] in
  let pending = ref [] in  (* literals of the clause being read, reversed *)
  let keeps = ref [] in
  let implications = ref [] in
  let directive line words =
    match words with
    | [ "keep"; i ] -> (
        match nat i with
        | Some i when i >= 1 -> keeps := i :: !keeps
        | _ -> failf "line %d: bad clause index %S in 'c lbr keep'" line i)
    | [ "implies"; i; j ] -> (
        match (nat i, nat j) with
        | Some i, Some j when i >= 1 && j >= 1 -> implications := (i, j) :: !implications
        | _ -> failf "line %d: bad clause indices in 'c lbr implies'" line)
    | w :: _ -> failf "line %d: unknown 'c lbr' directive %S (expected keep or implies)" line w
    | [] -> failf "line %d: empty 'c lbr' directive" line
  in
  let tokens line_no line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
    |> fun toks ->
    match toks with
    | [] -> ()  (* blank line *)
    | "c" :: "lbr" :: words -> directive line_no words
    | tok :: _ when String.length tok > 0 && tok.[0] = 'c' -> ()  (* comment *)
    | "p" :: rest -> (
        if !header <> None then failf "line %d: duplicate DIMACS header" line_no;
        if !pending <> [] || !clauses <> [] then
          failf "line %d: header after clause data" line_no;
        match rest with
        | [ "cnf"; nv; nc ] -> (
            match (nat nv, nat nc) with
            | Some nv, Some nc -> header := Some (nv, nc)
            | _ -> failf "line %d: malformed header counts (p cnf %s %s)" line_no nv nc)
        | _ -> failf "line %d: malformed DIMACS header (expected p cnf <vars> <clauses>)" line_no)
    | toks ->
        let nv =
          match !header with
          | Some (nv, _) -> nv
          | None -> failf "line %d: clause data before the DIMACS header" line_no
        in
        List.iter
          (fun tok ->
            match literal tok with
            | None -> failf "line %d: bad literal %S" line_no tok
            | Some 0 ->
                clauses := Array.of_list (List.rev !pending) :: !clauses;
                pending := []
            | Some lit ->
                if abs lit > nv then
                  failf "line %d: literal %d out of range (header declares %d variables)"
                    line_no lit nv;
                pending := lit :: !pending)
          toks
  in
  match
    List.iteri (fun i line -> tokens (i + 1) line) (String.split_on_char '\n' text);
    (match !pending with [] -> () | _ -> failf "unterminated clause (missing 0)");
    let num_vars, declared =
      match !header with
      | Some h -> h
      | None -> failf "missing DIMACS header (p cnf <vars> <clauses>)"
    in
    let clauses = Array.of_list (List.rev !clauses) in
    if Array.length clauses <> declared then
      failf "header declares %d clauses but %d were given" declared (Array.length clauses);
    let check_index what i =
      if i < 1 || i > Array.length clauses then
        failf "'c lbr %s' references clause %d (only %d clauses)" what i (Array.length clauses)
    in
    List.iter (check_index "keep") !keeps;
    List.iter
      (fun (i, j) ->
        check_index "implies" i;
        check_index "implies" j)
      !implications;
    {
      num_vars;
      clauses;
      keeps = List.rev !keeps;
      implications = List.rev !implications;
    }
  with
  | t -> Ok t
  | exception Bad m -> Error m

let print t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" t.num_vars (Array.length t.clauses));
  List.iter (fun i -> Buffer.add_string buf (Printf.sprintf "c lbr keep %d\n" i)) t.keeps;
  List.iter
    (fun (i, j) -> Buffer.add_string buf (Printf.sprintf "c lbr implies %d %d\n" i j))
    t.implications;
  Array.iter
    (fun lits ->
      Array.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) lits;
      Buffer.add_string buf "0\n")
    t.clauses;
  Buffer.contents buf

let items t = Array.length t.clauses

(* Characters in the decimal rendering of [n], sign included. *)
let dec_len n =
  let rec go n len = if n > -10 then len else go (n / 10) (len + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* [String.length (print t)], counted line by line without printing:
   "p cnf V C\n", "c lbr keep I\n", "c lbr implies I J\n", and each
   literal plus its space before a clause's "0\n". *)
let bytes t =
  let n = 8 + dec_len t.num_vars + dec_len (Array.length t.clauses) in
  let n = List.fold_left (fun n i -> n + 12 + dec_len i) n t.keeps in
  let n = List.fold_left (fun n (i, j) -> n + 16 + dec_len i + dec_len j) n t.implications in
  Array.fold_left
    (fun n c -> Array.fold_left (fun n l -> n + dec_len l + 1) (n + 2) c)
    n t.clauses

(* ------------------------------------------------------------------ *)
(* Inventory and constraints: one selector variable per clause.        *)

type ctx = Var.t array

let derive vpool t =
  Ok (Array.init (Array.length t.clauses) (fun _ -> Var.Pool.fresh vpool))

let universe (ctx : ctx) = Assignment.of_list (Array.to_list ctx)

let constraints (ctx : ctx) t =
  let keep = List.map (fun i -> Clause.unit_pos ctx.(i - 1)) t.keeps in
  let implies =
    (* i = j would be a tautology; Clause.make drops it. *)
    List.filter_map
      (fun (i, j) -> Clause.make ~neg:[ ctx.(i - 1) ] ~pos:[ ctx.(j - 1) ])
      t.implications
  in
  Ok (Cnf.make (keep @ implies))

let prepare (ctx : ctx) t =
  fun phi ->
    let n = Array.length t.clauses in
    (* old (1-based) index -> new (1-based) index of surviving clauses *)
    let remap = Array.make (n + 1) 0 in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if Assignment.mem ctx.(i) phi then begin
        incr next;
        remap.(i + 1) <- !next
      end
    done;
    let clauses = Array.make !next [||] in
    for i = 0 to n - 1 do
      if remap.(i + 1) <> 0 then clauses.(remap.(i + 1) - 1) <- t.clauses.(i)
    done;
    (* R_I guarantees kept directives survive: unit_pos keeps the clause a
       'keep' names, and the edge keeps an implication's target whenever
       its source is in.  An implication whose source was dropped is
       itself dropped (it constrains nothing anymore). *)
    let keeps = List.filter_map (fun i -> if remap.(i) <> 0 then Some remap.(i) else None) t.keeps in
    let implications =
      List.filter_map
        (fun (i, j) ->
          if remap.(i) <> 0 && remap.(j) <> 0 then Some (remap.(i), remap.(j)) else None)
        t.implications
    in
    { t with clauses; keeps; implications }

(* ------------------------------------------------------------------ *)
(* Predicate: the selected clauses still form an unsatisfiable formula.
   Monotone by construction — adding clauses to an unsatisfiable formula
   keeps it unsatisfiable.

   The check is prepared once per input: one incremental solver over the
   input's clauses answers every probe.  [prepare] builds a sub-input from
   the input's own clause arrays, in input order, so walking both clause
   lists with physical equality recovers the probe's selection; any other
   input gets a fresh solver. *)

let selection solver (t : t) (sub : t) =
  let sel = Lbr_sat.Cdcl.selection solver in
  let n = Array.length t.clauses and m = Array.length sub.clauses in
  let rec walk i j =
    j = m
    || i < n
       &&
       if sub.clauses.(j) == t.clauses.(i) then begin
         Lbr_sat.Cdcl.select sel i;
         walk (i + 1) (j + 1)
       end
       else walk (i + 1) j
  in
  if walk 0 0 then Some sel else None

let predicate (_ : ctx) t ~spec =
  if spec <> "" then
    Error (Printf.sprintf "the dimacs frontend takes no predicate spec (got %S)" spec)
  else
    let first = Lbr_sat.Cdcl.create t.clauses in
    if Lbr_sat.Cdcl.satisfiable first (Option.get (selection first t t)) then
      Error "input formula is satisfiable; the dimacs predicate preserves unsatisfiability"
    else
      (* A solver is mutable, and speculative workers share this closure:
         each call takes an idle solver, or makes one.  Every solver gives
         exact verdicts, so which one answers is not observable. *)
      let idle = ref [ first ] and lock = Mutex.create () in
      let take () =
        Mutex.protect lock (fun () ->
            match !idle with
            | s :: rest ->
                idle := rest;
                Some s
            | [] -> None)
      in
      Ok
        (fun sub ->
          let solver =
            match take () with Some s -> s | None -> Lbr_sat.Cdcl.create t.clauses
          in
          let sat =
            match selection solver t sub with
            | Some sel -> Lbr_sat.Cdcl.satisfiable solver sel
            | None -> Lbr_sat.Cdcl.all_satisfiable sub.clauses
          in
          Mutex.protect lock (fun () -> idle := solver :: !idle);
          not sat)
