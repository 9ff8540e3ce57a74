
let to_string ?num_vars cnf =
  let buf = Buffer.create 1024 in
  if Cnf.is_unsat cnf then begin
    Buffer.add_string buf "p cnf 1 1\n0\n";
    Buffer.contents buf
  end
  else begin
    let nv = match num_vars with Some n -> n | None -> Cnf.max_var cnf + 1 in
    let clauses = Cnf.clauses cnf in
    Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" nv (List.length clauses));
    List.iter
      (fun (c : Clause.t) ->
        Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "-%d " (v + 1))) c.neg;
        Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%d " (v + 1))) c.pos;
        Buffer.add_string buf "0\n")
      clauses;
    Buffer.contents buf
  end

let of_string text =
  let tokens =
    String.split_on_char '\n' text
    |> List.filter (fun line -> not (String.length line > 0 && line.[0] = 'c'))
    |> List.concat_map (fun line ->
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun t -> t <> ""))
  in
  match tokens with
  | "p" :: "cnf" :: _nv :: _nc :: rest ->
      let rec clauses acc current = function
        | [] ->
            if current = [] then Ok (List.rev acc)
            else Error "unterminated clause (missing 0)"
        | "0" :: rest ->
            let neg = List.filter_map (fun l -> if l < 0 then Some (-l - 1) else None) current in
            let pos = List.filter_map (fun l -> if l > 0 then Some (l - 1) else None) current in
            let acc = match Clause.make ~neg ~pos with Some c -> c :: acc | None -> acc in
            clauses acc [] rest
        | token :: rest -> (
            match int_of_string_opt token with
            | Some lit when lit <> 0 -> clauses acc (lit :: current) rest
            | Some _ | None -> Error (Printf.sprintf "bad literal %S" token))
      in
      Result.map Cnf.make (clauses [] [] rest)
  | _ -> Error "missing DIMACS header (p cnf <vars> <clauses>)"

let write_file path cnf =
  let oc = open_out path in
  output_string oc (to_string cnf);
  close_out oc

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text
