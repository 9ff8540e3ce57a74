open Syntax

(* ------------------------------------------------------------------ *)
(* Tokenizer.  [// main] on a line of its own separates declarations
   from the program's main expression; every other [//] comment is
   dropped.  Tokens carry their line for error messages. *)

type token =
  | Ident of string
  | Kw of string  (* class interface extends implements new return *)
  | Punct of char  (* { } ( ) ; , . *)
  | Main_marker

type tok = { tk : token; line : int }

exception Parse_error of string

let fail line fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" line m))) fmt

let keywords = [ "class"; "interface"; "extends"; "implements"; "new"; "return" ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize text =
  let toks = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let push tk = toks := { tk; line = !line } :: !toks in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      let eol = match String.index_from_opt text !i '\n' with Some e -> e | None -> n in
      let body = String.trim (String.sub text (!i + 2) (eol - !i - 2)) in
      if body = "main" then push Main_marker;
      i := eol
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      let word = String.sub text !i (!j - !i) in
      push (if List.mem word keywords then Kw word else Ident word);
      i := !j
    end
    else
      match c with
      | '{' | '}' | '(' | ')' | ';' | ',' | '.' ->
          push (Punct c);
          incr i
      | c -> fail !line "unexpected character %C" c
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser over the token list.                       *)

type state = { mutable toks : tok list; mutable last_line : int }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let next st =
  match st.toks with
  | [] -> fail st.last_line "unexpected end of input"
  | t :: rest ->
      st.toks <- rest;
      st.last_line <- t.line;
      t

let expect_punct st c =
  let t = next st in
  match t.tk with
  | Punct p when p = c -> ()
  | _ -> fail t.line "expected %C" c

let expect_ident st =
  let t = next st in
  match t.tk with
  | Ident x -> x
  | Kw k -> fail t.line "keyword %S used as a name" k
  | _ -> fail t.line "expected an identifier"

let looking_at st tk = match peek st with Some t -> t.tk = tk | None -> false

let eat st tk = if looking_at st tk then ignore (next st)

(* expr := primary ('.' ident [args])*
   primary := 'new' T args | '(' T ')' expr | ident *)
let rec parse_expr st =
  let primary =
    let t = next st in
    match t.tk with
    | Kw "new" ->
        let ty = expect_ident st in
        New (ty, parse_args st)
    | Punct '(' ->
        let ty = expect_ident st in
        expect_punct st ')';
        Cast (ty, parse_expr st)
    | Ident x -> Var x
    | _ -> fail t.line "expected an expression"
  in
  parse_suffixes st primary

and parse_suffixes st e =
  if looking_at st (Punct '.') then begin
    ignore (next st);
    let name = expect_ident st in
    if looking_at st (Punct '(') then parse_suffixes st (Call (e, name, parse_args st))
    else parse_suffixes st (Field (e, name))
  end
  else e

and parse_args st =
  expect_punct st '(';
  if looking_at st (Punct ')') then begin
    ignore (next st);
    []
  end
  else
    let rec more acc =
      let acc = parse_expr st :: acc in
      let t = next st in
      match t.tk with
      | Punct ',' -> more acc
      | Punct ')' -> List.rev acc
      | _ -> fail t.line "expected ',' or ')' in an argument list"
    in
    more []

let parse_params st =
  expect_punct st '(';
  if looking_at st (Punct ')') then begin
    ignore (next st);
    []
  end
  else
    let rec more acc =
      let ty = expect_ident st in
      let x = expect_ident st in
      let acc = (ty, x) :: acc in
      let t = next st in
      match t.tk with
      | Punct ',' -> more acc
      | Punct ')' -> List.rev acc
      | _ -> fail t.line "expected ',' or ')' in a parameter list"
    in
    more []

(* Inside a class body, [T name] is followed by [;] (a field) or [(]
   (a method). *)
let parse_member st =
  let ty = expect_ident st in
  let name = expect_ident st in
  if looking_at st (Punct '(') then begin
    let params = parse_params st in
    expect_punct st '{';
    (let t = next st in
     match t.tk with Kw "return" -> () | _ -> fail t.line "expected 'return'");
    let body = parse_expr st in
    expect_punct st ';';
    expect_punct st '}';
    `Method { m_ret = ty; m_name = name; m_params = params; m_body = body }
  end
  else begin
    expect_punct st ';';
    `Field (ty, name)
  end

let parse_class st =
  let name = expect_ident st in
  let super = if looking_at st (Kw "extends") then (eat st (Kw "extends"); expect_ident st) else object_name in
  let iface =
    if looking_at st (Kw "implements") then (eat st (Kw "implements"); expect_ident st)
    else empty_interface_name
  in
  expect_punct st '{';
  let fields = ref [] and methods = ref [] in
  while not (looking_at st (Punct '}')) do
    match parse_member st with
    | `Field f ->
        if !methods <> [] then
          fail st.last_line "field %S declared after a method" (snd f);
        fields := f :: !fields
    | `Method m -> methods := m :: !methods
  done;
  expect_punct st '}';
  Class
    {
      c_name = name;
      c_super = super;
      c_iface = iface;
      c_fields = List.rev !fields;
      c_methods = List.rev !methods;
    }

let parse_iface st =
  let name = expect_ident st in
  expect_punct st '{';
  let sigs = ref [] in
  while not (looking_at st (Punct '}')) do
    let ty = expect_ident st in
    let m = expect_ident st in
    let params = parse_params st in
    expect_punct st ';';
    sigs := { s_ret = ty; s_name = m; s_params = params } :: !sigs
  done;
  expect_punct st '}';
  Interface { i_name = name; i_sigs = List.rev !sigs }

let parse_program st =
  let decls = ref [] in
  let main = ref None in
  let rec loop () =
    match peek st with
    | None -> ()
    | Some { tk = Kw "class"; _ } ->
        ignore (next st);
        decls := parse_class st :: !decls;
        loop ()
    | Some { tk = Kw "interface"; _ } ->
        ignore (next st);
        decls := parse_iface st :: !decls;
        loop ()
    | Some { tk = Main_marker; _ } -> (
        ignore (next st);
        main := Some (parse_expr st);
        match peek st with
        | None -> ()
        | Some t -> fail t.line "trailing input after the main expression")
    | Some t -> fail t.line "expected 'class', 'interface' or '// main'"
  in
  loop ();
  { decls = List.rev !decls; main = !main }

let program_of_string text =
  match
    let st = { toks = tokenize text; last_line = 1 } in
    let program = parse_program st in
    (match wf_names program with Ok () -> () | Error m -> raise (Parse_error m));
    program
  with
  | program -> Ok program
  | exception Parse_error m -> Error m
