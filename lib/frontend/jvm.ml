open Lbr_jvm

type input = Classpool.t
type ctx = Jvars.t

let id = "jvm"
let doc = "reduce a JVM class pool against a buggy decompiler (LBRC container bytes)"
let extensions = [ ".lbrc" ]

let parse = Serialize.of_bytes
let print = Serialize.to_bytes
let items = Size.classes
let bytes = Size.bytes

let derive vpool pool =
  match Jvars.derive vpool pool with
  | jv -> Ok jv
  | exception Invalid_argument m -> Error m

let universe = Jvars.all

let constraints jv pool =
  match Constraints.generate jv pool with
  | cnf -> Ok cnf
  | exception Invalid_argument m -> Error m

let prepare = Reducer.prepare

let rec includes_sorted ~baseline messages =
  match (baseline, messages) with
  | [], _ -> true
  | _ :: _, [] -> false
  | b :: bs, m :: ms ->
      let c = String.compare b m in
      if c = 0 then includes_sorted ~baseline:bs ms
      else if c > 0 then includes_sorted ~baseline ms
      else false

let tool_predicate pool ~spec =
  let tool =
    match spec with
    | "" -> (
        match
          List.find_opt (fun t -> Lbr_decompiler.Tool.is_buggy_on t pool) Lbr_decompiler.Tool.all
        with
        | Some t -> Ok t
        | None -> Error "no tool is buggy on this pool")
    | name -> (
        match
          List.find_opt (fun (t : Lbr_decompiler.Tool.t) -> t.name = name)
            Lbr_decompiler.Tool.all
        with
        | Some t -> Ok t
        | None -> Error (Printf.sprintf "unknown tool %S" name))
  in
  match tool with
  | Error _ as e -> e
  | Ok tool -> (
      match Lbr_decompiler.Tool.errors tool pool with
      | [] -> Error (Printf.sprintf "tool %s is not buggy on this pool" tool.Lbr_decompiler.Tool.name)
      | baseline ->
          Ok (fun sub -> includes_sorted ~baseline (Lbr_decompiler.Tool.errors tool sub)))

let predicate (_ : ctx) = tool_predicate
