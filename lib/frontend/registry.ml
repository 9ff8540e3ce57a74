let all : Frontend.packed list =
  [ Frontend.Packed (module Jvm); Packed (module Dimacs); Packed (module Fj) ]

let ids = List.map Frontend.id_of all

let describe () =
  String.concat ", " ids

let find id =
  match List.find_opt (fun p -> Frontend.id_of p = id) all with
  | Some p -> Ok p
  | None ->
      Error (Printf.sprintf "unknown frontend %S (known frontends: %s)" id (describe ()))

(* The one rule that picks a search view other than the frontend itself:
   J-Reduce reduces a JVM pool at class granularity. *)
let find_for ~strategy id =
  let id = if id = "" then Jvm.id else id in
  if id = Jvm.id && strategy = Run.Jreduce then Ok (Frontend.Packed (module Jvm_classes))
  else find id

let for_path path =
  let ext = Filename.extension path in
  match
    List.find_opt (fun p -> List.mem ext (Frontend.extensions_of p)) all
  with
  | Some p -> Ok p
  | None ->
      let known =
        List.concat_map
          (fun p ->
            List.map
              (fun e -> Printf.sprintf "%s (%s)" e (Frontend.id_of p))
              (Frontend.extensions_of p))
          all
      in
      Error
        (Printf.sprintf "cannot infer a frontend from %S (known extensions: %s); use --frontend"
           path (String.concat ", " known))
