(* Output checks that do not rely on the code under measurement.  Each
   returns [Error reason] for an output the reducer must never produce. *)

open Lbr_jvm

(* Is [small] a subsequence of [big] under [eq]?  Matching each element at
   its earliest possible position is optimal for any relation. *)
let rec subsequence eq small big =
  match (small, big) with
  | [], _ -> true
  | _, [] -> false
  | s :: ss, b :: bs -> if eq s b then subsequence eq ss bs else subsequence eq small bs

(* The reducer renumbers [New_instance] constructor indices when it drops
   constructors, and stubs a body it removes to a lone return. *)
let body_ok ~orig body =
  let insn_equiv (a : Classfile.insn) (b : Classfile.insn) =
    match (a, b) with
    | New_instance { cls = c1; _ }, New_instance { cls = c2; _ } -> c1 = c2
    | _ -> a = b
  in
  body = [ Classfile.Return_insn ]
  || (List.length body = List.length orig && List.for_all2 insn_equiv orig body)

let class_ok (o : Classfile.cls) (c : Classfile.cls) =
  c.is_interface = o.is_interface
  && c.is_abstract = o.is_abstract
  && (c.super = o.super || c.super = Classfile.object_name)
  && subsequence ( = ) c.interfaces o.interfaces
  && subsequence ( = ) c.fields o.fields
  && subsequence
       (fun (m : Classfile.meth) (om : Classfile.meth) ->
         m.m_name = om.m_name && m.m_params = om.m_params && m.m_ret = om.m_ret
         && m.m_static = om.m_static && m.m_abstract = om.m_abstract
         && body_ok ~orig:om.m_body m.m_body)
       c.methods o.methods
  && subsequence
       (fun (k : Classfile.ctor) (ok : Classfile.ctor) ->
         k.k_params = ok.k_params && body_ok ~orig:ok.k_body k.k_body)
       c.ctors o.ctors
  && subsequence ( = ) c.annotations o.annotations
  && subsequence ( = ) c.inner_classes o.inner_classes

(* jvm: the result is a sub-pool of the input, passes the bytecode checker
   (standing in for the JVM verifier), and still makes the decompiler
   report every baseline error. *)
let jvm ~input ~(tool : Lbr_decompiler.Tool.t) ~baseline output =
  match (Serialize.of_bytes input, Serialize.of_bytes output) with
  | Error m, _ -> Error ("unparsable input: " ^ m)
  | _, Error m -> Error ("unparsable output: " ^ m)
  | Ok orig, Ok out -> (
      match
        List.find_opt
          (fun (c : Classfile.cls) ->
            match Classpool.find orig c.name with None -> true | Some o -> not (class_ok o c))
          (Classpool.classes out)
      with
      | Some c -> Error ("not a sub-pool of the input at class " ^ c.name)
      | None ->
          if not (Checker.is_valid out) then Error "fails the bytecode checker"
          else if
            not
              (Lbr_frontend.Jvm.includes_sorted ~baseline (Lbr_decompiler.Tool.errors tool out))
          then Error "lost a baseline decompiler error"
          else Ok ())

(* cnf: every output clause is an input clause (inputs have no duplicate
   clauses, so the mapping is unique), every [keep] survives, every
   [implies] whose source survives keeps its target, and the output is
   still UNSAT by the reference DPLL. *)
let cnf (orig : Lbr_frontend.Dimacs.t) output =
  match Lbr_frontend.Dimacs.parse output with
  | Error m -> Error ("unparsable output: " ^ m)
  | Ok out ->
      let n = Array.length orig.clauses in
      let kept = Array.make (n + 1) false in
      let rec map i j =
        if i = Array.length out.clauses then true
        else if j = n then false
        else if out.clauses.(i) = orig.clauses.(j) then begin
          kept.(j + 1) <- true;
          map (i + 1) (j + 1)
        end
        else map i (j + 1)
      in
      if not (map 0 0) then Error "an output clause is not an input clause"
      else if not (List.for_all (fun k -> kept.(k)) orig.keeps) then
        Error "a kept clause was dropped"
      else if List.exists (fun (i, j) -> kept.(i) && not kept.(j)) orig.implications then
        Error "an implication target was dropped"
      else if Dpll.satisfiable ~num_vars:out.num_vars out.clauses then
        Error "output is satisfiable"
      else Ok ()
