open Classfile

type violation = { where : string; what : string }

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.where v.what

let check pool =
  let violations = ref [] in
  let report where fmt =
    Format.kasprintf (fun what -> violations := { where; what } :: !violations) fmt
  in
  (* One hierarchy context serves every resolution query of the check. *)
  let hx = Hierarchy.Ctx.create pool in
  let id = Hierarchy.Ctx.id hx in
  (match Hierarchy.Ctx.check_acyclic hx with
  | Ok () -> ()
  | Error message -> report "hierarchy" "%s" message);
  if !violations <> [] then List.rev !violations
  else begin
    let is_interface_name name =
      match Classpool.find pool name with
      | Some c -> c.is_interface
      | None -> false (* external: callers decide *)
    in
    let check_type_exists where name =
      if (not (Classfile.is_external name)) && not (Classpool.mem pool name) then
        report where "reference to missing class %s" name
    in
    let check_type_ref where ty =
      match Jtype.ref_name ty with Some n -> check_type_exists where n | None -> ()
    in
    let check_insn where insn =
      match insn with
      | Invoke_virtual { owner; meth } | Invoke_static { owner; meth } -> (
          check_type_exists where owner;
          match
            Hierarchy.Ctx.method_candidates hx ~owner:(id owner) ~meth
              ~static:(match insn with Invoke_static _ -> true | _ -> false)
          with
          | [] -> report where "unresolved method %s.%s" owner meth
          | _ :: _ -> ())
      | Invoke_interface { owner; meth } -> (
          check_type_exists where owner;
          (match Classpool.find pool owner with
          | Some c when not c.is_interface ->
              report where "invokeinterface on class %s" owner
          | Some _ | None -> ());
          match Hierarchy.Ctx.method_candidates hx ~owner:(id owner) ~meth ~static:false with
          | [] -> report where "unresolved interface method %s.%s" owner meth
          | _ :: _ -> ())
      | New_instance { cls; ctor } -> (
          check_type_exists where cls;
          match Classpool.find pool cls with
          | None -> ()
          | Some c ->
              if c.is_interface then report where "new on interface %s" cls
              else if c.is_abstract then report where "new on abstract class %s" cls
              else if ctor >= List.length c.ctors then
                report where "missing constructor #%d of %s" ctor cls)
      | Get_field { owner; field } | Put_field { owner; field } -> (
          check_type_exists where owner;
          match Hierarchy.Ctx.field_candidates hx ~owner:(id owner) ~field with
          | [] -> report where "unresolved field %s.%s" owner field
          | _ :: _ -> ())
      | Check_cast t | Instance_of t | Load_const_class t -> check_type_exists where t
      | Upcast { from_; to_ } ->
          check_type_exists where from_;
          check_type_exists where to_;
          if
            from_ <> to_
            && (not (Classfile.is_external from_))
            && not (Classfile.is_external to_ && to_ = object_name)
          then begin
            match Hierarchy.Ctx.subtype_paths hx ~sub:(id from_) ~sup:(id to_) with
            | [] -> report where "%s is not a subtype of %s" from_ to_
            | _ :: _ -> ()
          end
      | Arith | Load_store | Return_insn -> ()
    in
    let check_class (c : cls) =
      let where_c = c.name in
      (* Supertype shape. *)
      (match Classpool.find pool c.super with
      | Some s when s.is_interface -> report where_c "superclass %s is an interface" c.super
      | Some _ -> ()
      | None -> check_type_exists where_c c.super);
      List.iter
        (fun i ->
          check_type_exists where_c i;
          if Classpool.mem pool i && not (is_interface_name i) then
            report where_c "implements non-interface %s" i)
        c.interfaces;
      if c.is_interface then begin
        if c.ctors <> [] then report where_c "interface with constructors";
        List.iter
          (fun (m : meth) ->
            if not m.m_abstract then report where_c "interface method %s has a body" m.m_name)
          c.methods
      end;
      (* Abstract methods only in abstract classes or interfaces; concrete
         classes must discharge all inherited abstract-method obligations. *)
      List.iter
        (fun (m : meth) ->
          if m.m_abstract && (not c.is_abstract) && not c.is_interface then
            report where_c "abstract method %s in concrete class" m.m_name;
          if m.m_abstract && m.m_body <> [] then
            report where_c "abstract method %s has code" m.m_name)
        c.methods;
      if (not c.is_abstract) && not c.is_interface then
        List.iter
          (fun (t, i) ->
            let m = (Hierarchy.Ctx.methods hx t).(i).m_name in
            let concrete =
              Hierarchy.Ctx.method_candidates hx ~owner:(id c.name) ~meth:m ~static:false
              |> List.exists (fun { Hierarchy.def; member; _ } ->
                     def < 0 (* external resolution: assume ok *)
                     || not (Hierarchy.Ctx.methods hx def).(member).m_abstract)
            in
            if not concrete then
              report where_c "missing implementation of %s declared by %s" m
                (Hierarchy.Ctx.name hx t))
          (Hierarchy.Ctx.abstract_obligations hx (id c.name));
      (* Member shapes and bodies. *)
      List.iter (fun (f : field) -> check_type_ref (where_c ^ "#" ^ f.f_name) f.f_type) c.fields;
      List.iter
        (fun (m : meth) ->
          let where = Printf.sprintf "%s.%s()" c.name m.m_name in
          List.iter (check_type_ref where) (m.m_ret :: m.m_params);
          List.iter (check_insn where) m.m_body)
        c.methods;
      List.iteri
        (fun index (k : ctor) ->
          let where = Printf.sprintf "%s.<init>#%d" c.name index in
          List.iter (check_type_ref where) k.k_params;
          List.iter (check_insn where) k.k_body)
        c.ctors;
      List.iter (check_type_exists where_c) c.annotations;
      List.iter (check_type_exists where_c) c.inner_classes
    in
    List.iter check_class (Classpool.classes pool);
    List.rev !violations
  end

let is_valid pool = check pool = []
