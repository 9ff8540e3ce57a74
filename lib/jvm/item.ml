type t =
  | Class of string
  | Extends of string
  | Implements of { cls : string; iface : string }
  | Iface_extends of { iface : string; super : string }
  | Field of { cls : string; field : string }
  | Method of { cls : string; meth : string }
  | Code of { cls : string; meth : string }
  | Ctor of { cls : string; index : int }
  | Ctor_code of { cls : string; index : int }
  | Annotation of { cls : string; index : int }
  | Inner_class of { cls : string; index : int }

let to_string = function
  | Class c -> c
  | Extends c -> c ^ "!extends"
  | Implements { cls; iface } -> cls ^ "<" ^ iface
  | Iface_extends { iface; super } -> iface ^ "<:" ^ super
  | Field { cls; field } -> cls ^ "#" ^ field
  | Method { cls; meth } -> cls ^ "." ^ meth ^ "()"
  | Code { cls; meth } -> cls ^ "." ^ meth ^ "()!code"
  | Ctor { cls; index } -> cls ^ ".<init>#" ^ string_of_int index
  | Ctor_code { cls; index } -> cls ^ ".<init>#" ^ string_of_int index ^ "!code"
  | Annotation { cls; index } -> cls ^ "@" ^ string_of_int index
  | Inner_class { cls; index } -> cls ^ "$" ^ string_of_int index

let owner = function
  | Class c | Extends c -> c
  | Implements { cls; _ }
  | Field { cls; _ }
  | Method { cls; _ }
  | Code { cls; _ }
  | Ctor { cls; _ }
  | Ctor_code { cls; _ }
  | Annotation { cls; _ }
  | Inner_class { cls; _ } -> cls
  | Iface_extends { iface; _ } -> iface

let compare = Stdlib.compare
let equal = Stdlib.( = )
let pp ppf t = Format.fprintf ppf "[%s]" (to_string t)
