open Lbr_logic

module type S = sig
  val id : string
  val doc : string
  val extensions : string list

  type input
  type ctx

  val parse : string -> (input, string) result
  val print : input -> string
  val items : input -> int
  val bytes : input -> int

  val derive : Var.Pool.t -> input -> (ctx, string) result
  val universe : ctx -> Assignment.t
  val constraints : ctx -> input -> (Cnf.t, string) result
  val prepare : ctx -> input -> Assignment.t -> input
  val predicate : ctx -> input -> spec:string -> (input -> bool, string) result
end

type packed = Packed : (module S with type input = 'i and type ctx = 'c) -> packed

let id_of (Packed (module F)) = F.id
let extensions_of (Packed (module F)) = F.extensions
