(** Bug-trigger patterns for the simulated decompilers.

    A pattern is a structural feature combination that makes a (simulated)
    decompiler emit source that fails to re-compile.  Each detected instance
    carries the "compiler" error message (a stable string, so preserving the
    full error message is a set comparison) and, for diagnostics and tests,
    the item set whose joint presence fires it.

    All patterns are monotone: they only test for the {e presence} of
    features, so a sub-pool can never produce an error message the original
    pool did not — matching the paper's assumption that the black box is
    monotone on valid sub-inputs. *)

open Lbr_jvm

type instance = {
  pattern : string;
  message : string;  (** the error message the compiler would print *)
  requires : Item.t list;  (** items whose joint presence fires the bug *)
}

type t = {
  name : string;
  prepare : Classpool.t -> Classpool.t -> instance list;
      (** [prepare original] resolves the location gates once; the result
          detects on any pool whose classes are reductions of [original]
          exactly what [prepare pool pool] does (see {!Tool.prepare}). *)
}

val all : t list
(** The pattern library, in a fixed order. *)

val find : string -> t
(** Lookup by name; raises [Not_found]. *)
