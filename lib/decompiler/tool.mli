(** Simulated decompilers — the buggy tools whose failures we reduce.

    A tool is a named set of bug patterns (the paper evaluates three real
    decompilers; we ship three simulated ones with different bug profiles).
    Running the tool on a pool "decompiles" it and "re-compiles" the output:
    the result is the sorted set of compiler error messages.  A tool is
    buggy on an input iff that set is non-empty.

    Real decompiler+compiler pipelines also fail for reasons unrelated to
    the input — transient load, crashes, hangs.  {!Faults} injects such
    failures on a seeded schedule so the resilient oracle's retry and
    crash-classification paths ([Lbr_runtime.Oracle]) are testable and
    deterministic. *)

open Lbr_jvm

exception Transient_failure of string
(** A flaky run: retrying the same input may succeed. *)

exception Tool_crash of string
(** A hard crash of this invocation. *)

(** Seeded fault injection.  Each run of a faulty tool first
    draws from a seeded RNG: with probability [crash_rate] it raises
    {!Tool_crash}, with probability [flaky_rate] it raises
    {!Transient_failure}, otherwise the run proceeds normally.  Draws are
    mutex-guarded, so a schedule shared between domains stays valid
    (though the interleaving of draws then depends on scheduling; tests
    wanting exact determinism should drive a faulty tool from one
    domain). *)
module Faults : sig
  type t

  val make : ?flaky_rate:float -> ?crash_rate:float -> seed:int -> unit -> t
  (** Rates default to [0.]; raises [Invalid_argument] if either is
      negative or they sum above [1.]. *)

  val draws : t -> int
  (** Total fault-schedule draws (one per run). *)

  val injected_flaky : t -> int

  val injected_crashes : t -> int
end

type t = { name : string; patterns : Pattern.t list; faults : Faults.t option }

val cfr_sim : t
val fernflower_sim : t
val procyon_sim : t

val all : t list
(** The three fault-free tools. *)

val with_faults : Faults.t -> t -> t
(** A copy of the tool that consults the fault schedule on every run. *)

val prepare : t -> Classpool.t -> Classpool.t -> string list
(** [prepare t original] resolves every pattern's location gates once
    against [original]; the returned run gives exactly [errors t pool] for
    any [pool] whose classes are reductions of [original] — sub-pools as
    {!Lbr_jvm.Reducer.apply} builds them, with classes, members and
    constructors dropped and bodies stubbed — while visiting only the
    gated locations.  Each run draws from the fault schedule and times one
    ["tool.errors"] phase, as {!errors} does; building the index does
    neither.  The index is immutable: one prepared run may be called from
    several domains at once. *)

val errors : t -> Classpool.t -> string list
(** Sorted, deduplicated error messages from decompile-and-recompile:
    [prepare t pool pool].  On a tool built by {!with_faults}, may raise
    {!Transient_failure} or {!Tool_crash} according to the schedule. *)

val instances : t -> Classpool.t -> Pattern.instance list

val is_buggy_on : t -> Classpool.t -> bool
