(** Write-ahead journal for the reduction service.

    Layout: one directory per job under the journal root.

    {v
    <root>/<job-id>/spec        — Wire.spec_to_string bytes (written
                                  tmp+rename, so it is present iff whole)
    <root>/<job-id>/preds.log   — one line per completed predicate
                                  evaluation, appended and flushed before
                                  the result is used ({!Append_log}):
                                    "<32-hex-digest> 0|1 <us> <retries>\n"
                                  where <us> is the evaluation's wall
                                  latency in microseconds and <retries>
                                  how many extra oracle attempts it took.
                                  Only a process that ran the tool writes
                                  one: a daemon's runner.  A coordinator
                                  keeps the verdicts its workers stream
                                  in its verdict cache instead.
    <root>/<job-id>/done        — terminal marker (empty)
    <root>/<job-id>/cancelled   — terminal marker (empty)
    <root>/<job-id>/failed      — terminal marker (first line: reason)
    <root>/flight-<pid>-<reason>.tdump
    <root>/flight-<pid>-<reason>.metrics
                                — a flight recorder dump
                                  ({!Lbr_obs.Flight}), written by the
                                  daemon beside the jobs, not by this
                                  module
    v}

    A daemon killed mid-reduction leaves a job directory with a [spec]
    and a partial [preds.log] but no terminal marker; {!pending} finds
    exactly those on restart and {!replay} rebuilds the table that lets
    the resumed run skip every predicate execution it already paid for.
    A torn final line in [preds.log] (the crash happened mid-append) is
    ignored by every reader and cut off before the restarted daemon
    appends again, so the next verdict lands on a line of its own. *)

type t

val open_dir : string -> t
(** Create the root directory if needed.  Raises [Unix.Unix_error] /
    [Sys_error] if it cannot be created or is not writable. *)

val dir : t -> string

val record_job : t -> id:string -> spec:string -> unit
(** WAL the admission of a job.  The spec file is written to a temp name
    and renamed, so a crash can never leave a torn spec. *)

val append_pred :
  t -> id:string -> key:string -> latency:float -> retries:int -> bool -> unit
(** Append one completed predicate evaluation — its digest, verdict, wall
    [latency] (seconds, kept to the microsecond) and extra oracle
    attempts — and flush it to the OS: after this returns, a [kill -9]
    cannot lose the entry.  [lbr-reduce report --journal] rebuilds
    latency histograms from these lines post-mortem. *)

val mark_done : t -> id:string -> unit
val mark_cancelled : t -> id:string -> unit
val mark_failed : t -> id:string -> reason:string -> unit

val pending : t -> (string * string) list
(** [(id, spec_bytes)] of journaled jobs with no terminal marker, in
    lexicographic id order (admission order for the scheduler's zero-padded
    ids).  Directories with an unreadable or missing spec are skipped. *)

val replay : t -> id:string -> (string, bool) Hashtbl.t
(** The completed predicate evaluations of a job, keyed by digest.
    Malformed lines are skipped. *)

type verdict = {
  v_key : string;
  v_ok : bool;
  v_latency : float;  (** seconds *)
  v_retries : int;  (** extra oracle attempts *)
}

val verdicts : t -> id:string -> verdict list
(** Every parseable verdict line of a job, in append order — the raw
    material for post-mortem latency histograms.  Empty if the job has no
    predicate log. *)

val jobs : t -> string list
(** Every job directory in the journal (terminal or not), in id order. *)

val max_job_number : t -> int
(** Largest numeric suffix among [job-N] directories (0 if none) — lets a
    restarted scheduler continue the id sequence without collisions. *)

val close : t -> unit
(** Close any open [preds.log] handles. *)
