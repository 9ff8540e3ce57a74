(** Write-ahead journal for the reduction service.

    Layout: one directory per job under the journal root.

    {v
    <root>/<job-id>/spec        — Wire.spec_to_string bytes (written
                                  tmp+rename, so it is present iff whole)
    <root>/<job-id>/preds.log   — one line per completed predicate
                                  evaluation, appended and flushed before
                                  the result is used.  Two line shapes:
                                    runner:   "<32-hex-digest> 0|1 <us> <retries>\n"
                                    mirrored: "<32-hex-digest> 0|1\n"
                                  A daemon's runner writes the first,
                                  where <us> is the evaluation's wall
                                  latency in microseconds and <retries>
                                  how many extra oracle attempts it took.
                                  The coordinator writes the second when
                                  it mirrors a worker's Verdict frame,
                                  which carries no latency.
    <root>/<job-id>/counters    — phase timing counters of the run
                                  (one "name calls seconds minor_words"
                                  line per phase), written at completion
                                  when the run timed any phase
    <root>/<job-id>/done        — terminal marker (empty)
    <root>/<job-id>/cancelled   — terminal marker (empty)
    <root>/<job-id>/failed      — terminal marker (first line: reason)
    v}

    A daemon killed mid-reduction leaves a job directory with a [spec]
    and a partial [preds.log] but no terminal marker; {!pending} finds
    exactly those on restart and {!replay} rebuilds the table that lets
    the resumed run skip every predicate execution it already paid for.
    A torn final line in [preds.log] (the crash happened mid-append) is
    ignored, not fatal. *)

type t

val open_dir : string -> t
(** Create the root directory if needed.  Raises [Unix.Unix_error] /
    [Sys_error] if it cannot be created or is not writable. *)

val dir : t -> string

val record_job : t -> id:string -> spec:string -> unit
(** WAL the admission of a job.  The spec file is written to a temp name
    and renamed, so a crash can never leave a torn spec. *)

val append_pred :
  t -> id:string -> key:string -> ?latency:float -> ?retries:int -> bool -> unit
(** Append one completed predicate evaluation and flush it to the OS —
    after this returns, a [kill -9] cannot lose the entry.  With
    [latency] (seconds; [retries] defaults to 0) the runner line is
    written, letting [lbr-reduce top --journal] reconstruct latency
    histograms post-mortem; without it the mirrored line. *)

val record_counters : t -> id:string -> contents:string -> unit
(** Write the job's [counters] file (atomic tmp+rename): the per-job phase
    timing delta ({!Lbr_logic.Perf.serialize} lines), written when the
    job finishes running, before its terminal marker. *)

val mark_done : t -> id:string -> unit
val mark_cancelled : t -> id:string -> unit
val mark_failed : t -> id:string -> reason:string -> unit

val pending : t -> (string * string) list
(** [(id, spec_bytes)] of journaled jobs with no terminal marker, in
    lexicographic id order (admission order for the scheduler's zero-padded
    ids).  Directories with an unreadable or missing spec are skipped. *)

val replay : t -> id:string -> (string, bool) Hashtbl.t
(** The completed predicate evaluations of a job, keyed by digest.
    Malformed lines are skipped; runner and mirrored lines both count. *)

type verdict = {
  v_key : string;
  v_ok : bool;
  v_latency : float option;  (** seconds; [None] on mirrored lines *)
  v_retries : int option;  (** [None] on mirrored lines *)
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
