(** Parsing FJI programs from their concrete syntax.

    The accepted grammar is exactly what {!Pretty} prints: a sequence of
    [class]/[interface] declarations followed by an optional main expression
    introduced by a [// main] comment line.  All other [//] comments are
    skipped, so files produced by {!Pretty.program_to_string} round-trip:
    [program_of_string (program_to_string p)] succeeds and re-prints to the
    same string (the AST itself may differ from [p] only where the concrete
    syntax is ambiguous, e.g. a cast under a field access).

    Parsing is total — malformed input returns [Error] with a line-numbered
    message, never an exception. *)

val program_of_string : string -> (Syntax.program, string) result
