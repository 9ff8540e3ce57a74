(** DIMACS-native reduction: any unsatisfiable CNF file is a workload.

    Items are the {e clauses} of the benchmark (one selector variable per
    clause); the predicate is UNSAT preservation — a sub-formula made of
    the selected clauses must still be unsatisfiable, which is monotone in
    the clause set exactly as Definition 4.1 requires.  Reduction thus
    extracts a small unsatisfiable core, honouring user-supplied validity
    constraints embedded in the file as [c lbr] comment directives:

    {v
    c lbr keep 3          -- clause 3 must stay in every sub-formula
    c lbr implies 4 7     -- keeping clause 4 requires keeping clause 7
    v}

    The check is prepared once per input: {!S.predicate} builds one
    incremental solver over the input's clauses ({!Lbr_sat.Cdcl}), and
    every probe is a query to it.  {!S.prepare} builds each sub-input from
    the input's own clause arrays, in input order, and the check recovers
    a probe's clauses by physical equality with them; it answers any other
    input (a parsed file, a test fixture) with a fresh solver.  The check
    may be called from several domains at once: each call takes an idle
    solver, or makes one.

    The parser/printer round-trips: {!S.parse} of {!S.print} returns the
    same value, including directives and the literal order inside clauses.
    Malformed input — bad headers, literals out of range, numbers that are
    not plain decimals (an optional [-] and digits; [-0] is no literal),
    clause-count mismatches, unknown [c lbr] directives, unterminated
    clauses — returns [Error], never raises.  Plain comments and blank lines are accepted
    anywhere and are not preserved (printing is canonical: header,
    directives, clauses). *)

type t = {
  num_vars : int;  (** the header's variable count; literals are 1-based *)
  clauses : int array array;  (** literals as written, zero-terminator stripped *)
  keeps : int list;  (** 1-based clause indices that must survive *)
  implications : (int * int) list;  (** (i, j): keeping clause i requires j *)
}

include Frontend.S with type input = t
