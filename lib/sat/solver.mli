(** Incremental CDCL SAT solver.

    A small conflict-driven clause-learning solver in the MiniSat
    lineage (Eén & Sörensson), built for the bounded-model-checking
    backend: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, VSIDS-style variable activities with
    phase saving, Luby-sequence restarts, and activity-driven learned
    clause deletion.

    The solver is {e incremental}: clauses and variables may be added
    between [solve] calls, and each call takes a list of {e assumption}
    literals that hold for that call only. This is the single-instance
    formulation of Eén, Mishchenko & Amla: a BMC unrolling adds frame
    [k+1]'s clauses on top of the instance that already solved depth
    [k], keeps every learned clause, and re-targets the bad state with
    one assumption literal — nothing is ever re-encoded. The CEGAR loop
    keeps one instance for a whole verification run, across all its
    Step-3 queries and BMC re-checks.

    Since such an instance stays alive for a run, its clauses are
    stored flat: one growable [int array] arena holding each clause as
    [size; flags; lits…], integer clause references in the watch lists
    (allocated per literal on first use), the learnt list and the
    implication reasons, and learnt activities in a [float array].
    Learned-clause deletion only flags clauses; the arena is compacted
    after a deletion round once removed clauses take more than half of
    it ([sat.reduce_db] and [sat.compactions] telemetry counters). *)

type t

type lit = int
(** A literal: variable [v] with sign, encoded as [2v] (positive) or
    [2v+1] (negated). Exposed as an [int] so encoders can store
    literals in dense arrays; construct them with {!lit} and {!neg}
    only. *)

val create : ?log_learnts:bool -> unit -> t
(** A solver with no variables and no clauses. With [log_learnts] every
    learned clause is also recorded for {!learnt_clauses} — used by the
    DRAT-style self-check in the test suite, off by default. *)

val new_var : t -> int
(** Allocate the next variable index (0-based). *)

val nvars : t -> int

val lit : int -> bool -> lit
(** [lit v sign] is [v] when [sign], [¬v] otherwise. *)

val neg : lit -> lit
val var_of : lit -> int
val sign_of : lit -> bool

val add_clause : t -> lit list -> unit
(** Add a clause over existing variables. Clauses are simplified
    against the top-level assignment (satisfied clauses dropped, false
    literals removed); an empty clause just marks the instance
    unsatisfiable. Raises [Invalid_argument] on a literal whose
    variable was never allocated. *)

type limits = { max_conflicts : int; max_seconds : float option }

val no_limits : limits
(** [max_int] conflicts, no time budget. *)

type result =
  | Sat  (** a model is available through {!value} *)
  | Unsat  (** unsatisfiable under the given assumptions *)
  | Unknown of Rfn_failure.resource
      (** a budget ran out first: [Conflicts] or [Time] *)

val solve : ?limits:limits -> ?assumptions:lit list -> t -> result
(** Solve the current clause set under the assumptions. The solver
    remains usable after any result; learned clauses are kept. *)

val value : t -> int -> bool
(** Model value of a variable after {!solve} returned [Sat]; undefined
    contents otherwise. *)

val value_lit : t -> lit -> bool

type stats = {
  conflicts : int;
  propagations : int;
  decisions : int;
  learned : int;  (** clauses learned (lifetime, including deleted) *)
  restarts : int;
  max_vars : int;
}

val stats : t -> stats
(** Lifetime totals for this instance; subtract an earlier snapshot
    for one call's share. *)

val iter_clauses : t -> (lit array -> unit) -> unit
(** Iterate every clause currently attached to the instance — original
    and live learned clauses — each exactly once, as a fresh copy of
    its literals in the solver's current order. Top-level unit
    clauses are not included (they live in the trail, not the clause
    database). Exposed for the [RFN_CHECK] invariant checker. *)

val learnt_clauses : t -> lit list list
(** Every clause learned so far, oldest first — empty unless the solver
    was created with [~log_learnts:true]. *)
