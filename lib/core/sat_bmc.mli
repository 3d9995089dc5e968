(** Bounded falsification by incremental SAT (the second engine family).

    The twin of {!Bmc} built on {!Rfn_sat}: iterative-deepening
    bounded model checking where every depth extends a single
    incremental CNF instance (Eén, Mishchenko & Amla's single-instance
    formulation) instead of re-running sequential ATPG from scratch.
    The per-depth target is one assumption literal, so learned clauses
    survive across depths and across guided queries.

    The instance is an {!unrolling} value the caller owns.
    [Rfn.verify_in_session] builds one per call, on the first SAT rung
    that needs it, and hands it to every Step-3 concretization and
    empty-refinement re-check of that run: the concrete cone is
    encoded once, to the deepest trace, not once per iteration. It is
    dropped when the run ends and never kept in a pooled server
    session, whose memory bound counts BDD nodes only. One-shot callers
    ([rfn bmc --engine sat], forked race workers, the bench harness)
    build their own.

    Two modes are wired into the CEGAR loop:
    - {!falsify} mirrors [Bmc.falsify] exactly (same outcome type, same
      shortest-counterexample guarantee) and serves as the SAT twin of
      the empty-refinement BMC re-check;
    - {!concretize} is the guided mode: the abstract error trace's
      constraint cubes are conjoined cycle by cycle as assumptions, so
      it can replace (or back up) guided ATPG as the Step-3
      concretizer. *)

type unrolling
(** The whole design's cone of one bad signal, unrolled frame by frame
    on a single incremental {!Rfn_sat.Cnf} instance. Every {!falsify}
    and {!concretize} call handed the same unrolling only appends the
    frames it lacks and solves under its own assumptions, so frames are
    encoded once and learned clauses carry over from call to call.
    Sound because assumptions hold for one call only, learned clauses
    follow from the clause database alone, and the invariant clauses
    are proven facts. *)

val unrolling :
  ?analysis:Rfn_analysis.Analysis.t ->
  check:bool ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  unrolling
(** An unrolling with no frames yet, starting from the initial states.
    With [check], every {!falsify} and {!concretize} call first checks
    the CNF and its assumption pins ({!Rfn_lint.Check.cnf},
    {!Rfn_lint.Check.pins}) and gives up on a violation; [Rfn] passes
    [config.check_invariants].
    [analysis] asserts the proven invariants as persistent clauses at
    every frame it encodes ({!Rfn_analysis.Analysis.assume_frame}) —
    sound because every frame of an unrolling from the initial states
    holds a reachable state, so the clauses prune the search without
    removing any genuine counterexample. *)

val falsify :
  ?limits:Rfn_atpg.Atpg.limits ->
  unrolling ->
  max_depth:int ->
  Bmc.outcome * Rfn_sat.Solver.stats
(** Same contract as {!Bmc.falsify}: depths are tried in increasing
    order, a [Found] trace is a shortest counterexample and is
    validated by concrete replay before being reported. Statistics are
    this call's own work (deltas), not the instance's lifetime
    totals; [max_vars] is the instance's current size. *)

val concretize :
  ?limits:Rfn_atpg.Atpg.limits ->
  unrolling ->
  abstract_traces:Rfn_circuit.Trace.t list ->
  Concretize.outcome * Rfn_sat.Solver.stats
(** SAT-guided concretization: for each abstract trace, solve the
    whole design unrolled to the trace's length under assumptions
    pinning every state/input literal of the trace's constraint cubes
    plus the bad signal at the last frame. Traces are tried in order; a
    satisfying assignment is validated by replay like
    [Concretize.guided_any]. Statistics are per call, as for
    {!falsify}. Raises [Invalid_argument] on an empty trace list. *)
