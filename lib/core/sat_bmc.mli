(** Step 3 and the BMC re-check by incremental SAT (the second engine
    family).

    SAT's answer to the one query of {!Concretize}: the whole design
    unrolled on a single incremental CNF instance (Eén, Mishchenko &
    Amla's single-instance formulation), solved for the bad signal at
    the last frame with the query's pins as assumptions, and a model
    replayed before it is believed. Assumptions hold for one call only,
    so learned clauses survive across depths and across guided queries.

    The instance is an {!unrolling} value the caller owns.
    [Rfn.verify_in_session] builds one per call, on the first SAT rung
    that needs it, and hands it to every Step-3 concretization and
    empty-refinement re-check of that run: the concrete cone is
    encoded once, to the deepest trace, not once per iteration. It is
    dropped when the run ends and never kept in a pooled server
    session, whose memory bound counts BDD nodes only. One-shot callers
    ([rfn bmc --engine sat], forked race workers, the bench harness)
    build their own. *)

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
    With [check], every query (one depth, one trace) first checks
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
  Concretize.outcome * Rfn_sat.Solver.stats
(** {!Concretize.deepen} over the unpinned query: the SAT twin of
    {!Concretize.falsify}, and of the empty-refinement re-check. The
    limits' backtrack budget bounds conflicts one-for-one. Statistics
    are this call's own work (deltas), not the instance's lifetime
    totals; [max_vars] is the instance's current size. *)

val concretize :
  ?limits:Rfn_atpg.Atpg.limits ->
  unrolling ->
  abstract_traces:Rfn_circuit.Trace.t list ->
  Concretize.outcome * Rfn_sat.Solver.stats
(** {!Concretize.first_found} over the query pinned by each abstract
    trace's constraint cubes at the trace's length: SAT-guided
    concretization, the SAT twin of guided ATPG in Step 3. Statistics
    are per call, as for {!falsify}. *)
