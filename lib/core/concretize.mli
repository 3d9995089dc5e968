(** Error-trace search on the original design (Section 2.3), and the
    outcome every such search reports.

    RFN never runs symbolic image computation on the original design;
    instead sequential ATPG searches for a concrete error trace, with
    the abstract error trace as cycle-by-cycle guidance: the abstract
    trace's length bounds the search depth, its state and pseudo-input
    literals become per-cycle objectives, and its primary-input
    literals become root assignments.

    Step 3 and the empty-refinement BMC re-check are one query that
    differs only in its assumptions: Step 3 pins the abstract trace's
    cubes at its depth, the re-check pins nothing at each depth in
    turn. Each engine answers that query once — ATPG here, incremental
    SAT in {!Sat_bmc} — and the two loops below drive it. *)

type outcome =
  | Found of Rfn_circuit.Trace.t
      (** concrete counterexample, validated by 3-valued replay *)
  | Not_found_here
      (** the search space is proved empty: no trace meets the pins at
          this depth (for {!deepen}, at any depth up to the bound) *)
  | Gave_up of { resource : Rfn_failure.resource; frames : int }
      (** resource limit at a search of [frames] frames ([Backtracks]
          or [Conflicts] are worth escalating, [Time] is terminal), or
          an invariant slip (an unvalidated trace) *)

val validated :
  Rfn_circuit.Circuit.t -> bad:int -> frames:int -> Rfn_circuit.Trace.t ->
  outcome
(** [Found t] if [t] replays concretely to [bad]; otherwise an
    [Invariant] give-up, so an engine slip never becomes a verdict. *)

val first_found : ('a -> outcome) -> 'a list -> outcome
(** Step 3 over a set of abstract traces (the paper's future-work
    extension): the query on each in turn; the first [Found] wins,
    [Not_found_here] only if every search space was proved empty, and
    otherwise the last give-up. *)

val deepen : (frames:int -> outcome) -> max_depth:int -> outcome
(** Bounded falsification: the query at 1, 2, ... [max_depth] frames
    until one answers [Found] or gives up. A [Found] trace is therefore
    a shortest counterexample (up to the per-depth resource limits). *)

val guided :
  ?limits:Rfn_atpg.Atpg.limits ->
  ?analysis:Rfn_analysis.Analysis.t ->
  ?bad:int ->
  Rfn_circuit.Circuit.t ->
  abstract_trace:Rfn_circuit.Trace.t ->
  outcome * Rfn_atpg.Atpg.stats
(** ATPG's Step-3 query under the abstract trace's pins, and [bad] at
    the last frame, {!validated}. Without [bad] (coverage analysis) the
    trace is the whole target and nothing replays. [analysis] supplies
    proven reachable-state invariants as a don't-care filter: a
    guidance cube pinning registers to a combination that contradicts a
    proven invariant cannot concretize (every cycle of the concrete
    search is a reachable state), so the query answers [Not_found_here]
    without searching — counted as [analysis.pruned_queries]. *)

val unguided :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  depth:int ->
  outcome * Rfn_atpg.Atpg.stats
(** Plain bounded search (only the bad objective at the last frame) —
    the baseline for the guidance ablation. *)

val falsify :
  ?limits:Rfn_atpg.Atpg.limits ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  max_depth:int ->
  outcome * Rfn_atpg.Atpg.stats
(** {!deepen} over the unpinned ATPG query: bounded falsification by
    plain sequential ATPG, the engine of the paper's reference [3]
    (Boppana et al., CAV 1999) with no abstraction and no guidance.
    Useful for shallow bugs, hopeless for deep ones. Statistics are
    summed over all depths tried. *)
