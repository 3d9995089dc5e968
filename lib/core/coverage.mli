(** Unreachable-coverage-state analysis (Section 3, Table 2).

    Given a set of coverage signals (registers encoding control state
    machines), identify as many coverage states — valuations of the
    coverage signals — as possible that are unreachable on the
    original design.

    {!rfn_analysis} is RFN's loop ({!Rfn.pursue}) on a coverage
    {!Rfn.goal}: the still-unknown states are the target of a fixpoint
    run to closure, and those outside its projection are unreachable
    (the abstract model over-approximates); a trace to the rest is
    concretized, and the coverage states the concrete trace visits are
    marked reachable, otherwise the model is refined.

    {!bfs_analysis} is the baseline of Ho et al. [ICCAD 2000]: take the
    k registers topologically closest to the coverage signals, compute
    the fixpoint on that fixed abstraction, and declare unreachable
    whatever its projection misses. *)

type status = Unknown | Unreachable | Reachable

type report = {
  total : int;  (** 2^(number of coverage signals) *)
  unreachable : int;
  reachable : int;  (** proven reachable by a concrete trace *)
  unknown : int;
  abstract_regs : int;  (** registers in the final abstract model *)
  iterations : int;
  seconds : float;
  status : status array;
      (** indexed by coverage-state code: bit i of the code is the
          value of the i-th signal in [coverage]. The analyses keep the
          unknown and reachable states as BDDs over the coverage bits;
          this array is built from them once, when the report is. *)
  failure : Rfn_failure.t option;
      (** why the analysis stopped early, when an engine did: a BDD
          node blow-up past the supervisor's retries, a fixpoint cut
          off by its step bound, a failed trace extraction or an empty
          refinement. [None] for a normal completion, and when the
          [Iterations] or [Time] budget runs out with states left
          unknown. A cut-off fixpoint ends the run, as for a property:
          no trace is chased into its partial rings. The remaining
          [unknown] counts are sound either way — a failure only means
          fewer states were classified. *)
}

val rfn_analysis :
  ?config:Rfn.config ->
  Rfn_circuit.Circuit.t ->
  coverage:int list ->
  report
(** All coverage signals must be registers. [config.max_seconds] is
    the analysis time budget (the paper used 1,800 s). *)

val bfs_analysis :
  ?k:int ->
  ?node_limit:int ->
  ?max_steps:int ->
  ?max_seconds:float ->
  Rfn_circuit.Circuit.t ->
  coverage:int list ->
  report
(** [k] defaults to 60, the paper's BFS abstract-model size. *)
