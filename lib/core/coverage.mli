(** Unreachable-coverage-state analysis (Section 3, Table 2).

    Given a set of coverage signals (registers encoding control state
    machines), identify as many coverage states — valuations of the
    coverage signals — as possible that are unreachable on the
    original design.

    {!rfn_analysis} runs the RFN loop with the still-unknown coverage
    states as the target set: when the abstract fixpoint closes without
    touching them, every remaining unknown state is unreachable (the
    abstract model over-approximates); when it reaches some, the
    abstract trace is concretized and the coverage states visited by
    the concrete trace are marked reachable, otherwise the model is
    refined.

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
          node blow-up, an aborted fixpoint or a failed trace
          extraction. [None] for a normal completion (including budget
          exhaustion with states left unknown). The remaining [unknown]
          counts are sound either way — a failure only means fewer
          states were classified. *)
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
