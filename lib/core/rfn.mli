(** RFN: the abstraction-refinement property verifier (Section 2).

    The four-step loop of the paper, one function per step over the
    run's shared state:

    + generate the abstract model (a subcircuit; {!Rfn_circuit.Abstraction}),
    + prove the property or find an abstract error trace
      (BDD fixpoint {!Rfn_mc.Reach} + BDD–ATPG hybrid {!Hybrid}),
    + search for a concrete error trace on the original design
      (guided sequential ATPG {!Concretize}, or its SAT twin {!Sat_bmc}),
    + refine with crucial registers
      (3-valued simulation + greedy ATPG minimization, {!Refine}),

    repeated until the property is proved on an abstract model (then it
    holds for the design), a concrete counterexample is found, or a
    resource limit is exceeded. Symbolic image computation is never
    performed on the original design.

    Every engine invocation runs under the {!Supervisor}: a BDD node
    blow-up retries the fixpoint with a fresh variable order and then a
    grown node budget, a min-cut extraction failure falls back to pure
    pre-image, a concretization give-up escalates the ATPG backtrack
    budget for later iterations, and an empty refinement falls back to
    the highest-fanout pseudo-input and finally a BMC re-check. The
    Step-3 ladder and the re-check rungs are both built from one engine
    table ({!engines}), each engine answering the one query of
    {!Concretize} in this process. Failures that survive the ladders
    surface as [Aborted] with a structured {!Rfn_failure.t}. Each
    iteration leaves one {!Rfn_obs.Provenance.t} record. *)

type engines =
  | Atpg_only  (** the paper's engines only: guided sequential ATPG *)
  | Sat_only
      (** replace guided ATPG and the BMC re-check with their
          incremental-SAT twins ({!Sat_bmc}) *)
  | Portfolio
      (** ATPG first, SAT as an extra supervisor rung: a concretization
          give-up escalates to SAT-guided BMC at the same depth, and the
          empty-refinement BMC re-check gains a SAT twin *)

val engines_to_string : engines -> string

val engines_of_string : string -> engines
(** Inverse of {!engines_to_string} ([atpg] / [sat] / [portfolio]).
    Raises [Invalid_argument] on anything else. *)

val engines_of_env : unit -> engines
(** Reads the [RFN_ENGINE] environment variable; unset means
    {!Atpg_only}, an unknown value warns on stderr and falls back to
    {!Atpg_only}. *)

type config = {
  max_iterations : int;
  node_limit : int;  (** BDD node budget per iteration *)
  mc_max_steps : int;  (** fixpoint step bound *)
  max_seconds : float option;
      (** overall wall-clock budget ({!Rfn_obs.Telemetry.now}); the
          remaining budget handed to the engines is clamped at zero,
          and each supervised ATPG call gets at most its phase's share
          of what remains ({!Supervisor.clamp_limits}) — so a run
          overshoots the budget by at most one engine slice, bounded by
          [supervisor.grace_seconds] in the tests *)
  abstract_atpg : Rfn_atpg.Atpg.limits;
      (** budget for hybrid cube extension and refinement checks *)
  concrete_atpg : Rfn_atpg.Atpg.limits;
      (** budget for the guided search on the original design *)
  guidance_traces : int;
      (** how many abstract error traces to extract and try as guidance
          for the concrete search (default 1; values above 1 implement
          the paper's future-work multi-trace guidance) *)
  engines : engines;
      (** which Step-3/Step-4 falsification engines run, and in what
          order (default {!engines_of_env}, i.e. [RFN_ENGINE] or
          {!Atpg_only}) *)
  analyze : bool;
      (** run the static invariant-inference pre-flight
          ({!Rfn_analysis.Analysis.run}) on the concrete netlist before
          the loop, once per session (a warm session reuses the result
          across properties — invariants are facts about the design).
          The inductively *proved* invariants then feed every engine:
          a care-set restriction of the abstract fixpoint, persistent
          clauses in both SAT unrollings, and a reachability don't-care
          filter for guided ATPG. Unproven candidates are never
          consumed, so the verdict cannot change — only the work to
          reach it. Default [false] *)
  supervisor : Supervisor.policy;
      (** retry/escalation/fallback and deadline-sharing knobs *)
  inject : (Supervisor.site -> Supervisor.fault option) option;
      (** fault-injection hook for chaos testing; [None] (the default)
          defers to the [RFN_INJECT_FAULTS] environment variable *)
  session : Session.policy;
      (** persistent-session knobs: incremental reuse on/off and the
          grow-vs-rebuild thresholds ({!Session.default_policy}) *)
  check_invariants : bool;
      (** validate cross-artifact invariants ({!Rfn_lint.Check}) at
          every CEGAR phase boundary — varmap↔view totality and the
          session cone cache after each prepare, trace shape after
          extraction and concretization, the grown varmap after each
          refinement; a violation aborts with a structured
          [Invariant] failure. Defaults to the [RFN_CHECK]
          environment flag ({!Rfn_lint.Check.env_enabled}) *)
  proc : Rfn_proc.Proc.policy;
      (** ignored: every query runs in-process. The field remains only
          because the benchmark harness (rfnbench/harness.ml) still
          sets it; it goes when a benchmark change drops it there (see
          {!Rfn_proc.Proc}). Defaults to {!Rfn_proc.Proc.default_policy} *)
  checkpoint : string option;
      (** when set, serialize the loop state to this file at every
          iteration boundary (atomic write, keyed by a netlist
          digest); removed again on a conclusive verdict, kept on
          abort so the run can be resumed *)
  resume : bool;
      (** load [checkpoint] before starting (if the file exists and
          matches this design and property — otherwise warn and start
          fresh): the abstraction is re-seeded with the checkpointed
          registers, the escalation factor is restored, and iteration
          numbering continues where the killed run stopped *)
  job_id : string;
      (** server job identifier, woven into the checkpoint key
          ({!Rfn_proc.Checkpoint.make}/[validate]) so two queued jobs
          on the same (design, property) cannot adopt each other's
          loop state; [""] (the default) for stand-alone runs *)
}

val default_config : config

type stats = {
  provenance : Rfn_obs.Provenance.t list;
      (** chronological; the one per-iteration record: model size,
          fixpoint steps, hybrid cut and step counts, engine choices,
          refinement deltas and resource gauges — the same records the
          loop emits as ["rfn.iteration"] telemetry events *)
  coi_regs : int;
  coi_gates : int;
  final_abstract_regs : int;
  last_abstract_trace : Rfn_circuit.Trace.t option;
      (** the abstract error trace of the last iteration that produced
          one — what guided the final concretization (for ablations) *)
  seconds : float;
  resumed_iterations : int;
      (** iterations skipped because a checkpoint was resumed (0 for a
          fresh run); [provenance] still covers them — the
          checkpointed records come first — so this run itself ran
          [List.length provenance - resumed_iterations] iterations *)
}

type outcome =
  | Proved
  | Falsified of Rfn_circuit.Trace.t  (** validated concrete trace *)
  | Aborted of Rfn_failure.t
      (** which engine gave up, in which phase, on which resource, at
          which iteration, after how many recovery attempts — render
          with {!Rfn_failure.to_string} *)

val prepare :
  ?config:config -> Rfn_circuit.Circuit.t -> roots:int list -> Session.t
(** A persistent session for [circuit], sized by the config's
    [node_limit] and [session] policy. No BDD work happens yet. The
    session-scoped half of the API split: create once per design, then
    run {!verify_in_session} for each property. *)

val verify_in_session :
  ?config:config ->
  Session.t ->
  Rfn_circuit.Property.t ->
  outcome * stats
(** Run the four-step loop for one property on an existing session.
    The session is first retargeted ({!Session.retarget}) to the
    property's roots: on a warm session of the same design the cone
    BDDs shared between the previous property's views and this one's
    initial abstraction are reused verbatim, which is how the serve
    layer amortizes compilation across a batch. Verdicts never depend
    on session temperature — only the work to reach them does. *)

val verify :
  ?config:config ->
  Rfn_circuit.Circuit.t ->
  Rfn_circuit.Property.t ->
  outcome * stats
(** [prepare] + {!verify_in_session} on a fresh session: the original
    run-once entry point. *)

val check_coi_model_checking :
  ?node_limit:int ->
  ?max_steps:int ->
  ?max_seconds:float ->
  Rfn_circuit.Circuit.t ->
  Rfn_circuit.Property.t ->
  [ `Proved | `Reached of int | `Aborted of Rfn_failure.resource ] * float
(** The baseline the paper compares against: plain symbolic model
    checking of the property on the COI-reduced design (no
    abstraction). Returns the outcome and the wall-clock seconds
    spent. *)
