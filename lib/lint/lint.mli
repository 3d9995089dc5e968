(** Netlist lint engine: a pass-based static-analysis framework over
    designs and properties.

    RFN's CEGAR loop assumes its inputs are sane — acyclic
    combinational logic, connected registers, a property cone that is
    not structurally constant. This module checks those assumptions
    {e before} an engine burns its deadline budget on them: each
    {!pass} inspects a finalized {!Rfn_circuit.Circuit.t} (and,
    for property passes, a set of {!Rfn_circuit.Property.t}) and
    reports structured {!finding}s rendered as text or JSON.

    The built-in passes:

    - [const-reg] (warning) — registers whose next-state input is
      structurally constant under ternary constant propagation
      ({!Rfn_circuit.Opt.constant_registers}, seeded from the declared
      initial values, every primary input X);
    - [self-loop-reg] (warning) — registers clocked from their own
      output (they hold their initial value forever);
    - [dead-input] (warning) — primary inputs driving no logic;
    - [floating-gate] (warning) — gates whose output is read by
      nothing and declared by nothing;
    - [unreachable-logic] (info) — logic outside the cone of influence
      of every declared output and property;
    - [duplicate-gate] (info) — structurally identical named gates
      (same kind, same fanins) that hash-consing could not merge;
    - [equiv-reg] (warning) — registers the invariant-inference engine
      ({!Rfn_analysis.Analysis}, quick budget) inductively {e proved}
      equal (or antivalent) to an earlier signal in every reachable
      state — redundant state that {!Rfn_circuit.Opt.merge_equivalences}
      could fold away;
    - [onehot-violation] (error) — properties whose bad signal is
      satisfiable in some state but unsatisfiable under the proven
      one-hot/mutex register-group invariants: the property can only
      fire by violating an encoding no reachable state violates, so
      the check is vacuous;
    - [prop-const] (error for constant-1, warning for constant-0) —
      property signals that are structurally false (the bad signal is
      stuck at 1) or vacuously true (stuck at 0);
    - [prop-free-init] (warning) — property cones that depend on
      registers with a [`Free] initial value (initial-state
      underconstraint).

    Cross-artifact invariant checks over the mutable engine state
    (varmaps, traces, CNF unrollings, the session cone cache) live in
    {!Check}. *)

type severity = Error | Warning | Info

type finding = {
  pass : string;  (** name of the pass that produced the finding *)
  severity : severity;
  signals : int list;  (** implicated signal ids, if any *)
  message : string;  (** human-readable, names already resolved *)
}

val finding : pass:string -> severity:severity -> ?signals:int list ->
  string -> finding

type report = {
  findings : finding list;
      (** sorted most severe first, then by pass name *)
  passes_run : string list;
}

val run :
  ?only:string list ->
  ?props:Rfn_circuit.Property.t list ->
  Rfn_circuit.Circuit.t ->
  report
(** Run the built-in passes in the order listed above ([only]
    restricts to the named ones; unknown names raise
    [Invalid_argument]) and bump the [lint.*]
    telemetry counters ([lint.passes_run], [lint.findings],
    [lint.errors], [lint.warnings], [lint.info]). The invariant
    analysis and {!Rfn_circuit.Opt.constant_registers} run at most once
    per call, shared by the passes that need them, and not at all when
    no selected pass does. *)

val errors : report -> int

val pp_report : Format.formatter -> report -> unit
(** One finding per line: [severity: [pass] message]; a trailing
    summary line with the severity tally. *)

val report_to_json : Rfn_circuit.Circuit.t -> report -> Rfn_obs.Json.t
(** [{"findings":[{"pass","severity","signals","message"},...],
    "errors":n,"warnings":n,"infos":n,"passes_run":[...]}]; signals
    are rendered as names. *)
