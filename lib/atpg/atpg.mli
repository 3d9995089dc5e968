(** Structural ATPG engine (combinational and sequential).

    A PODEM-style test generator operating directly on subcircuit
    views: decisions are made only on free variables (primary inputs,
    pseudo-inputs, free-initial registers), values are propagated by
    event-driven 3-valued simulation, and unjustified requirements are
    driven to decisions by objective backtracing. Chronological
    backtracking over the decision stack makes the procedure complete;
    a backtrack budget and an optional wall-clock budget
    ({!Rfn_obs.Telemetry.now}) implement the paper's resource limits.

    The solver runs on the view's compiled form
    ({!Rfn_circuit.Sview.net}): its value cells, implication passes and
    SCOAP controllability (computed once per view) all cost the view's
    size, not the parent design's; pins are translated in and traces
    out at the API edge.

    Sequential problems are solved by time-frame expansion: [frames]
    copies of the combinational logic with register outputs at frame
    [t > 0] reading the register's next-state input at frame [t - 1],
    and frame-0 registers fixed to their initial values (or left free
    with [~free_init:true], as the hybrid engine's cube-extension
    queries require). A run with [frames = 1] and [~free_init:true] is
    exactly a combinational ATPG run in the paper's sense.

    Requirements are given as pinned values [(frame, signal, value)]:
    a pin on a free variable is applied as a root assignment, a pin on
    any other signal becomes an objective the search must justify.
    This uniformly encodes the paper's uses: an error-trace constraint
    cube pins register and input values cycle by cycle, the target pins
    the bad signal to 1 at the last frame, and a min-cut cube pins
    internal signals of the abstract model. *)

type answer =
  | Sat of Rfn_circuit.Trace.t
      (** A satisfying trace: state cubes read back from the implied
          register values, input cubes from the decided free variables
          (both partial — unassigned means don't-care). The trace has
          [frames] states and [frames] input cubes (the last one is the
          final-cycle witness). *)
  | Unsat  (** The requirements are unsatisfiable — a proof. *)
  | Abort of Rfn_failure.resource
      (** A resource limit was hit first: [Backtracks] (the budget can
          be escalated and the search retried) or [Time] (terminal for
          this run's wall-clock budget). *)

type stats = { decisions : int; backtracks : int }

type limits = { max_backtracks : int; max_seconds : float option }

val default_limits : limits
(** 20,000 backtracks, no time budget. *)

val solve :
  ?free_init:bool ->
  ?random_phase:bool ->
  ?limits:limits ->
  Rfn_circuit.Sview.t ->
  frames:int ->
  pins:(int * int * bool) list ->
  unit ->
  answer * stats
(** [solve view ~frames ~pins ()] searches for an assignment to the
    free variables of the [frames]-fold unrolling of [view] satisfying
    every pin. Raises [Invalid_argument] on an out-of-range frame, a
    pin on a signal outside the view, or [frames < 1].

    [random_phase] (default [true]) first throws
    [Sim3v.Packed.lanes]-wide random concrete patterns at the unrolled
    frames; a lane satisfying every pin answers [Sat] with zero
    decisions. Traces found this way assign {e every} free variable, so
    callers that depend on near-minimal satisfying assignments — the
    hybrid engine's cube-extension queries, whose partial cubes steer
    guided concretization — must pass [~random_phase:false]. Verdicts
    are unaffected either way: the phase can only conclude [Sat], and
    only when a genuine witness exists. *)
