(** Three-valued (0/1/X) gate-level simulation.

    RFN uses 3-valued simulation in Step 4: the abstract error trace is
    replayed step-by-step on the original design with every signal the
    trace does not pin set to the unknown value X, and registers whose
    simulated value *conflicts* with the trace (concrete 0 vs concrete
    1 — X conflicts with nothing) become crucial-register candidates.

    The same machinery validates concrete counterexamples (replay with
    unassigned inputs defaulted) and backs the ATPG engine's forward
    implication. *)

type v = Rfn_circuit.Gate.ternary = V0 | V1 | VX

val of_bool : bool -> v
val conflicts : v -> v -> bool
(** Both concrete and different; X never conflicts. *)

val pp : Format.formatter -> v -> unit

val eval :
  Rfn_circuit.Sview.t -> free:(int -> v) -> state:(int -> v) -> v array
(** Values of all signals of the view, indexed by local id
    ({!Rfn_circuit.Vnet}; on a whole view, by signal). [free] values
    the view's free inputs, [state] its registers; both receive parent
    signal ids. Runs on the view's compiled form: its cost is the
    view's size. *)

val step :
  Rfn_circuit.Sview.t ->
  free:(int -> v) ->
  state:(int -> v) ->
  v array * (int -> v)
(** One clock cycle: combinational values plus next state. The next
    state of a (parent) register is the value of its next-state input,
    X when that input lies outside the view. *)

(** Bit-parallel packed ternary simulation: {!Packed.lanes} independent
    ternary patterns per word, in two planes ([ones] / [unks]; a lane
    clear in both planes holds 0), evaluated with word-wide logic ops.
    Lanes fill the native int ([Sys.int_size] = 63 bits on 64-bit
    hosts) so no masking occurs, and a view evaluation computes every
    gate straight into the two planes without allocating. Semantics
    are lane-wise identical to the scalar evaluator above, which
    remains the differential oracle. *)
module Packed : sig
  val lanes : int

  type w = { ones : int; unks : int }
  (** Invariant: [ones land unks = 0]. *)

  val zero : w
  (** All lanes 0. *)

  val splat : v -> w
  (** The same value in every lane. *)

  val get : w -> int -> v
  val set : w -> int -> v -> w

  val of_fun : (int -> v) -> w
  (** [of_fun f] has lane [i] holding [f i]. *)

  type vec = { vones : int array; vunks : int array }
  (** Per-signal planes of one combinational evaluation, indexed by the
      view's local ids (on a whole view, by signal). *)

  val read : vec -> int -> w
  val read_lane : vec -> int -> lane:int -> v
  (** Both take a local id. *)

  val eval_net :
    ?into:vec ->
    Rfn_circuit.Vnet.t ->
    free:(int -> w) ->
    state:(int -> w) ->
    vec
  (** Packed evaluation of a compiled view; [free] and [state] receive
      local ids and are called once per free input / register, in
      ascending local order. [into] (planes of the view's size) is
      overwritten and returned instead of fresh planes, so a frame
      loop can recycle its buffers. Bumps the [sim.packed_words]
      telemetry counter by the number of word evaluations (the view's
      size). *)

  val eval :
    Rfn_circuit.Sview.t -> free:(int -> w) -> state:(int -> w) -> vec
  (** Packed {!Sim3v.eval}: {!eval_net} on the view's compiled form,
      with parent ids given to [free] and [state]. *)

  val step :
    Rfn_circuit.Sview.t ->
    free:(int -> w) ->
    state:(int -> w) ->
    vec * (int -> w)

  val run :
    Rfn_circuit.Sview.t ->
    init:(int -> w) ->
    inputs:(cycle:int -> int -> w) ->
    cycles:int ->
    vec array
end

(** Replaying traces on a design. *)

val run :
  Rfn_circuit.Sview.t ->
  init:(int -> v) ->
  inputs:(cycle:int -> int -> v) ->
  cycles:int ->
  v array array
(** [run view ~init ~inputs ~cycles] simulates [cycles] transitions and
    returns the per-cycle combinational values ([cycles + 1] arrays,
    indexed like {!eval}'s). *)

val replay :
  Rfn_circuit.Circuit.t -> Rfn_circuit.Trace.t -> Packed.vec array
(** Deterministic replay of a (possibly partial) trace on the whole
    design: primary inputs take their trace value, defaulting to 0;
    registers start from their declared initial values, with [`Free]
    registers taking the value the trace's first state assigns (default
    0). Returns one frame per trace state, every lane holding the same
    (concrete) values; read lane 0. *)

val replay_concrete :
  Rfn_circuit.Circuit.t -> Rfn_circuit.Trace.t -> bad:int -> bool
(** Whether the [bad] signal is 1 in some frame of {!replay} — i.e.
    whether the trace, completed with defaults, is a genuine
    counterexample. *)
