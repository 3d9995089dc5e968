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
val to_bool : v -> bool option
val conflicts : v -> v -> bool
(** Both concrete and different; X never conflicts. *)

val pp : Format.formatter -> v -> unit

val eval_gate : Rfn_circuit.Gate.kind -> (int -> v) -> int array -> v
(** {!Rfn_circuit.Gate.eval3}: the output is concrete whenever it is
    determined by the concrete fanins (e.g. one 0 on an AND). *)

val eval :
  Rfn_circuit.Sview.t -> free:(int -> v) -> state:(int -> v) -> v array
(** Values of all signals of the view (signals outside are reported X).
    [free] values the view's free inputs, [state] its registers. *)

val step :
  Rfn_circuit.Sview.t ->
  free:(int -> v) ->
  state:(int -> v) ->
  v array * (int -> v)
(** One clock cycle: combinational values plus next state. The next
    state of a register is the value of its next-state input. *)

(** Bit-parallel packed ternary simulation: {!Packed.lanes} independent
    ternary patterns per word, in two planes ([ones] / [unks]; a lane
    clear in both planes holds 0), evaluated with word-wide logic ops.
    Lanes fill the native int ([Sys.int_size] = 63 bits on 64-bit
    hosts) so no per-gate boxing or masking occurs. Semantics are
    lane-wise identical to the scalar evaluator above, which remains
    the differential oracle. *)
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

  val eval_gate : Rfn_circuit.Gate.kind -> (int -> w) -> int array -> w
  (** Lane-wise {!Sim3v.eval_gate}. *)

  type vec = { vones : int array; vunks : int array }
  (** Per-signal planes of one combinational evaluation. *)

  val read : vec -> int -> w
  val read_lane : vec -> int -> lane:int -> v

  val eval :
    Rfn_circuit.Sview.t -> free:(int -> w) -> state:(int -> w) -> vec
  (** Packed {!Sim3v.eval}: signals outside the view read as X in all
      lanes. Bumps the [sim.packed_words] telemetry counter by the
      number of word evaluations. *)

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
    returns the per-cycle combinational values ([cycles + 1] arrays). *)

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
