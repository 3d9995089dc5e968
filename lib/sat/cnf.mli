(** Tseitin CNF encoding of time-frame-expanded subcircuit views.

    An unrolling owns one {!Solver.t} and encodes a {!Rfn_circuit.Sview}
    frame by frame: every signal of the view gets one literal per frame
    (gates via Tseitin variables, [Not]/[Buf]/constants as literal
    aliases, a register at frame [t > 0] as an alias of its next-state
    input's literal at frame [t - 1]), and frame-0 registers are clamped
    to their declared initial values by unit clauses (unless
    [~free_init:true]). The encoding is {e monotone}: deepening only
    appends clauses, so one instance serves every BMC depth and every
    guided-concretization query, keeping its learned clauses — the
    incremental formulation of Eén, Mishchenko & Amla. In the CEGAR
    loop that instance lives for one verification run: a
    [Rfn_core.Sat_bmc.unrolling] built on the first SAT query and
    extended by every later one, then dropped (never kept in a pooled
    server session). *)

type t

val create : ?log_learnts:bool -> ?free_init:bool -> Rfn_circuit.Sview.t -> t
(** An empty unrolling (no frames yet). [free_init] leaves frame-0
    registers unconstrained (default [false]: clamp to initial
    values). *)

val solver : t -> Solver.t
val view : t -> Rfn_circuit.Sview.t
val frames : t -> int
(** Number of frames encoded so far. *)

val extend : t -> frames:int -> unit
(** Encode up to [frames] frames (numbered [0 .. frames - 1]); frames
    already encoded are reused as-is (counted by the
    [sat.frames_reused] telemetry counter). *)

val lit_of : t -> frame:int -> int -> Solver.lit
(** The literal holding signal [s]'s value at [frame]. Raises
    [Invalid_argument] if the frame is not yet encoded or the signal is
    outside the view. *)

val lit_of_opt : t -> frame:int -> int -> Solver.lit option
(** Non-raising probe for {!lit_of}: [None] when the frame is not yet
    encoded or the signal carries no literal there. *)

val assumptions_of_pins : t -> (int * int * bool) list -> Solver.lit list
(** Translate ATPG-style pins [(frame, signal, value)] into assumption
    literals. *)

val trace : t -> frames:int -> Rfn_circuit.Trace.t
(** Read the solver's model back as an error trace over the view's
    registers and free inputs: [frames] state cubes and [frames] input
    cubes (the last one the final-cycle witness), mirroring the shape
    of [Rfn_atpg.Atpg.Sat] traces. Only meaningful right after
    {!Solver.solve} returned [Sat]. *)
