(** Error traces.

    A trace of length [k] is a sequence [a1, v1, a2, v2, ..., ak] of
    state cubes [a_i] (assignments to registers, or to registers of an
    abstract model) and input cubes [v_i] (assignments to primary
    inputs — which for abstract models include the pseudo-inputs, i.e.
    register outputs of the original design not present in the
    abstraction).

    States and inputs may be *partial*: an abstract error trace only
    pins the signals the symbolic engines determined; everything else
    is a don't-care. Concrete replay of a trace lives in the simulator
    library ([Rfn_sim3v.Sim3v.replay]). *)

type t = { states : Cube.t array; inputs : Cube.t array }
(** Invariant: with [k] states, there are [k - 1] or [k] input cubes.
    The optional [k]-th input cube is the final-cycle input witness,
    needed when the bad indicator depends combinationally on inputs
    (with a registered watchdog, as in the paper's designs, the last
    state alone is the witness and [k - 1] inputs suffice). *)

val make : states:Cube.t array -> inputs:Cube.t array -> t
(** Checks the length invariant. *)

val length : t -> int
(** Number of states [k]; the trace spans [k - 1] clock cycles. *)

val state : t -> int -> Cube.t
(** [state t i] for [i] in [0 .. length-1]. *)

val input : t -> int -> Cube.t
(** [input t i]; empty cube when [i = length - 1] and no final-cycle
    witness was recorded. *)

val pins : t -> (int * int * bool) list
(** Every literal of the trace as a [(cycle, signal, value)] pin, from
    the state and input cubes of each cycle — the form guided ATPG and
    the SAT concretizer take as assumptions. Ordered last cycle first,
    within a cycle input literals before state literals. *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
