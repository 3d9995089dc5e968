(** Building BDDs for subcircuit cones.

    Every signal of a view becomes a function of the view's
    current-state and input variables. Signals are processed in
    topological order, so recursion depth is never an issue; gates are
    shared through the circuit's structural hashing. *)

val compile_view :
  Varmap.t -> Rfn_circuit.Sview.t -> memo:(int, Rfn_bdd.Bdd.t) Hashtbl.t -> int
(** Incremental cone compiler: walk the circuit in topological order
    and build the BDD of every view signal {e missing} from [memo],
    protecting each new entry in the varmap's manager. Returns how many
    signals were compiled. A session calls this after {!Varmap.grow}
    with its persistent memo: carried signals are skipped, so only the
    refinement delta's cones are built. May raise
    [Rfn_bdd.Bdd.Limit_exceeded]. *)

val functions : Varmap.t -> (int -> Rfn_bdd.Bdd.t)
(** [functions vm] returns a memoized lookup: the BDD of any signal
    inside the view, over [Cur] variables (registers) and [Inp]
    variables (free inputs). Raises [Invalid_argument] for signals
    outside the view. May raise [Rfn_bdd.Bdd.Limit_exceeded]. *)

val initial_states : Varmap.t -> Rfn_bdd.Bdd.t
(** Conjunction of the registers' initial values over [Cur] variables;
    [`Free] registers are unconstrained. *)

val state_cube : Varmap.t -> Rfn_circuit.Cube.t -> Rfn_bdd.Bdd.t
(** BDD of a cube over register signals ([Cur] variables). Assignments
    to non-register signals are rejected with [Invalid_argument]. *)
