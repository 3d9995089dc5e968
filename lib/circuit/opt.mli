(** Netlist clean-up: constant propagation and structural rewriting.

    Gate-level designs arriving from synthesis or hand-written netlists
    carry constants and redundancies that inflate every downstream
    engine (cones, unrollings, transition relations). [simplify]
    rewrites a design into an equivalent, usually smaller one:

    - constants propagate through gates (an AND with a 0 fanin is 0, a
      MUX with a constant select collapses, XOR drops 0 fanins...),
    - duplicate fanins collapse where idempotence allows (AND/OR),
    - single-fanin AND/OR/BUF chains dissolve,
    - registers stuck at their concrete initial value
      ({!constant_registers}) become constants,
    - gates driving nothing observable are dropped.

    Observability is defined by the declared outputs plus all register
    next-state functions of registers in their cone; names of surviving
    signals are preserved. *)

type report = {
  gates_before : int;
  gates_after : int;
  registers_before : int;
  registers_after : int;
  constants_folded : int;
}

val simplify : Circuit.t -> Circuit.t * (int -> int option) * report
(** [simplify c] returns the rewritten design, a map from old signal
    identifiers to surviving new ones ([None] if the signal was swept
    or folded into a constant), and statistics. Declared outputs are
    always preserved (rewired to their simplified drivers). *)

val constant_registers : Circuit.t -> Bitset.t * Gate.ternary array
(** The constant-register greatest fixpoint shared by {!simplify},
    [Analysis.run] and lint's [const-reg] / [prop-const] passes.
    Candidates start as every register with a concrete initial value;
    the whole design is evaluated ternary ({!Gate.eval3}) with
    candidates at their initial values and inputs, free-initial and
    dropped registers X, and a candidate whose next-state value differs
    from its initial value is dropped, until nothing changes. Returns
    the surviving registers — each holds its initial value in every
    reachable state — and every signal's value in the last sweep: a
    concrete value there is the signal's value in every reachable state
    under every input. *)

val merge_equivalences :
  Circuit.t -> (int * int * bool) list -> Circuit.t * (int -> int option) * int
(** [merge_equivalences c pairs] applies proven equivalence directives
    [(keep, drop, phase)] — meaning [drop = keep xor phase] holds in
    every reachable state — by rewiring every reader of [drop] to read
    [keep] (inverted when [phase]) and deleting [drop]'s cell. The
    rewrite preserves the design's observable behaviour from its
    initial states (outputs as functions of the input history), which
    is exactly what the directives assert; it is {e not} a
    combinational equivalence in general.

    Directives are applied left to right; a directive is skipped (not
    an error) when [drop] is a primary input or a constant, [keep] does
    not precede [drop] in topological order, or [drop] was already
    merged. Chains ([b := a], then [c := b]) resolve transitively.
    Returns the rewritten design, the old-to-new signal map ([None] for
    merged or swept signals), and the number of directives applied. *)
