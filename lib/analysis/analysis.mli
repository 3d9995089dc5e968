(** Static invariant inference over the concrete netlist.

    Runs before CEGAR starts and hands every downstream engine a set of
    {e proven} facts about the design's reachable states:

    - an abstract-interpretation fixpoint over a per-register product
      domain — ternary constants ({!Rfn_circuit.Opt.constant_registers},
      the fixpoint behind the lint [const-reg] pass), Boolean
      implication pairs, and one-hot / mutex register groups,
    - a SAT-sweeping pass: structural signatures from
      {!Rfn_sim3v.Sim3v.Packed} random-pattern simulation propose gate
      and register equivalence candidates.

    Simulation and {!Rfn_circuit.Opt.constant_registers} only
    {e propose}. Every candidate is then checked {e inductively} on the
    concrete design with the in-house {!Rfn_sat.Solver} — base case on
    a one-frame unrolling clamped to the initial states, inductive step
    by mutual induction on a two-frame free-initial unrolling, iterated
    van Eijk-style (refuted candidates drop out of the hypothesis set and
    the survivors are re-checked until a full pass holds). Candidates
    that do not survive — including solver time-outs — are dropped,
    never trusted: {!invariants} holds proven facts only.

    Proven invariants are consumed as constraint BDDs conjoined into
    the abstract reachability computation ({!constraint_bdd}), as
    persistent per-frame clauses in incremental CNF unrollings
    ({!assume_frame}), as a don't-care filter for guided-ATPG pin cubes
    ({!refutes_pins}), and as netlist rewrites
    ({!Rfn_circuit.Opt.merge_equivalences} via {!equiv_pairs}). *)

type invariant =
  | Const_reg of { reg : int; value : bool }
      (** register [reg] holds [value] in every reachable state *)
  | Implication of { a : int; a_val : bool; b : int; b_val : bool }
      (** in every reachable state, [a = a_val] implies [b = b_val];
          [a < b] or different polarity — normalized so the clause form
          is canonical *)
  | Mutex of int array
      (** at most one of the registers is 1 in any reachable state
          (sorted, length >= 2) *)
  | One_hot of int array
      (** exactly one of the registers is 1 in any reachable state
          (sorted, length >= 2) *)
  | Equiv of { keep : int; drop : int; phase : bool }
      (** signal [drop] always equals [keep] (xor [phase]); [keep]
          precedes [drop] in topological order *)

type config = {
  patterns : int;  (** words of packed random patterns (63 lanes each) *)
  cycles : int;  (** simulated cycles per pattern word *)
  max_pair_regs : int;  (** cap on registers entering pairwise mining *)
  max_group : int;  (** cap on a mutex / one-hot group size *)
  max_equiv : int;  (** cap on equivalence candidates kept *)
  limits : Rfn_sat.Solver.limits;  (** per-query solver budget *)
  max_seconds : float option;  (** whole-analysis wall-clock budget *)
  seed : int;  (** PRNG seed for the random patterns *)
}

val default_config : config
(** 4 pattern words, 24 cycles, 64 pair registers, groups of 8, 128
    equivalence candidates, 20k conflicts per query, no wall-clock
    budget, seed 0. *)

val quick_config : config
(** Scaled-down budgets for pre-flight use (lint passes, [--analyze]
    on small designs): 2 words, 12 cycles, 4k conflicts. *)

type stats = {
  candidates : int;  (** candidates submitted to the inductive check *)
  proved : int;
  refuted : int;  (** killed by a SAT counter-model *)
  unknown : int;  (** dropped because a solver budget ran out *)
}

type t = {
  invariants : invariant list;  (** proven facts only, mining order *)
  stats : stats;
  seconds : float;
}

val run : ?config:config -> Rfn_circuit.Circuit.t -> t
(** Mine and inductively check invariants of the design. Bumps the
    [analysis.*] telemetry counters ([candidates], [proved], [refuted],
    [unknown]) inside an [analysis.run] span. *)

(** {2 Invariant structure} *)

val clauses_of : invariant -> (int * bool) list list
(** The invariant as a conjunction of clauses; each clause is a
    disjunction of [(signal, polarity)] literals over one time frame. *)

val signals_of : invariant -> int list
(** Signals mentioned, ascending. *)

val describe : Rfn_circuit.Circuit.t -> invariant -> string
(** One-line human-readable rendering using signal names. *)

val holds : t -> state:(int -> bool) -> values:(int -> bool) -> bool
(** Do all proven invariants hold in a state? [state] values register
    signals, [values] any signal (gate equivalences read combinational
    values). Exposed for the soundness test-suite and the [RFN_CHECK]
    invariant checker. *)

(** {2 Consumers} *)

val constraint_bdd : t -> Rfn_mc.Varmap.t -> Rfn_bdd.Bdd.t
(** Conjunction of the invariant constraints over the varmap's
    current-state variables. Invariants mentioning any signal without a
    [Cur] variable in the view are skipped (the care set is a sound
    weakening). *)

val assume_frame : t -> Rfn_sat.Cnf.t -> frame:int -> int
(** Add every invariant's clauses at [frame] to the unrolling as
    persistent clauses (skipping clauses with a literal outside the
    encoded view), returning the number added. Sound whenever frame
    states of the unrolling are reachable states of the design — i.e.
    the unrolling starts from the initial states. Bumps
    [analysis.clauses_added]. *)

val refutes_pins : t -> (int * int * bool) list -> bool
(** Do the [(frame, signal, value)] pins contradict a proven invariant
    within some frame? If so, no trace of the design that starts from
    the initial states satisfies them — a guided concretization query
    carrying such pins is doomed and may answer [Unsat] without
    searching. Bumps [analysis.pruned_queries] when true. *)

val equiv_pairs : t -> (int * int * bool) list
(** The proven equivalences as [(keep, drop, phase)] merge directives
    for {!Rfn_circuit.Opt.merge_equivalences}. *)

val to_json : t -> Rfn_obs.Json.t
(** The report as JSON: [stats], [seconds] and the invariant list. *)
