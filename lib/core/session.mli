(** Persistent verification session: one BDD manager for a whole CEGAR
    run.

    The paper's refinement loop is monotone — every iteration's
    abstract model contains the previous one — so the expensive
    symbolic state (cone BDDs, the clustered transition relation, the
    variable order) is mostly {e carried} rather than rebuilt. The
    session owns that state:

    - the abstraction, refined in place through
      {!Rfn_circuit.Abstraction.refine_delta};
    - one {!Rfn_mc.Varmap} grown in place ({!Rfn_mc.Varmap.grow}): a
      promoted pseudo-input's variable is re-rolled as its
      current-state variable, so every cone BDD compiled over the old
      view stays valid verbatim;
    - a persistent cone memo, extended incrementally with
      {!Rfn_mc.Symbolic.compile_view} — only the refinement delta's
      cones are compiled;
    - a cluster cache ({!Rfn_mc.Image.build}): carried registers form a
      verbatim-reusable prefix of the relation, so only the dirty
      suffix is re-clustered.

    Appending variables at the bottom of the order degrades it, so
    {!prepare} applies a grow-vs-rebuild policy: accept the grown
    manager while its (post-GC) node count stays within
    [grow_blowup × baseline]; past that, rebuild from scratch under a
    fresh FORCE order seeded by the carried one — the paper's "the
    variable order is saved and reused as the next iteration's
    initial order".

    Everything observable is counted under [session.*] telemetry
    names: [cones_reused]/[cones_recompiled],
    [clusters_reused]/[clusters_rebuilt],
    [grow_in_place]/[grow_rebuilds], [resets], and the
    [nodes_carried] gauge. *)

type policy = {
  reuse : bool;
      (** [false] switches to the from-scratch reference mode: every
          refinement replaces the manager with an empty replica under
          the {e identical} variable assignment
          ({!Rfn_mc.Varmap.replica}), so behaviour is bit-identical to
          the incremental mode while nothing is reused — the
          differential tests' baseline. *)
  grow_blowup : float;
      (** accepted post-grow node-count multiple of the previous
          iteration's baseline *)
  min_nodes : int;
      (** blow-up checks only start past this absolute node count *)
  sift_passes : int;
      (** ignored: nothing reads it, since a blow-up goes straight to
          the seeded rebuild. The field remains only because the
          benchmark harness (rfnbench/harness.ml) still sets it; it
          goes together with [Rfn.config.proc] when a benchmark change
          drops both there (ROADMAP, "Benchmark hygiene"). *)
}

val default_policy : policy
(** [{reuse = true; grow_blowup = 8.0; min_nodes = 100_000;
    sift_passes = 1}] *)

type prepared = {
  vm : Rfn_mc.Varmap.t;
  fn : int -> Rfn_bdd.Bdd.t;
      (** cone lookup over the session memo; raises [Invalid_argument]
          outside the view *)
  img : Rfn_mc.Image.t;
}

type t

val create :
  ?node_limit:int ->
  ?policy:policy ->
  Rfn_circuit.Circuit.t ->
  roots:int list ->
  t
(** A session starting from {!Rfn_circuit.Abstraction.initial} of the
    roots. No BDD work happens until {!prepare}. *)

val abstraction : t -> Rfn_circuit.Abstraction.t

val circuit : t -> Rfn_circuit.Circuit.t
(** The concrete circuit the session's abstractions are views of. *)

val policy : t -> policy

val varmap : t -> Rfn_mc.Varmap.t option
(** The session's current varmap, if one has been built — the
    [RFN_CHECK] invariant checker's view into the shared state. *)

val analysis : t -> Rfn_analysis.Analysis.t option
(** The concrete-design invariants cached on the session, if the
    [--analyze] pre-flight has run. Invariants are facts about the
    circuit, not about any abstraction, so a warm session reuses them
    across retargets. *)

val set_analysis : t -> Rfn_analysis.Analysis.t -> unit

val cone_signals : t -> int list
(** Signals holding a compiled cone in the session memo (the
    [Rfn_lint.Check.cone_cache] input). Total over the view's inside
    set right after {!prepare}. *)

val cache : t -> Rfn_mc.Image.cache
(** The session's cluster cache. Right after {!prepare}, the session's
    manager protects exactly its cones ({!cone_signals}), these
    clusters and the quantified copies, which are tagged with that
    manager. *)

val prepare : t -> prepared
(** Make the symbolic state match the current abstraction: compile the
    missing cones, re-cluster the dirty suffix of the relation, apply
    the grow-vs-rebuild policy. Idempotent between refinements (the
    second call returns the same triple). May raise
    [Rfn_bdd.Bdd.Limit_exceeded] — call it inside the supervised rung
    so a blow-up maps to a structured failure; the rung's reset then
    rebuilds cleanly. *)

val refine :
  t -> add:int list -> Rfn_circuit.Abstraction.delta
(** Refine the abstraction and grow (or, with [reuse = false],
    replicate) the varmap accordingly. Allocates no BDD nodes — safe
    to call outside the supervised rungs. *)

val reset : ?fresh_order:bool -> ?node_limit:int -> t -> unit
(** Drop the manager and every per-manager structure; the next
    {!prepare} rebuilds from scratch. With [fresh_order:false] (the
    default) the carried variable order seeds the rebuild's FORCE
    ordering; [fresh_order:true] discards it — the supervisor's
    fresh-order retry rung. [node_limit] replaces the session's node
    budget — the node-budget retry rung. *)

val retarget : t -> roots:int list -> unit
(** Point the session at a different property of the same circuit: the
    abstraction restarts from {!Rfn_circuit.Abstraction.initial} of the
    new roots. With [reuse = true] and a live manager, the varmap is
    rebased ({!Rfn_mc.Varmap.rebase}) so every carried signal keeps its
    value-now variable and the memoized cones the two views share stay
    valid verbatim — the cross-property warm-start of the serve layer;
    memo entries outside the new view and the whole cluster cache are
    dropped, and the next {!prepare} collects the previous property's
    garbage under the blow-up policy. With [reuse = false] the session
    forgets everything including the order seed, making the retargeted
    run bit-identical to a cold one. Counted as [session.retargets] and
    (warm path only) [session.retargets_warm]. *)
