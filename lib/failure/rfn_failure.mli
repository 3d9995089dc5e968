(** Structured engine-failure reasons.

    Every engine of the multi-engine loop (the paper's central design:
    BDD model checking, BDD–ATPG hybrid trace extraction, sequential
    ATPG, bounded falsification) can hit a resource wall. The driver's
    supervisor decides per failure whether to retry with different
    resources, fall back to another engine, or give up — a decision that
    needs the {e kind} of failure, not a message string. This module is
    the shared taxonomy: which engine failed, in which phase of the
    CEGAR loop, on which resource, at which iteration, and after how
    many recovery attempts.

    The library sits below every engine ([Rfn_mc.Reach] aborts with a
    {!resource}, [Rfn_atpg.Atpg] aborts with a {!resource}, the hybrid
    engine raises one) and below the driver (whose [Aborted] outcome
    carries a full {!t}), so no layer ever matches on strings. *)

type engine =
  | Bdd_mc  (** symbolic fixpoint on the abstract model *)
  | Hybrid  (** BDD–ATPG trace extraction *)
  | Seq_atpg  (** sequential ATPG (concretization, refinement checks) *)
  | Bmc  (** bounded falsification fallback *)
  | Sat  (** incremental SAT bounded model checking *)
  | Cegar  (** the abstraction-refinement driver itself *)

type phase =
  | Abstract_mc  (** Step 2: prove or reach on the abstract model *)
  | Trace_extraction  (** Step 2: abstract error-trace extraction *)
  | Concretization  (** Step 3: guided search on the original design *)
  | Refinement  (** Step 4: crucial-register selection *)
  | Loop  (** the iteration/budget bookkeeping around the steps *)

type resource =
  | Nodes  (** BDD node budget *)
  | Steps  (** fixpoint step bound *)
  | Time  (** wall-clock budget *)
  | Backtracks  (** ATPG backtrack budget *)
  | Conflicts  (** SAT solver conflict budget *)
  | Cube_tries  (** hybrid cube-extension attempts exhausted *)
  | Iterations  (** CEGAR iteration bound *)
  | No_refinement  (** no crucial registers found — the loop is stuck *)
  | Injected  (** a fault-injection hook forced this failure *)
  | Invariant of string
      (** an internal invariant slipped; degraded to a reported failure
          instead of a crash (the message is diagnostic only — nothing
          may match on it) *)

type t = {
  engine : engine;
  phase : phase;
  resource : resource;
  iteration : int;  (** CEGAR iteration (1-based); 0 when not in a loop *)
  retries : int;  (** recovery attempts made before giving up *)
}

val make :
  ?iteration:int -> ?retries:int -> engine:engine -> phase:phase ->
  resource -> t
(** [iteration] and [retries] default to 0. *)

val retryable_resource : resource -> bool
(** Whether a failure on this resource is worth a retry or fallback
    with different resources: node, backtrack and cube budgets can be
    raised, an empty refinement admits a coarser fallback heuristic, an
    injected fault simulates one of those, and an invariant slip may be
    avoided by a different engine. [Time], [Steps] and [Iterations] are
    terminal: more of the same will not help. *)

val resource_to_string : resource -> string

val to_string : t -> string
(** One human-readable line, e.g.
    ["BDD node limit in abstract model checking (BDD fixpoint engine, iteration 3, 2 recovery attempts)"]. *)

val pp_resource : Format.formatter -> resource -> unit

val to_attrs : t -> (string * Rfn_obs.Json.t) list
(** Telemetry span/event attributes:
    [engine], [phase], [resource], [iteration], [retries]. Engine,
    phase and resource are stable tags with no spaces, e.g.
    ["backtracks"]; [Invariant _] tags as ["invariant"], dropping its
    message. *)
