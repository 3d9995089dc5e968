(** Engine supervisor: retry / escalation / fallback around every
    engine invocation of the CEGAR loop, plus the deadline budget
    allocator and the fault-injection hook.

    The paper's central claim is that no single engine is robust enough
    alone — formal, simulation and hybrid engines must cover for each
    other. The supervisor is that idea applied to {e failures}: each
    loop step runs as a {e ladder} of rungs (a primary strategy, then
    retries with different resources, then fallbacks onto a different
    engine), and a rung's structured failure decides whether the next
    rung is tried ({!Rfn_failure.retryable_resource}) or the ladder
    aborts with a full {!Rfn_failure.t}.

    Recovery actions are counted under stable telemetry names:
    [supervisor.retries], [supervisor.fallbacks],
    [supervisor.escalations], [supervisor.injected_faults],
    [supervisor.recoveries]. *)

(** The four supervised invocation sites of {!Rfn.verify}. *)
type site =
  | Abstract_mc  (** BDD fixpoint on the abstract model *)
  | Hybrid_extract  (** BDD–ATPG abstract-trace extraction *)
  | Concretize  (** guided sequential ATPG on the original design *)
  | Refine  (** crucial-register selection *)

val site_to_string : site -> string
(** Stable CLI/telemetry tag: ["abstract-mc"], ["hybrid"],
    ["concretize"], ["refine"]. *)

(** A fault the injection hook may force on a site's primary rung. *)
type fault =
  | Fail  (** the rung fails with {!Rfn_failure.Injected} (not run) *)
  | Delay of float  (** sleep that many seconds, then run the rung *)
  | Worker of Rfn_proc.Proc.worker_fault
      (** arm the worker pool's one-shot injection slot and run the
          rung: the next worker it spawns is killed / hung / made to
          babble (see {!Rfn_proc.Proc.with_injected}); a rung that
          spawns no worker is unaffected *)

type kind =
  | Primary  (** the normal strategy; the only rung faults inject into *)
  | Retry  (** same engine, different resources *)
  | Fallback  (** a different engine or a degraded mode *)

type policy = {
  node_limit_growth : int;
      (** BDD node-budget multiplier for the last abstract-MC retry *)
  backtrack_growth : int;
      (** concrete-ATPG backtrack multiplier applied per escalation *)
  backtrack_cap : int;
      (** largest cumulative backtrack multiplier (geometric growth
          stops here) *)
  hybrid_share : float;
      (** fraction of the remaining wall budget a hybrid extraction may
          spend *)
  concretize_share : float;  (** same, for the guided concrete search *)
  refine_share : float;  (** same, for refinement trace checks *)
  grace_seconds : float;
      (** documented slack past [max_seconds]: a budget check happens
          between rungs, never inside an engine, so a run can overshoot
          by at most one clamped engine slice — bounded by this *)
}

val default_policy : policy
(** [{node_limit_growth = 4; backtrack_growth = 2; backtrack_cap = 8;
    hybrid_share = 0.25; concretize_share = 0.5; refine_share = 0.25;
    grace_seconds = 1.0}] *)

type t
(** Supervisor state for one [verify] run: the policy, the deadline,
    the injection hook and the current escalation factor. *)

val start :
  ?inject:(site -> fault option) -> policy -> max_seconds:float option -> t
(** [start policy ~max_seconds] begins the run's deadline clock. When
    [inject] is omitted the hook is taken from the [RFN_INJECT_FAULTS]
    environment variable (see {!inject_of_spec}); pass
    [~inject:(fun _ -> None)] to force injection off. *)

val policy : t -> policy

val time_left : t -> float option
(** Remaining wall budget, clamped at zero; [None] when unlimited. *)

val out_of_time : t -> bool

val clamp_limits : t -> site -> Rfn_atpg.Atpg.limits -> Rfn_atpg.Atpg.limits
(** Deadline budgeting: the base limits with [max_seconds] lowered to
    the site's share of the remaining wall budget ([hybrid_share],
    [concretize_share] or [refine_share]); never raises a limit. With
    no global budget the base limits pass through unchanged. *)

val concrete_limits : t -> Rfn_atpg.Atpg.limits -> Rfn_atpg.Atpg.limits
(** {!clamp_limits} for the {!Concretize} site with [max_backtracks]
    multiplied by the current escalation factor. *)

val escalation : t -> int
(** Current backtrack multiplier (1 until the first {!escalate}). *)

val set_escalation : t -> int -> unit
(** Restore a checkpointed escalation factor on resume, clamped into
    [[1, backtrack_cap]] — the file is not trusted to be in range. *)

val escalate : t -> unit
(** Grow the backtrack multiplier geometrically ([backtrack_growth]×)
    up to [backtrack_cap] — called when concretization gives up, so the
    next iteration searches harder. *)

val inject_of_spec : string -> (site -> fault option) option
(** Parse a fault-injection spec: [""] or ["off"] → [None] (no
    injection); ["all"] → every site; otherwise a comma-separated list
    of site tags (see {!site_to_string}) and/or worker-fault tokens
    (["worker-kill"], ["worker-hang"], ["worker-garbage"] — these
    target the {!Concretize} site's racing rung). Each entry faults
    {e once} per returned hook — the retry/fallback rung (or the
    surviving race entrant) must then succeed, which is exactly what
    the chaos tests assert. Raises [Invalid_argument] on an unknown
    tag. *)

val run :
  t ->
  site:site ->
  engine:Rfn_failure.engine ->
  phase:Rfn_failure.phase ->
  iteration:int ->
  (kind * string * (unit -> ('a, Rfn_failure.resource) result)) list ->
  ('a, Rfn_failure.t) result
(** Execute a ladder: each rung in order until one returns [Ok].
    Between rungs the deadline is checked (a blown budget aborts with
    [Time]). The injection hook is consulted for {!Primary} rungs only:
    [Fail] replaces the rung's result with [Error Injected] without
    running it, [Delay] sleeps (clamped to the remaining budget) and
    then runs it. A rung failing on a terminal resource
    (not {!Rfn_failure.retryable_resource}) stops the ladder
    immediately. On exhaustion the last failure is returned as a full
    {!Rfn_failure.t} carrying [iteration] and the number of rungs
    attempted after the first. Counters: executing a [Retry] rung bumps
    [supervisor.retries], a [Fallback] rung [supervisor.fallbacks], an
    injected fault [supervisor.injected_faults], and an [Ok] after at
    least one failed rung [supervisor.recoveries]; each rung failure
    emits a ["supervisor_failure"] telemetry event and each recovery a
    ["supervisor_recovery"] one. *)
