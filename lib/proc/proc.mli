(** Process-isolated engine workers: a fork-based pool that runs
    engine queries in child processes and races them under a hard
    watchdog.

    A hung BDD fixpoint, a SAT solver chewing through swap, or a
    segfault in an engine must never take the CEGAR driver down with
    it, and a wall-clock deadline must mean what it says even when the
    engine never polls its budget. The only way to guarantee both is
    process isolation: each query runs in a forked child, the parent
    supervises it over a pipe, and a watchdog enforces deadlines and a
    resident-set cap with an escalating [SIGTERM] -> [SIGKILL] ladder.

    {b Protocol.} The child speaks JSON Lines on its half of a pipe
    (see DESIGN.md §5.14): a [hello] line after the fork, periodic
    [hb] heartbeats carrying resident-set size (driven by
    [ITIMER_REAL]), then exactly one [result] or [error] line before
    [_exit]. The heartbeat timer is quiesced before the result is
    written, so the two writes cannot interleave. The parent treats
    any protocol violation — an unparseable line, an unknown event, a
    payload the caller rejects — as {!Rfn_failure.Worker_garbage}:
    output from a misbehaving worker is never trusted.

    {b Layering.} This library is payload-generic: entrants return
    {!Rfn_obs.Json.t} and the caller's [classify] decides what counts
    as a conclusive answer. Engine-specific encodings live above (the
    driver's racing wrappers), keeping [rfn.proc] free of any
    dependency on the engines it isolates.

    {b Fork safety.} The child immediately calls
    {!Rfn_obs.Telemetry.abandon_sinks} — it shares the parent's file
    descriptors and buffered bytes, so flushing or closing a sink from
    the child would corrupt the parent's telemetry files — and leaves
    via [Unix._exit], never [exit]. Counters bumped inside a child die
    with it; every metric below is counted by the parent. *)

(* ---- policy ----------------------------------------------------------- *)

type policy = {
  enabled : bool;
      (** run queries in isolated racing workers; when [false] callers
          keep everything in-process *)
  heartbeat_interval : float;  (** seconds between child heartbeats *)
  heartbeat_grace : float;
      (** extra heartbeat silence tolerated before the watchdog
          declares the worker hung and kills it *)
  max_rss_mb : int;
      (** resident-set cap per worker, in MiB; heartbeats carry the
          child's RSS and the watchdog kills on breach *)
  kill_grace : float;
      (** seconds between the watchdog's [SIGTERM] and the follow-up
          [SIGKILL] *)
  deadline_slack : float;
      (** scheduling slack added to a query deadline before the
          watchdog fires, so the child's own budget check gets first
          chance to give up cleanly *)
}

val default_policy : policy
(** Disabled, 50 ms heartbeats, 2 s heartbeat grace, 2 GiB RSS cap,
    0.5 s kill grace, 0.25 s deadline slack. *)

val policy_of_env : unit -> policy
(** {!default_policy}, enabled when [RFN_RACE] is [1], [true] or
    [yes]. *)

val available : unit -> bool
(** Whether worker processes can be forked here: a Unix platform. Where
    they cannot, callers keep everything in-process. *)

val rss_mb_of_file : string -> int
(** Resident-set size in MiB parsed from a [/proc/<pid>/statm]-format
    file. Returns 0 — "RSS unknown" — whenever the file is missing,
    truncated, unreadable mid-line, or malformed, bumping the
    [proc.rss_unknown] counter; the watchdog compares [rss >
    max_rss_mb], so 0 disables the memory cap rather than killing the
    heartbeat that samples it. Exposed (with the path as a parameter)
    so the degraded paths are testable without a broken procfs. *)

(* ---- fault injection --------------------------------------------------- *)

type worker_fault =
  | Kill  (** the worker SIGKILLs itself right after [hello] *)
  | Hang  (** the worker wedges silently: no heartbeats, no result *)
  | Garbage  (** the worker emits a non-protocol line and exits *)

val worker_fault_of_string : string -> worker_fault option
(** ["worker-kill"] / ["worker-hang"] / ["worker-garbage"], as spelled
    in [RFN_INJECT_FAULTS]. *)

val with_injected : worker_fault -> (unit -> 'a) -> 'a
(** [with_injected fault f] arms a one-shot injection slot and runs
    [f]: the next worker spawned inside [f] suffers [fault] instead of
    running its query. The slot is cleared when consumed and on exit
    from [f] (exceptions included). Used by the supervisor's [worker-*]
    injection modes; not thread-safe, like the rest of the driver. *)

(* ---- racing ------------------------------------------------------------ *)

type entrant = {
  name : string;  (** engine label, e.g. ["atpg"]; used in telemetry *)
  run : unit -> Rfn_obs.Json.t;
      (** the query, executed in the child; must encode {e every}
          outcome (including giving up) as a payload — an exception is
          reported as a worker failure, not an answer *)
}

type verdict =
  | Win  (** conclusive: first such payload settles the race *)
  | Hold
      (** valid but inconclusive (an engine gave up); kept as the
          answer of last resort if nobody wins *)
  | Reject of string
      (** not a credible payload (failed decode or re-validation);
          counted as {!Rfn_failure.Worker_garbage} *)

type failure = {
  entrant : string;
  resource : Rfn_failure.resource;  (** always one of the [Worker_*] *)
  detail : string;  (** diagnostic only, e.g. ["signaled -7"] *)
}

type outcome =
  | Winner of string * Rfn_obs.Json.t
      (** [classify] said {!Win}; the losers were cancelled *)
  | Held of string * Rfn_obs.Json.t
      (** every entrant finished, none conclusively; one {!Hold}
          payload (the first received) *)
  | All_failed of failure list
      (** no entrant produced a credible payload; the caller's ladder
          should fall back to its in-process rungs *)

val race :
  ?deadline:float ->
  policy:policy ->
  classify:(Rfn_obs.Json.t -> verdict) ->
  entrant list ->
  outcome
(** Run the entrants concurrently in isolated workers and return the
    first conclusive answer. [deadline] is a per-query wall-clock
    budget in seconds; the watchdog kills workers that outlive it by
    more than [policy.deadline_slack]. One entrant is a degenerate but
    valid race (isolation without competition).

    Telemetry (parent-side): counters [proc.workers_spawned],
    [proc.worker_failures], [race.runs], [race.wins],
    [race.wins.<entrant>]; a [proc.worker_failure] event per failure;
    and, when a trace sink is attached, one Chrome-trace lane per
    worker (named [worker:<entrant>]) with a slice per query.
    @raise Invalid_argument on an empty entrant list, or when
    {!available} is [false]. *)
