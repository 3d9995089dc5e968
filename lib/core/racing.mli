(** Engine races over the isolated worker pool: the portfolio as a
    genuine competition rather than a fallback ladder.

    The sequential portfolio runs guided ATPG, waits for it to give
    up, then runs SAT — the loser's whole budget is spent before the
    winner starts. These wrappers run both engines {e concurrently} in
    {!Rfn_proc.Proc} workers: the first conclusive answer (a validated
    counterexample, or a proof that the guided space is empty) wins
    and the loser is cancelled; give-ups are held as the answer of
    last resort.

    Everything a worker reports is re-validated on the parent side —
    a [Found] trace is replayed concretely
    ({!Rfn_sim3v.Sim3v.replay_concrete}) before it is believed, and a
    payload that fails decoding or replay is treated as
    {!Rfn_failure.Worker_garbage}. A race can therefore never turn a
    worker malfunction into a wrong verdict: at worst it degrades to
    [Error], and the supervisor ladder falls back to the in-process
    rungs. *)

val concretize :
  ?deadline:float ->
  policy:Rfn_proc.Proc.policy ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  (string * (unit -> Concretize.outcome)) list ->
  (Concretize.outcome, Rfn_failure.resource) result
(** Race guided concretization (Step 3): each named entrant runs in its
    own worker, so it must build whatever per-run state it needs (a SAT
    unrolling) inside its thunk. [Found] and [Not_found_here] are
    conclusive and win; a race where every entrant gave up yields
    [Ok (Gave_up _)] (the first give-up received) so the caller's
    escalation logic sees the same shape as the in-process engines;
    [Error] means no entrant produced a credible payload (a [Worker_*]
    resource — retryable, so the ladder falls back in-process).
    @raise Invalid_argument on an empty entrant list. *)

val falsify :
  ?deadline:float ->
  policy:Rfn_proc.Proc.policy ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  (string * (unit -> Bmc.outcome)) list ->
  (Bmc.outcome, Rfn_failure.resource) result
(** Race bounded falsification (the empty-refinement re-check), e.g.
    ATPG-based {!Bmc.falsify} against {!Sat_bmc.falsify}. [Found]
    (revalidated) and [Exhausted] win; all-gave-up yields
    [Ok (Gave_up _)]; [Error] as in {!concretize}. *)
