(** Engine races over the isolated worker pool: the portfolio as a
    genuine competition rather than a fallback ladder.

    The sequential portfolio runs guided ATPG, waits for it to give
    up, then runs SAT — the loser's whole budget is spent before the
    winner starts. {!race} runs the engines' answers to one query of
    {!Concretize} (Step 3 or the empty-refinement re-check)
    {e concurrently} in {!Rfn_proc.Proc} workers: the first conclusive
    answer ([Found], or [Not_found_here]: the search space is empty)
    wins and the losers are cancelled; give-ups are held as the answer
    of last resort.

    Everything a worker reports is re-validated on the parent side —
    a [Found] trace is replayed concretely
    ({!Rfn_sim3v.Sim3v.replay_concrete}) before it is believed, and a
    payload that fails decoding or replay is treated as
    {!Rfn_failure.Worker_garbage}. A race can therefore never turn a
    worker malfunction into a wrong verdict: at worst it degrades to
    [Error], and the supervisor ladder falls back to the in-process
    rungs. *)

val race :
  ?deadline:float ->
  policy:Rfn_proc.Proc.policy ->
  Rfn_circuit.Circuit.t ->
  bad:int ->
  (string * (unit -> Concretize.outcome)) list ->
  (Concretize.outcome, Rfn_failure.resource) result
(** Race the named entrants, each in its own worker, so each must build
    whatever per-run state it needs (a SAT unrolling) inside its thunk.
    A race where every entrant gave up yields [Ok (Gave_up _)] (the
    first give-up received), so the caller sees the same shape as from
    an in-process engine; [Error] means no entrant produced a credible
    payload (a [Worker_*] resource — retryable, so the ladder falls
    back in-process). Requires {!Rfn_proc.Proc.available}.
    @raise Invalid_argument on an empty entrant list. *)
