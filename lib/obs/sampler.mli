(** Lightweight resource sampler, ticked at CEGAR phase boundaries.

    Each {!tick} takes one cheap snapshot — [Gc.quick_stat] words and
    collection counts plus the current value/peak of every registered
    probe — and emits it as an ["sample"] telemetry event and as
    Chrome-trace counter-track samples. A tick with the registry
    disabled is a single flag test, so the loop can tick
    unconditionally.

    Probes are named thunks producing an [int]; the BDD, SAT and
    session layers register theirs at module init (live nodes, clause
    DB size, carried nodes) via the {!Telemetry} gauges they already
    maintain — {!tick} reads those gauges directly, so only
    out-of-registry quantities need explicit probes. *)

val register : string -> (unit -> int) -> unit
(** [register name probe] adds (or replaces) a named probe sampled on
    every tick. Probes must be cheap and must not raise; a raising
    probe is dropped from that tick's sample. *)

val tick : string -> unit
(** [tick label] snapshots GC statistics, the tracked gauges and every
    registered probe, tagged with the phase-boundary [label]. No-op
    when the telemetry registry is disabled. *)
