(** Lightweight resource sampler, ticked at CEGAR phase boundaries.

    Each {!tick} takes one cheap snapshot — [Gc.quick_stat] words and
    collection counts plus the current value/peak of the gauges the
    BDD, SAT and session layers already maintain (live nodes, clause DB
    size, carried nodes) — and emits it as an ["sample"] telemetry
    event and as Chrome-trace counter-track samples. A tick with the
    registry disabled is a single flag test, so the loop can tick
    unconditionally. *)

val tick : string -> unit
(** [tick label] snapshots GC statistics and the tracked gauges,
    tagged with the phase-boundary [label]. No-op when the telemetry
    registry is disabled. *)
