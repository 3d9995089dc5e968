(** Process-global telemetry: named counters, gauges and histograms,
    plus nested spans tracing the CEGAR loop, with an optional JSONL sink.

    The registry has two costs, by design:

    - {b Counters and gauges} are live even when telemetry is disabled —
      an increment is one or two unboxed integer writes, cheap enough
      for the BDD and ATPG hot paths.
    - {b Spans} are gated on {!enabled}: when the registry is
      disabled, {!with_span} is a single flag test plus the call to the
      wrapped function — no clock reads, no allocation. Instrumentation
      that must compute something expensive to record (e.g. a BDD size)
      should itself test {!enabled} first.

    The clock ({!now}) is monotonic-enough wall time
    ([Unix.gettimeofday]), not CPU time: engine budgets and reported
    seconds measure what a user actually waits. *)

(* ---- clock ----------------------------------------------------------- *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). Use this — never
    [Sys.time], which reports CPU time — for budgets and durations. *)

(* ---- registry control ------------------------------------------------ *)

val enabled : unit -> bool
val enable : unit -> unit
(** Start recording spans (idempotent). *)

val disable : unit -> unit
(** Stop recording spans; counters and gauges keep counting. *)

val reset : unit -> unit
(** Zero every registered metric (histograms included), clear span
    aggregates and the event context; rewinds the span-depth tracker,
    so it must be called between runs, never inside an open span.
    Handles already obtained remain valid (they are zeroed, not
    dropped). *)

(* ---- job scoping ----------------------------------------------------- *)

type scope
(** A snapshot of the process-global counters, taken when a server job
    starts, so the job's own contribution can be read back as a delta —
    sequential jobs in one process do not bleed into each other and
    nothing needs resetting between them. Taking a scope also
    rebaselines every gauge's peak to its current value, so a job's
    reported peak is its own, not a leftover spike from an earlier job
    on the same warm session. *)

val scope : unit -> scope

val scope_delta : scope -> (string * int) list
(** Counters that moved since the scope was taken, as
    [(name, delta)] pairs sorted by name; counters registered after the
    snapshot count from zero. Zero deltas are omitted. *)

(* ---- event context --------------------------------------------------- *)

val set_context : (string * Json.t) list -> unit
(** Fields appended to every {!event} line until changed — how server
    jobs stamp the shared JSONL stream with their job id so a reader
    ([rfn explain]) can de-interleave it. [set_context []] clears;
    {!reset} clears too. Explicit event fields come first, so a
    same-named field wins for readers taking the first occurrence. *)

val context : unit -> (string * Json.t) list
(** The currently set context fields (for save/restore nesting). *)

(* ---- metrics --------------------------------------------------------- *)

type counter
type gauge

val counter : string -> counter
(** Find-or-create: the same name always yields the same counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge

val record : gauge -> int -> unit
(** Set the gauge's current value, tracking the peak. *)

val rebase : gauge -> int -> unit
(** Set the gauge's current value and restart its peak from it — for a
    gauge whose earlier readings belong to another owner, as a fresh
    CEGAR run does with [bdd.live_nodes]. Other gauges keep their
    peaks (unlike {!scope}). *)

val gauge_value : gauge -> int
val gauge_peak : gauge -> int

(* ---- histograms ------------------------------------------------------ *)

type histogram
(** A log-bucketed distribution (factor-2 buckets from 1e-9 up):
    good for durations in seconds and resource counts alike, with
    quantiles accurate to within one bucket (a factor of 2). *)

val histogram : string -> histogram
(** Find-or-create, like {!counter}. *)

val observe : histogram -> float -> unit
(** Record one observation. Always live (like counters — a few integer
    writes); negative and non-finite values are dropped. Call sites
    that must {e compute} the value (a clock read, a BDD size) should
    gate on {!enabled} or use {!time_hist}. *)

val time_hist : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall-clock seconds as one observation
    when {!enabled}; when disabled it is just the call. Exceptions
    propagate; the partial duration is still observed. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_max : histogram -> float

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile ([0 < q <= 1])
    as the upper bound of the bucket holding the rank-[q] observation,
    clamped to the observed maximum; [0.0] with no observations. *)

(* ---- spans ----------------------------------------------------------- *)

val current_depth : unit -> int
(** Number of currently open spans. A balanced instrumentation layer
    returns to 0 after every run, whatever the outcome — the chaos
    tests assert exactly that. *)

val with_span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span when {!enabled}:
    wall-clock duration and nesting depth aggregate under [name] (see
    {!span_stats}), and if a sink is attached a ["span"] event is
    emitted on exit. Spans nest; exceptions propagate after the span is
    closed (the event carries ["error": true]). When disabled this is
    one flag test. *)

val span_stats : string -> (int * float) option
(** [(calls, total_seconds)] aggregated for a span name, if any span
    with that name has closed since the last {!reset}. *)

(* ---- sink ------------------------------------------------------------ *)

val attach_jsonl : string -> unit
(** Open [file] for writing and stream events to it as JSON Lines;
    implies {!enable}. Any previously attached JSONL sink is closed
    first, and a process-exit hook guarantees the file is flushed and
    snapshot-terminated even on abort paths.

    Event schema (one object per line):
    - [{"ev":"span","name":s,"ts":t0,"dur":d,"depth":n,"attrs":{...}}]
      — emitted when a span closes; [ts] is seconds since the sink was
      attached, [depth] is 1 for top-level spans;
    - [{"ev":"counter","name":s,"value":n}],
      [{"ev":"gauge","name":s,"value":n,"peak":p}],
      [{"ev":"timer","name":s,"calls":n,"seconds":d}] (one per span
      name: its aggregate),
      [{"ev":"histogram","name":s,"count":n,"sum":x,"max":x,"p50":x,
      "p90":x,"buckets":[[i,c],...]}] — the final metric snapshot
      written by {!detach}. *)

val attach_trace : string -> unit
(** Open [file] as a Chrome trace-event sink ({!Chrome_trace}); implies
    {!enable}. Every span close becomes a complete ("X") slice, every
    {!event} an instant marker, and every {!trace_counter} call a
    counter track sample — the result loads directly in Perfetto or
    chrome://tracing. Closed by {!detach} and by the process-exit
    hook, so the trace survives abort paths. *)

val trace_attached : unit -> bool

val detach : unit -> unit
(** Flush the metric snapshot to the JSONL sink, terminate the trace
    file, and close both. Safe to call with no sink attached (and
    called again from the exit hook); does not change {!enabled}. *)

val abandon_sinks : unit -> unit
(** Forget any attached sinks {e without} flushing or closing them.
    For forked worker processes only: a child shares the parent's file
    descriptors and buffered bytes, so flushing or closing from the
    child would corrupt the parent's output. Call immediately after
    [Unix.fork] in the child, before any engine work. *)

val trace_complete :
  ?tid:int ->
  name:string ->
  ?args:(string * Json.t) list ->
  start:float ->
  dur:float ->
  unit ->
  unit
(** Emit a complete ("X") slice directly on the trace sink (no-op
    without one), on lane [tid]: the worker pool draws one lane per
    engine process. [start] is a {!now} timestamp. *)

val trace_thread_name : tid:int -> string -> unit
(** Name a trace lane (no-op without a trace sink). *)

val event : string -> (string * Json.t) list -> unit
(** Emit a custom event line [{"ev":name, ...fields}] to the JSONL
    sink and an instant marker to the trace sink, whichever are
    attached. *)

val trace_counter : string -> (string * float) list -> unit
(** Emit one sample on a named counter track of the trace sink (no-op
    without one): [trace_counter "gc" [("heap_words", w)]]. *)

(* ---- reporting ------------------------------------------------------- *)

val snapshot : unit -> Json.t
(** All registered metrics and span aggregates as one JSON object:
    [{"counters":{...},"gauges":{...},"hists":{...},"spans":{...}}].
    Gauges appear as [{"value":v,"peak":p}], spans as
    [{"calls":n,"seconds":d}], histograms as
    [{"count":n,"sum":x,"max":x,"p50":x,"p90":x}]. *)

val pp_report : Format.formatter -> unit -> unit
(** Human-readable end-of-run report: per-span wall time, histogram
    quantiles, non-zero counters (with a derived BDD cache hit rate
    when the BDD counters are present), and gauge peaks. *)
