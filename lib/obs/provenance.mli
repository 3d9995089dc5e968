(** CEGAR provenance: one structured record per refinement iteration,
    answering "why did iteration [k] refine these registers?" after the
    run is gone.

    The CEGAR loop builds one record per iteration — the run's only
    per-iteration record, Figure 1's step counts included — and (a)
    appends it to the run's stats and (b) emits it as an ["rfn.iteration"]
    telemetry event, so a [--metrics-out] JSONL file carries the full
    audit trail. [rfn explain] re-reads that file and replays the
    refinement story ({!pp_story}).

    Serialization policy: [to_json]/[of_json] round-trip every field
    exactly, with two documented exceptions — non-finite floats
    serialize as JSON [null] and parse back as [0.0] (the JSON layer
    cannot represent them), and unknown fields are ignored on input so
    old readers survive new writers, and old files carrying a field
    since removed ([worker_failures]) still load. Fields added after
    the first release ([no_cut_steps], [min_cut_steps]) read as [0]
    when absent, so old metrics files and checkpoints load. *)

type t = {
  iter : int;  (** 1-based iteration number *)
  regs_before : int;  (** abstract-model registers entering the iteration *)
  regs_after : int;  (** registers after this iteration's refinement *)
  model_inputs : int;  (** free inputs of the abstract model *)
  fixpoint_steps : int;  (** abstract-MC image steps *)
  trace_depth : int option;  (** abstract error-trace length, if one was found *)
  cut_size : int option;  (** min-cut width of the extraction, if the hybrid ran *)
  no_cut_steps : int;
      (** hybrid pre-image steps solved from no-cut cubes, without ATPG
          (Figure 1); absent in files written before the field existed
          and parsed as [0] *)
  min_cut_steps : int;
      (** hybrid pre-image steps that needed ATPG cube extension over
          the min-cut (Figure 1); absent in old files, parsed as [0] *)
  cubes : int;  (** state+input cubes across all guidance traces *)
  guidance : int;  (** abstract guidance traces extracted *)
  engine : string;
      (** concretization engine family ("atpg" / "sat" / "portfolio";
          "" when concretization never ran) *)
  concretize : string;
      (** "found" | "not-found" | "gave-up:<resource>" | "none" *)
  promoted : string list;  (** names of registers/pseudo-inputs promoted *)
  candidates : int;  (** refinement candidates considered *)
  retries : int;  (** supervisor retry rungs executed this iteration *)
  fallbacks : int;  (** supervisor fallback rungs executed this iteration *)
  injected : int;  (** faults injected this iteration *)
  bdd_nodes : int;  (** live BDD nodes at iteration end *)
  bdd_peak : int;  (** peak live BDD nodes so far *)
  sat_learned : int;  (** SAT learned clauses added this iteration *)
  backtracks : int;  (** concrete ATPG backtracks this iteration *)
  seconds : float;  (** wall-clock seconds spent in the iteration *)
  outcome : string;
      (** "refined" | "proved" | "falsified" | "aborted:<resource>" *)
}

val to_json : t -> Json.t
val to_fields : t -> (string * Json.t) list
(** The same object as an association list, ready for
    {!Telemetry.event}. *)

val of_json : Json.t -> (t, string) result
(** Parse a record emitted by {!to_json} or an ["rfn.iteration"] event
    line (the ["ev"] tag and any unknown fields are ignored). Missing
    or ill-typed required fields yield [Error] with the field name. *)

val pp_story : Format.formatter -> t list -> unit
(** The whole run: one narrative line per record (e.g. ["iteration 3:
    model 5 regs / 12 inputs; fixpoint 14 steps; ..."]) plus a closing verdict
    line derived from the last record's [outcome]. *)
