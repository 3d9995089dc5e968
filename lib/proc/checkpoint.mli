(** Crash-safe CEGAR checkpoints.

    The driver serializes its loop state — the abstraction's register
    set, the iteration counter, the wall-clock already spent, the
    provenance tail — at each iteration boundary, so a killed run
    resumes from its last completed refinement instead of restarting.
    A checkpoint never stores the netlist itself, only a digest of it:
    on resume the digest and property name must match the freshly
    loaded design, otherwise the checkpoint is stale and the run
    starts over (registers are stored by name, so a renamed or
    re-synthesized design must not silently re-seed an abstraction).

    Writes are atomic (temp file in the same directory, then [rename])
    so a crash mid-save leaves the previous checkpoint intact, never a
    torn file. *)

type t = {
  version : int;  (** format version: {!make} writes the current one *)
  netlist_hash : string;  (** {!hash_circuit} of the design under proof *)
  property : string;  (** property name the run was verifying *)
  job_id : string;
      (** server job identifier, part of the checkpoint key: two queued
          jobs on the same (design, property) must not adopt each
          other's loop state. [""] for stand-alone runs, and for
          checkpoints written before the field existed. *)
  iteration : int;
      (** 1-based index of the next iteration to run: every iteration
          below it completed before the checkpoint was written *)
  seconds_used : float;  (** wall-clock consumed before the checkpoint *)
  escalation : int;
      (** the supervisor's backtrack-escalation factor at checkpoint
          time, so a resumed run searches as hard as the killed one *)
  regs : string list;
      (** register names of the abstraction, including every
          refinement promoted so far *)
  provenance : Rfn_obs.Provenance.t list;
      (** completed-iteration records, oldest first *)
}

val hash_circuit : Rfn_circuit.Circuit.t -> string
(** Hex digest of the canonical BENCH rendering: stable across loads
    of the same design, different for any structural change. *)

val make :
  ?job_id:string ->
  netlist_hash:string ->
  property:string ->
  iteration:int ->
  seconds_used:float ->
  escalation:int ->
  regs:string list ->
  provenance:Rfn_obs.Provenance.t list ->
  unit ->
  t
(** A checkpoint in the current format version, the only one {!load}
    accepts. [job_id] defaults to [""]
    (stand-alone run). *)

val save : string -> t -> unit
(** Atomically (write temp + rename) persist to [file].
    @raise Sys_error when the directory is not writable. *)

val load : string -> (t, string) result
(** Read and parse [file]; [Error] describes what is wrong (missing
    file, malformed JSON, missing field, unsupported version) without
    raising. *)

val validate :
  ?job_id:string ->
  t ->
  netlist_hash:string ->
  property:string ->
  (unit, string) result
(** Check a loaded checkpoint against the run about to resume;
    [Error] explains the mismatch (hash, property or job id).
    [job_id] defaults to [""], matching stand-alone checkpoints. *)

(** {1 One run's checkpoint file}

    What [Rfn] uses: name the file once, resume from it at
    start, persist the loop state at every iteration boundary, retire
    the file on a conclusive verdict. *)

type run

val for_run :
  ?job_id:string -> string -> Rfn_circuit.Circuit.t -> property:string -> run
(** The checkpoint key of one run: file, job id ([""] by default),
    property and a digest of the netlist (taken once, here). *)

val resume : run -> ((t * int list) option, string) result
(** [Ok None] when the file does not exist; [Ok (Some (ck, regs))] for
    a checkpoint that passed {!validate}, its registers resolved to
    signal ids; [Error] says why an existing file is unusable
    (unreadable, stale, or naming a register the design lacks). *)

val persist :
  run ->
  iteration:int ->
  seconds_used:float ->
  escalation:int ->
  regs:int list ->
  provenance:Rfn_obs.Provenance.t list ->
  (unit, string) result
(** {!save} the loop state before [iteration]; [regs] are signal ids,
    stored by name. [Error] carries the write failure. *)

val retire : run -> unit
(** Remove the file, if any. *)
