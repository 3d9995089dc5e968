(** Subcircuit views.

    Every engine in this system (symbolic model checking, ATPG,
    3-valued simulation, min-cut extraction) runs either on the whole
    design or on a subcircuit of it — an abstract model, a COI
    reduction, a min-cut design. A view describes such a subcircuit by
    the parent's signal identifiers: the view records which signals of
    the parent belong to the model and which act as its free inputs.
    Results that leave an engine (traces, cuts, pins, literal maps)
    speak of parent identifiers.

    Engines do not walk the parent, though. Each view carries a dense
    compiled form ({!Vnet}, obtained with {!net}) that renumbers its
    signals [0 .. size - 1] in parent order and lays out their kinds,
    fanins and fanouts in flat arrays, so a kernel costs the view's
    size rather than the design's. It is compiled on first use and
    lives exactly as long as the view.

    A free input is either a primary input of the parent design or a
    cut signal: a register output or internal signal whose driver was
    abstracted away (a pseudo-input in the paper's terminology). *)

type t = {
  circuit : Circuit.t;
  inside : Bitset.t;  (** signals belonging to the view *)
  free : Bitset.t;  (** subset of [inside] acting as free inputs *)
  regs : int array;  (** state-holding registers of the view, sorted *)
  free_inputs : int array;  (** free inputs, sorted *)
  roots : int list;  (** distinguished outputs (e.g. the bad signal) *)
  compiled : Vnet.t Lazy.t;  (** read it through {!net} *)
}

val make :
  Circuit.t -> inside:Bitset.t -> free:Bitset.t -> roots:int list -> t
(** Checks well-formedness: free signals are inside; every non-free
    signal inside is a constant, a register whose next-state input is
    inside, or a gate whose fanins are all inside; roots are inside. *)

val whole : Circuit.t -> roots:int list -> t
(** The whole design as a view: free inputs are its primary inputs.
    Built once per circuit (found by physical identity, held weakly) and
    shared by every later call, compiled form included; only [roots]
    differs between calls. Local and parent ids coincide on it. *)

val net : t -> Vnet.t
(** The view's compiled form, built on the first call. *)

val mem : t -> int -> bool
val is_free : t -> int -> bool
val num_regs : t -> int
val num_free_inputs : t -> int

val is_state : t -> int -> bool
(** The signal is a register of the view (not abstracted away). *)

val pp_stats : Format.formatter -> t -> unit
