(** Min-cut designs (Ho et al., ICCAD 2000; used by RFN's hybrid
    engine, Section 2.2).

    Pre-image computation on an abstract model with thousands of free
    inputs is hopeless, so RFN pre-images on a *min-cut design*: a
    subcircuit of the abstract model that still contains the free-cut
    design (the registers plus every gate lying on a register-to-
    register combinational path) but has the fewest possible primary
    inputs. The inputs of the min-cut design are the signals of a
    minimum vertex cut separating the abstract model's free inputs from
    the free-cut design, found by max-flow on the node-split circuit
    graph — built over the abstract model's compiled form
    ({!Rfn_circuit.Sview.net}), so it has [2·|view| + 2] vertices
    whatever the size of the parent design. *)

type result = {
  mc : Rfn_circuit.Sview.t;
      (** the min-cut design: same registers as the abstract model,
          next-state cones truncated at the cut; its free inputs are
          the cut signals *)
  cut : int list;  (** the cut signals, sorted *)
  free_cut_gates : int;
      (** gates of the free-cut design (TFI ∩ TFO of the registers) *)
}

val compute : Rfn_circuit.Sview.t -> result
(** [compute n] for an abstract model [n]. The result's cut size never
    exceeds [Sview.num_free_inputs n] (taking every free input is
    always a valid cut). *)
