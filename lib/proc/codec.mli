(** JSON encodings for error traces, shared by the server's result
    lines and the readers that parse them back. Kept here (not in
    [rfn.circuit]) so the circuit layer stays JSON-free.

    The decoder is total: any shape violation — wrong arity, a
    contradictory cube, a trace breaking the state/input length
    invariant — yields [None]. Input is validated, never trusted. *)

val trace_to_json : Rfn_circuit.Trace.t -> Rfn_obs.Json.t
(** [{"states": [cube, ...], "inputs": [cube, ...]}], each cube a list
    [[[signal, value], ...]] of signal id and polarity pairs. *)

val trace_of_json : Rfn_obs.Json.t -> Rfn_circuit.Trace.t option
