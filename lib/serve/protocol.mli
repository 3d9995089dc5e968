(** Wire protocol of the verification server: JSON Lines, one message
    per line, over stdio or a Unix socket.

    Requests (client → server):
    {v
    {"op":"submit","id":"j1","design":"fifo.bench","property":"psh_hf"}
    {"op":"submit","id":"j2","netlist":"INPUT(a)\n...","property":"bad",
     "max_iterations":32,"node_limit":500000,"mc_max_steps":200,
     "max_seconds":60.0,"engines":"portfolio","analyze":true}
    {"op":"status"}            {"op":"status","id":"j1"}
    {"op":"cancel","id":"j1"}
    {"op":"shutdown"}
    v}

    Responses (server → client) are built by the server; this module
    only fixes the request side and the shared budget record. Every
    submit is answered by an [ack] (or [error]) line immediately and by
    exactly one [result] line later; [shutdown] drains the queue — the
    remaining jobs still run and report — then answers [bye]. *)

type design =
  | File of string  (** path to a [.bench] netlist *)
  | Netlist of string  (** inline netlist text *)

type budget = {
  max_iterations : int option;
  node_limit : int option;
  mc_max_steps : int option;
  max_seconds : float option;
  engines : Rfn_core.Rfn.engines option;
  analyze : bool option;
      (** run the static invariant-inference pre-flight before the
          loop; the warm-session cache means one analysis serves a
          whole batch on the same design *)
}
(** Per-job overrides of the server's base config; [None] fields
    inherit. *)

val no_budget : budget

type submit = {
  id : string;
  design : design;
  property : string;
  budget : budget;
}

type request =
  | Submit of submit
  | Status of string option  (** all jobs, or one *)
  | Cancel of string
  | Shutdown

val request_of_line : string -> (request, string) result
(** Total: malformed JSON and any shape violation (missing op, unknown
    op, missing id, both or neither of design/netlist, unknown engine
    name) is an [Error] with a message the server echoes back on an
    [error] line. *)

val submit_to_json : submit -> Rfn_obs.Json.t
(** Render a submit request — the client-side encoder the bench batch
    driver and the tests use to feed a server. *)
