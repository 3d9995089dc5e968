(** Front-end dispatch by file extension: [.aig] is binary AIGER,
    [.aag] ascii AIGER, everything else ISCAS `.bench`. In-memory text
    dispatches on the AIGER magic ({!parse}). *)

val load : string -> Circuit.t
(** Parse the file at [path] with the front-end its extension names.
    Raises [Failure] with a line-numbered message on syntax errors and
    [Sys_error] on I/O errors, like the underlying readers. *)

val parse : string -> Circuit.t
(** Parse in-memory netlist text, which carries no extension: text
    starting with the AIGER magic (["aag "] or ["aig "]) is AIGER,
    anything else `.bench`. Raises like {!load}, minus [Sys_error]. *)

val save : ?bads:string list -> string -> Circuit.t -> unit
(** Write [c] to [path] in the format its extension names. [bads] is
    forwarded to {!Aiger_io.write_file} and ignored for `.bench`. *)
