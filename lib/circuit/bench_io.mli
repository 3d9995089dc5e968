(** Textual netlist format (ISCAS89 ".bench" dialect).

    Grammar (one statement per line, [#] starts a comment):
    {v
    INPUT(name)
    OUTPUT(name)
    name = KIND(a, b, ...)        # KIND in AND OR NAND NOR XOR XNOR NOT BUF MUX
    name = DFF(d)                 # register, initial value 0
    name = DFF1(d)                # register, initial value 1
    name = DFFX(d)                # register, free initial value
    name = CONST0                 # likewise CONST1
    v}

    Definitions may appear in any order; forward references are
    resolved after parsing. *)

val parse : string -> Circuit.t
(** Parse from a string. Raises [Failure] with a line-numbered message
    on syntax or consistency errors. *)

val parse_file : string -> Circuit.t

val to_string : Circuit.t -> string
(** The design in a form [parse] accepts; round-trips the design up to
    signal renumbering. *)
