(** Gate kinds and their Boolean semantics.

    All kinds except [Not], [Buf] and [Mux] are n-ary (n >= 1).
    [Mux] takes exactly three fanins [sel; d0; d1] and selects [d1]
    when [sel] is true. *)

type kind =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Mux

val arity_ok : kind -> int -> bool
(** Whether a gate of this kind may have the given number of fanins. *)

val eval : kind -> (int -> bool) -> int array -> bool
(** [eval kind value fanins] evaluates the gate given the values of its
    fanin signals. *)

type ternary = V0 | V1 | VX
(** Three-valued signal values: 0, 1 and unknown. *)

val eval3 : kind -> (int -> ternary) -> int array -> ternary
(** Ternary gate semantics, the one shared by every three-valued
    engine ([Sim3v], [Opt.constant_registers]): the output is concrete
    whenever the concrete fanins determine it (one 0 on an AND, a MUX
    whose data inputs agree), otherwise X. *)

val eval3_slice :
  kind -> (int -> ternary) -> int array -> pos:int -> len:int -> ternary
(** {!eval3} over the fanins [fanins.(pos .. pos + len - 1)], as laid
    out in a {!Vnet} fanin array. *)

val to_string : kind -> string

val of_string : string -> kind option
(** Inverse of {!to_string} (case-insensitive). *)
