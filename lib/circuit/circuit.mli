(** Gate-level designs.

    A design is a directed graph of cells indexed by dense integer
    signal identifiers. Each cell has exactly one output, so "signal"
    and "cell" are used interchangeably: the identifier names both the
    cell and the net its output drives. Registers carry an initial
    value ([`Zero], [`One] or [`Free]) and a next-state fanin; the set
    of initial states is the product of the registers' initial values,
    with [`Free] registers unconstrained (this models the paper's set
    [A] of initial states).

    Designs are built through the mutable {!Builder} (which permits
    registers with not-yet-connected next-state inputs, as needed for
    feedback) and frozen by {!Builder.finalize} into an immutable {!t}
    with topological order and fanout maps precomputed. *)

type init = [ `Zero | `One | `Free ]

type node =
  | Input  (** primary input of the design *)
  | Const of bool
  | Gate of Gate.kind * int array  (** kind and fanin signals *)
  | Reg of { init : init; next : int }
      (** register: output is this signal, [next] is sampled each cycle *)

type t = private {
  nodes : node array;
  names : string array;  (** every signal has a (unique) name *)
  inputs : int array;  (** primary inputs, in creation order *)
  registers : int array;  (** registers, in creation order *)
  outputs : (string * int) list;  (** declared outputs *)
  topo : int array;
      (** all signals in combinational topological order: a gate appears
          after all of its fanins; inputs, constants and registers
          appear before any gate that reads them *)
  fanouts : int array array;
      (** [fanouts.(s)] lists the cells reading signal [s] (register
          cells are listed when [s] is their next-state input) *)
  level : int array;
      (** combinational depth: 0 for inputs/constants/registers, else
          1 + max level of fanins *)
}

val num_signals : t -> int
val num_gates : t -> int
val num_registers : t -> int
val node : t -> int -> node
val name : t -> int -> string
val find : t -> string -> int
(** Look up a signal by name. Raises [Not_found]. *)

val output : t -> string -> int
(** Look up a declared output by name. Raises [Invalid_argument]
    naming the output when it is not declared. *)

val is_reg : t -> int -> bool

val eval : t -> input:(int -> bool) -> state:(int -> bool) -> bool array
(** Combinational evaluation: value of every signal given values for
    primary inputs and register outputs. *)

val step :
  t -> input:(int -> bool) -> state:(int -> bool) -> bool array * (int -> bool)
(** One clock cycle: returns the combinational values and the next
    state (a function from register signal to its new value). *)

val initial_state : t -> free:(int -> bool) -> int -> bool
(** The initial value of a register, resolving [`Free] registers with
    the supplied valuation. *)

(** Mutable builder for designs. *)
module Builder : sig
  type c

  val create : unit -> c

  val input : c -> string -> int

  val const : c -> bool -> int
  (** Constants are interned: at most one cell per polarity. *)

  val gate : c -> ?name:string -> Gate.kind -> int array -> int
  (** Structurally-identical gates are hash-consed. Unary [And]/[Or]
      collapse to their fanin; [Not (Not x)] collapses to [x]. *)

  val reg : c -> ?init:init -> string -> int
  (** A register whose next-state input is connected later. *)

  val connect : c -> int -> int -> unit
  (** [connect c r d] sets register [r]'s next-state input to [d].
      Raises [Invalid_argument] if [r] is not a register or already
      connected. *)

  val reg_of : c -> ?init:init -> string -> int -> int
  (** [reg_of c name d] is a register already connected to [d]. *)

  val output : c -> string -> int -> unit

  (* Convenience combinators (all hash-consed through {!gate}). *)
  val not_ : c -> int -> int
  val and2 : c -> int -> int -> int
  val or2 : c -> int -> int -> int
  val xor2 : c -> int -> int -> int
  val and_l : c -> int list -> int
  val or_l : c -> int list -> int
  val mux : c -> int -> int -> int -> int
  (** [mux c sel d0 d1]. *)

  val eq2 : c -> int -> int -> int

  val finalize : c -> t
  (** Freeze the design. Raises [Invalid_argument] if a register is
      left unconnected, a name is duplicated, or the combinational part
      is cyclic. *)
end

val pp_stats : Format.formatter -> t -> unit
