(** Word-level construction helpers.

    The design generators in the zoo describe datapaths at the word
    level; these helpers lower words to gates through
    {!Circuit.Builder}. A word is an array of signals, least
    significant bit first. All arithmetic is unsigned, modulo 2^w. *)

type word = int array

val width : word -> int

val input : Circuit.Builder.c -> string -> int -> word
(** [input b name w] makes [w] primary inputs [name_0 .. name_{w-1}]. *)

val regs : Circuit.Builder.c -> ?init:int -> string -> int -> word
(** [regs b ~init name w] makes a register word with the given initial
    bit pattern (default 0); next-state inputs are connected later with
    {!connect}. *)

val connect : Circuit.Builder.c -> word -> word -> unit
(** [connect b r d] connects register word [r] to data word [d]. *)

val const : Circuit.Builder.c -> width:int -> int -> word

val not_ : Circuit.Builder.c -> word -> word
val xor_ : Circuit.Builder.c -> word -> word -> word

val mux : Circuit.Builder.c -> int -> word -> word -> word
(** [mux b sel d0 d1] selects per-bit. *)

val add : Circuit.Builder.c -> ?cin:int -> word -> word -> word
(** Ripple-carry adder; carry out is dropped. Words must have equal
    width. *)

val sub : Circuit.Builder.c -> word -> word -> word
val incr : Circuit.Builder.c -> word -> word
val decr : Circuit.Builder.c -> word -> word

val eq : Circuit.Builder.c -> word -> word -> int
val eq_const : Circuit.Builder.c -> word -> int -> int
val lt : Circuit.Builder.c -> word -> word -> int
(** Unsigned [a < b]. *)

val ge_const : Circuit.Builder.c -> word -> int -> int
(** Unsigned [a >= k]. *)

val is_zero : Circuit.Builder.c -> word -> int
val any : Circuit.Builder.c -> word -> int
(** OR-reduction. *)

val all : Circuit.Builder.c -> word -> int
(** AND-reduction. *)

val counter :
  Circuit.Builder.c ->
  ?init:int ->
  ?clear:int ->
  name:string ->
  width:int ->
  enable:int ->
  unit ->
  word
(** Wrapping up-counter: increments when [enable], resets to 0 when
    [clear] (clear wins). *)

val shift_reg :
  Circuit.Builder.c ->
  name:string ->
  length:int ->
  din:int ->
  enable:int ->
  unit ->
  int array
(** Shift register of single bits; element 0 is the newest. *)
