(** Cubes: partial valuations of signals.

    A cube assigns Boolean values to some signals of a design; signals
    not mentioned are unconstrained. Cubes are kept sorted by signal
    identifier with no duplicates. *)

type t = private (int * bool) list

val empty : t
val of_list : (int * bool) list -> t
(** Sorts and deduplicates. Raises [Invalid_argument] on a
    contradictory pair (same signal, both polarities). *)

val to_list : t -> (int * bool) list
val is_empty : t -> bool
val size : t -> int
(** Number of assigned signals. *)

val value : t -> int -> bool option
(** Value assigned to a signal, if any. *)

val assign : t -> int -> bool -> t
(** Raises [Invalid_argument] on contradiction. *)

val meet : t -> t -> t option
(** Conjunction of two cubes; [None] if they conflict. *)

val conflicts : t -> t -> bool

val signals : t -> int list

val restrict : t -> keep:(int -> bool) -> t
(** Keep only the assignments whose signal satisfies [keep]. *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
