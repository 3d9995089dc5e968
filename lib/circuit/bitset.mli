(** Dense bitsets over node identifiers.

    Circuits index every cell by a small integer, so sets of signals
    (cones, register subsets, cut sets) are represented as fixed-width
    bitsets rather than balanced trees. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1]. *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val copy : t -> t

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst]. *)

val equal : t -> t -> bool
