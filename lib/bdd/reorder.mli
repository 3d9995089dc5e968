(** Reordering by rebuild.

    The classic dynamic reordering (in-place sifting) is replaced by a
    functional equivalent suited to a hash-consed store: each candidate
    order rebuilds the live roots into a fresh manager. The old manager
    is untouched; callers switch over and drop it. *)

val sift :
  ?max_passes:int ->
  Bdd.man ->
  roots:Bdd.t list ->
  Bdd.man * Bdd.t list * (int -> int)
(** Greedy sifting by rebuild: sweep adjacent variable transpositions,
    keeping each swap that shrinks the shared node count, until a full
    pass improves nothing (or [max_passes], default 4, is reached),
    at a cost of O(variables · nodes) work per pass. Returns the new
    manager, the roots translated into it (in order), and the variable
    map applied (old variable → new level). The translation shares one
    memo table, so common subgraphs stay shared. The new manager
    inherits the node limit. *)

val total_size : Bdd.man -> Bdd.t list -> int
(** Distinct nodes reachable from any of the roots — the quantity
    {!sift} tries to shrink. *)
