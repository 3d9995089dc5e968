(** Post-image computation with a partitioned transition relation.

    The transition relation is kept as clusters of per-register bit
    relations [x'ᵣ ≡ fᵣ(x, i)], conjoined greedily up to a size bound.
    A quantification schedule assigns every current-state and input
    variable to the last cluster whose support mentions it, so
    variables are quantified out as early as possible — the reason the
    paper's forward fixpoint tolerates abstract models with thousands
    of (pseudo-)inputs. An input variable that only one cluster
    mentions leaves the schedule altogether: {!build} quantifies it out
    of that cluster once, so no image pays for it again. *)

type t

type cache = {
  mutable entries : (int * int * Rfn_bdd.Bdd.t) array;
      (** per-register sources of the cached clusters, sorted by
          next-state variable: (register, next-state variable, cone) *)
  mutable clusters : Rfn_bdd.Bdd.t array;
      (** protected in the manager; cluster-local inputs {e not}
          quantified, since a later refinement can make such an input
          shared, or promote it to a [Cur] variable *)
  mutable quantified : (Rfn_bdd.Bdd.man * Rfn_bdd.Bdd.t array) option;
      (** the last build's clusters with their local inputs quantified
          out, protected in the manager they are tagged with; released
          there by the next {!build} and by {!clear_cache}, so a caller
          that switched managers never unprotects them in the wrong
          one *)
}
(** Compiled-relation cache carried across refinement iterations by a
    verification session. [entries] and [clusters] are exposed so the
    session layer can translate handles after a reordering hand-off. *)

type build_stats = { clusters_reused : int; clusters_rebuilt : int }

val cache : unit -> cache
(** A fresh, empty cache. *)

val clear_cache : cache -> unit
(** Forget the cached relation {e without} unprotecting its clusters —
    for manager switches (reset, replica), where the old handles are
    meaningless in the new manager. The quantified copies are
    unprotected in their own tagged manager. *)

val build :
  ?cluster_size:int ->
  fn:(int -> Rfn_bdd.Bdd.t) ->
  cache:cache ->
  Varmap.t ->
  t * build_stats
(** Build the clustered relation for the varmap's view over the cone
    function [fn], reusing the cache's clusters when its per-register
    bit list is an exact prefix of the new one — which it is after
    {!Varmap.grow}, since appended next-state variables sort after
    every carried one and carried cones keep their handles. On any
    mismatch the whole cache is rebuilt (old clusters unprotected).
    The quantification schedule and the quantified copies (one
    [exists] per cluster with local inputs) are recomputed either way.
    Updates the cache in place. May raise
    [Rfn_bdd.Bdd.Limit_exceeded]. *)

val make : ?cluster_size:int -> Varmap.t -> t
(** Build the clustered relation for the varmap's view from scratch
    with a throwaway cache (default cluster size bound: 5000 nodes).
    May raise [Rfn_bdd.Bdd.Limit_exceeded]. *)

val post : t -> Rfn_bdd.Bdd.t -> Rfn_bdd.Bdd.t
(** [post t q]: states reachable in one step from [q] (both over
    current-state variables; [q] must not mention an input variable,
    because the cluster-local ones were quantified out at build). *)

val pre_via_compose :
  Varmap.t -> fn:(int -> Rfn_bdd.Bdd.t) -> Rfn_bdd.Bdd.t -> Rfn_bdd.Bdd.t
(** Pre-image by functional substitution: replace every current-state
    variable in the argument by the register's next-state function
    under [fn]. Used by the hybrid engine on the min-cut design, where
    it yields a predicate over current-state and (cut-)input
    variables. *)
