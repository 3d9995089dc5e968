(** Reduced ordered binary decision diagrams.

    A from-scratch, pure-OCaml ROBDD package in the style of CUDD's
    core (the paper used CUDD): hash-consed nodes with a unique table,
    memoized recursive operations, and the operations symbolic model
    checking needs — quantification, conjunctive quantification
    (relational product), functional composition, variable renaming.

    Variable indices coincide with levels: variable [i] is tested above
    variable [j] iff [i < j]. Choosing a good order is the caller's
    job ({!Force} computes one from circuit structure); there is no
    dynamic reordering: a better order means a fresh manager.

    Managers enforce a node budget: operations raise {!Limit_exceeded}
    once the number of live nodes exceeds it, which is how engines
    implement the paper's resource limits. *)

type man
(** A manager: node store, unique table, operation caches. *)

type t = private int
(** A node handle, valid only with the manager that created it. *)

exception Limit_exceeded
(** Raised mid-operation when the node budget is exhausted. The
    manager remains usable (all existing nodes stay valid). *)

val create : ?node_limit:int -> nvars:int -> unit -> man
(** [node_limit] defaults to [max_int]. *)

val nvars : man -> int
val add_vars : man -> int -> int
(** [add_vars man k] appends [k] fresh variables at the bottom of the
    order and returns the index of the first. *)

val num_nodes : man -> int
(** Live nodes (terminals included). *)

val node_limit : man -> int

(* Garbage collection. Nodes are reclaimed by explicit mark-and-sweep:
   anything not reachable from the given roots or from the protected
   set is freed and its slot reused, so stale handles must not be
   dereferenced after a collection. Long-running fixpoints call {!gc}
   between images; builders {!protect} structures with indefinite
   lifetime (transition clusters, cone tables). *)

val protect : man -> t -> t
(** Register a GC root; returns its argument. Protection is
    refcounted: protecting the same handle twice requires two
    {!unprotect} calls to release it, so independent owners (a cone
    cache, a transition cluster, a per-iteration target) can protect
    aliased handles without clobbering each other. *)

val unprotect : man -> t -> unit
(** Drop one protection count of the handle (no-op when it is not
    protected). The node itself stays valid until the next {!gc} that
    cannot reach it. *)

val protected : man -> (t * int) list
(** Every protected handle with its protection count, in no particular
    order. *)

val gc : man -> roots:t list -> unit
(** Free every node not reachable from [roots], the protected set, or
    a terminal. Also clears the operation caches. *)

val zero : man -> t
val one : man -> t
val var : man -> int -> t
val nvar : man -> int -> t
(** Negated variable. *)

val is_zero : t -> bool
val is_one : t -> bool

(* Structure inspection (for traversals by client code). *)
val topvar : man -> t -> int
(** Raises [Invalid_argument] on terminals. *)

val low : man -> t -> t
val high : man -> t -> t
val is_terminal : t -> bool

(* Boolean connectives. [dand], [dor] and [diff] each run their own
   Shannon recursion with a cache tag of its own ([dand] and [dor]
   keyed on the unordered pair), so a disjunction — the inner step of
   {!exists} and {!and_exists} — builds no negated copies. Without
   complement edges [dnot] still copies its argument. *)
val dnot : man -> t -> t
val dand : man -> t -> t -> t
val dor : man -> t -> t -> t
val dxor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t
val diff : man -> t -> t -> t
(** [diff m a b] is [a ∧ ¬b]. *)

val equal : t -> t -> bool

(* Quantification and substitution. *)
val exists : man -> int list -> t -> t
(** Existentially quantify the listed variables. *)

val and_exists : man -> int list -> t -> t -> t
(** Relational product: [∃ vars. a ∧ b], computed without building the
    full conjunction. *)

val vector_compose : man -> (int -> t option) -> t -> t
(** [vector_compose m subst f] substitutes, simultaneously, [subst i]
    for every variable [i] with a binding. *)

val rename : man -> (int -> int) -> t -> t
(** Variable renaming. The map must be injective on the support of the
    argument. Implemented via {!vector_compose} unless the map is
    monotone on levels, in which case a fast structural relabeling is
    used. *)

(* Cubes. *)
val cube : man -> (int * bool) list -> t
val cube_of : man -> t -> (int * bool) list
(** Inverse of {!cube}; raises [Invalid_argument] if the node is not a
    cube. *)

val fattest_cube : man -> t -> (int * bool) list
(** A satisfying cube with the fewest assigned variables — the paper's
    "fattest cube". Raises [Not_found] on the zero BDD. *)

(* Analysis. *)
val support : man -> t -> int list
val size : man -> t -> int
(** Number of distinct nodes reachable from the handle. *)

val density : man -> t -> float
(** Fraction of the 2^nvars minterms that satisfy the function. *)

val count_minterms : man -> over:int -> t -> float
(** [count_minterms m ~over f] is the number of satisfying minterms of
    [f] counted over a space of [over] variables, which must include
    [f]'s support: [density *. 2.0 ** over]. Every density then has at
    most [over] fractional bits, so the count is exact while [over] <=
    53. Callers use it after projecting onto a small signal set. *)

val eval : man -> t -> (int -> bool) -> bool

val rebuild : src:man -> dst:man -> map:(int -> int) -> t -> t
(** Translate a BDD into another manager, applying a variable map (the
    new order need not be compatible with the old one). *)

val subset_heavy : man -> max_size:int -> t -> t
(** Heavy-branch under-approximation (Ravi–Somenzi style BDD
    subsetting): while the BDD exceeds [max_size] nodes, replace the
    lighter branch (fewer minterms) of the node whose removal loses the
    least density by zero. The result implies the argument. The paper
    evaluates — and rejects — subsetting as a pre-image fallback; this
    implementation exists to reproduce that comparison. *)
