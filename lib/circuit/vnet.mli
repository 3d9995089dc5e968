(** Dense compiled form of a subcircuit view.

    A {!Sview.t} names its signals by their identifiers in the parent
    circuit, so an engine walking it directly pays for the parent: an
    array per signal of the whole design, a walk of the parent's
    topological order with a membership test per signal. A compiled
    view renumbers the view's signals [0 .. size - 1] ("local ids") and
    stores its structure in flat arrays, so a kernel running on it
    costs the view's size.

    Local ids are assigned in ascending parent-id order. Parent ids are
    topological (a gate's fanins are created before the gate), so local
    ids are too: evaluating [0 .. size - 1] in order is the parent's
    topological order restricted to the view, and a gate's fanins have
    smaller local ids than the gate. Fanin and fanout lists keep the
    parent's order. Engines therefore make the same choices on a
    compiled view as on the parent — ties, draw orders and variable
    numbering are unchanged — and translate ids only at their API
    edges.

    Build it through {!Sview.net}, which compiles each view once, on
    first use. *)

type node =
  | Free  (** a free input of the view: primary input or cut signal *)
  | Const of bool
  | Reg of Circuit.init
      (** a state register of the view; its single fanin is its
          next-state input *)
  | Gate of Gate.kind

type t = private {
  circuit : Circuit.t;  (** the parent design *)
  size : int;  (** number of signals in the view *)
  parent : int array;  (** local id -> parent id, strictly increasing *)
  node : node array;  (** per local id *)
  fanin_start : int array;
      (** CSR row starts ([size + 1] entries): the fanins of [l] are
          [fanins.(fanin_start.(l)) .. fanins.(fanin_start.(l + 1) - 1)] *)
  fanins : int array;  (** local ids, in the parent's fanin order *)
  fanout_start : int array;  (** CSR row starts of [fanouts] *)
  fanouts : int array;
      (** readers of each signal inside the view: non-free gates and
          registers, in the parent's fanout order *)
  regs : int array;  (** state registers, ascending *)
  free_inputs : int array;  (** free inputs, ascending *)
  roots : int list;  (** the view's roots *)
  scoap : (int array * int array) Lazy.t;
      (** SCOAP-style (0-, 1-) controllability per local id, the effort
          estimate ATPG backtracing uses to pick a fanin; computed on
          first use *)
}

val compile :
  Circuit.t -> inside:Bitset.t -> free:Bitset.t -> roots:int list -> t
(** The compiled form of a well-formed view ({!Sview.make} checks
    well-formedness). One scan of [inside]; no array the size of the
    parent. *)

val with_roots : t -> int list -> t
(** The same view with other roots; shares every array. *)

val local : t -> int -> int
(** [local t s] is the local id of parent signal [s], or [-1] when [s]
    is not in the view. A binary search, and the identity on a whole
    view. *)

val arity : t -> int -> int
(** Number of fanins of a local id. *)

val fanin : t -> int -> int -> int
(** [fanin t l i] is the [i]-th fanin of [l]. *)
