(** BDD variable allocation for a subcircuit view.

    Each register of the view gets a current-state and a next-state
    variable at adjacent levels; each free input gets one variable.
    Levels are assigned by the FORCE heuristic over the view's circuit
    graph, so related state bits sit next to each other — the static
    order the fixpoint engine starts from.

    Extra input variables can be appended later for signals that become
    cut points (the hybrid engine's min-cut inputs). *)

type role =
  | Cur of int  (** current-state variable of a register signal *)
  | Nxt of int  (** next-state variable of a register signal *)
  | Inp of int  (** input variable of a free-input (or cut) signal *)

type t

val make : ?node_limit:int -> ?previous:t -> Rfn_circuit.Sview.t -> t
(** Creates the manager and allocates variables for the view's
    registers and free inputs. [previous] seeds the FORCE ordering with
    the order of a varmap from an earlier refinement iteration — the
    paper saves the BDD variable ordering at the end of Step 2 and
    reuses it as the next iteration's initial ordering. *)

val grow : t -> view:Rfn_circuit.Sview.t -> Rfn_circuit.Abstraction.delta -> t
(** In-place growth for a refinement delta, the persistent-session
    alternative to a fresh {!make}: every carried signal keeps its
    variable — in particular a promoted pseudo-input's [Inp] variable
    becomes its [Cur] variable, so cone BDDs built over the old view
    stay valid verbatim — and new variables (next-state variables of
    promoted registers, both variables of fresh registers, variables of
    newly exposed free inputs) are appended at the bottom of the order
    with {!Rfn_bdd.Bdd.add_vars}. Mutates the shared tables: the
    argument must not be used afterwards; use the returned map (which
    carries the new [view]). Appended variables degrade the interleaved
    order quality — the session layer measures the node count and falls
    back to a fresh FORCE rebuild, seeded with the grown order, when
    growth blows up. *)

val rebase : t -> view:Rfn_circuit.Sview.t -> t
(** Retarget the varmap to a {e different} view of the same circuit —
    a new property's initial abstraction — keeping the manager and
    preserving every carried signal's value-now variable: registers of
    both views keep their [Cur]/[Nxt] pair, a register output that
    became free re-rolls its [Cur] variable as its [Inp] variable (the
    demotion dual of {!grow}'s promotion), a free signal that became a
    register re-rolls its [Inp] variable as [Cur] (appending a [Nxt]),
    and signals new to the view get appended variables. Because free
    signals compile to their [Inp] variable and register outputs to
    their [Cur] variable, every cone BDD over carried signals stays
    valid verbatim — the cross-property warm-session reuse of the
    serve layer. Builds fresh tables (the argument stays usable) and
    drops stale roles; [initial_inp] is rebuilt to exactly the new
    view's free-input variables. *)

val replica : ?node_limit:int -> t -> t
(** A copy of the varmap over a {e fresh, empty} manager with the same
    variable count and the identical signal↦variable assignment
    (including stale min-cut input variables, so subsequent {!grow}
    calls allocate the same indices as they would on the original).
    [node_limit] defaults to the original manager's. The from-scratch
    reference mode of the session layer: same order, no reuse. *)

val remap : t -> man:Rfn_bdd.Bdd.man -> map:(int -> int) -> t
(** The varmap with every variable [v] renamed to [map v], over [man].
    Nothing checks the result: a map that leaves the manager's range,
    or sends two variables to one, gives a varmap no other function
    can build, which is how the invariant checker's tests make one. *)

val man : t -> Rfn_bdd.Bdd.man
val view : t -> Rfn_circuit.Sview.t

val cur_var : t -> int -> int
(** Current-state variable of a register signal. Raises
    [Invalid_argument] — naming the signal — when the signal carries no
    such variable; callers that probe use {!cur_var_opt}. *)

val nxt_var : t -> int -> int
val inp_var : t -> int -> int
(** Input variable of a free input or added cut signal. Both raise
    [Invalid_argument] like {!cur_var}. *)

val cur_var_opt : t -> int -> int option
val nxt_var_opt : t -> int -> int option
val inp_var_opt : t -> int -> int option
(** Non-raising probes for the three roles. *)

val has_inp_var : t -> int -> bool

val role : t -> int -> role
(** Role of a BDD variable. Raises [Invalid_argument] for a variable
    without an allocated role. *)

val cur_vars : t -> int list
val inp_vars : t -> int list
(** Input variables allocated by [make] (excludes later additions). *)

val add_input_vars : t -> int list -> unit
(** Allocate input variables (at the bottom of the order) for signals
    that do not have one — used for min-cut signals. Idempotent per
    signal. *)

val rename_next_to_cur : t -> Rfn_bdd.Bdd.t -> Rfn_bdd.Bdd.t
(** Rename every next-state variable to the matching current-state
    variable (fast structural relabeling: the interleaved order makes
    the map monotone). *)

val cube_of_bdd_cube : t -> (int * bool) list -> (int * bool) list
(** Translate a BDD cube (over variables) to signal space, mapping
    [Cur]/[Inp] variables to their signals. Next-state variables are
    rejected with [Invalid_argument]. *)
