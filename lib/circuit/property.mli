(** Unreachability properties.

    A property specifies a set of target ("bad") states through a
    single indicator signal: the property is True when no reachable
    state/input combination drives [bad] to 1. Safety properties are
    modeled this way by synthesizing a watchdog whose output asserts on
    violation, exactly as in the paper. *)

type t = {
  name : string;
  bad : int;  (** indicator signal: property violated when it is 1 *)
}

val make : name:string -> bad:int -> t

val of_output : Circuit.t -> string -> t
(** Property watching a declared circuit output (by name). Raises
    [Invalid_argument] naming the output when it is not declared. *)

val roots : t -> int list
(** The signals "mentioned in the property" — seeds of the very first
    abstract model. *)
