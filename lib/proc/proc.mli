(** An engine-worker policy that nothing reads: every Step-3 and
    re-check query runs in-process. [Rfn.config] keeps a [proc] field
    of this type only because the benchmark harness
    (rfnbench/harness.ml) sets it, as
    [{ default_policy with enabled = false }]; the type goes once the
    harness drops that field. The second field keeps the harness's
    [with] update valid: on a one-field record it is warning 23
    (useless record [with]), which the dev profile makes an error. *)

type policy = {
  enabled : bool;  (** ignored *)
  deadline_slack : float;  (** ignored *)
}

val default_policy : policy
(** [enabled = false]. *)
