module Atpg = Rfn_atpg.Atpg
module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

let c_retries = Telemetry.counter "supervisor.retries"
let c_fallbacks = Telemetry.counter "supervisor.fallbacks"
let c_escalations = Telemetry.counter "supervisor.escalations"
let c_injected = Telemetry.counter "supervisor.injected_faults"
let c_recoveries = Telemetry.counter "supervisor.recoveries"

type site = Abstract_mc | Hybrid_extract | Concretize | Refine

let site_to_string = function
  | Abstract_mc -> "abstract-mc"
  | Hybrid_extract -> "hybrid"
  | Concretize -> "concretize"
  | Refine -> "refine"

let site_of_string = function
  | "abstract-mc" | "mc" -> Abstract_mc
  | "hybrid" -> Hybrid_extract
  | "concretize" -> Concretize
  | "refine" -> Refine
  | s ->
    invalid_arg
      (Printf.sprintf
         "unknown fault-injection site %S (expected abstract-mc, hybrid, \
          concretize or refine)"
         s)

type fault = Fail | Delay of float
type kind = Primary | Retry | Fallback

type policy = {
  node_limit_growth : int;
  backtrack_growth : int;
  backtrack_cap : int;
  hybrid_share : float;
  concretize_share : float;
  refine_share : float;
  grace_seconds : float;
}

let default_policy =
  {
    node_limit_growth = 4;
    backtrack_growth = 2;
    backtrack_cap = 8;
    hybrid_share = 0.25;
    concretize_share = 0.5;
    refine_share = 0.25;
    grace_seconds = 1.0;
  }

type t = {
  policy : policy;
  max_seconds : float option;
  started : float;
  inject : (site -> fault option) option;
  mutable escalation : int;
}

(* ---- fault-injection hooks ------------------------------------------- *)

let inject_of_spec spec =
  let spec = String.trim spec in
  if spec = "" || spec = "off" then None
  else begin
    let entries =
      if spec = "all" then
        List.map
          (fun s -> (s, Fail))
          [ Abstract_mc; Hybrid_extract; Concretize; Refine ]
      else
        String.split_on_char ',' spec
        |> List.map (fun tok -> (site_of_string (String.trim tok), Fail))
    in
    (* Once per entry per hook: the first consultation at the entry's
       site faults, every later one (the retry/fallback rungs of the
       same ladder, and later iterations) passes — so a supervised run
       must recover. *)
    let fired = Hashtbl.create 4 in
    Some
      (fun site ->
        let rec first i = function
          | [] -> None
          | (s, f) :: rest ->
            if s = site && not (Hashtbl.mem fired i) then begin
              Hashtbl.add fired i ();
              Some f
            end
            else first (i + 1) rest
        in
        first 0 entries)
  end

let inject_of_env () =
  match Sys.getenv_opt "RFN_INJECT_FAULTS" with
  | None -> None
  | Some spec -> (
    try inject_of_spec spec
    with Invalid_argument msg ->
      Printf.eprintf "RFN_INJECT_FAULTS ignored: %s\n%!" msg;
      None)

let start ?inject policy ~max_seconds =
  let inject = match inject with Some _ as i -> i | None -> inject_of_env () in
  { policy; max_seconds; started = Telemetry.now (); inject; escalation = 1 }

let policy t = t.policy

(* ---- deadline budgeting ---------------------------------------------- *)

let time_left t =
  match t.max_seconds with
  | None -> None
  | Some budget ->
    Some (Float.max 0.0 (budget -. (Telemetry.now () -. t.started)))

let out_of_time t = match time_left t with Some r -> r <= 0.0 | None -> false

let share policy = function
  | Abstract_mc -> 1.0 (* Reach.run takes the remaining budget directly *)
  | Hybrid_extract -> policy.hybrid_share
  | Concretize -> policy.concretize_share
  | Refine -> policy.refine_share

let clamp_limits t site (base : Atpg.limits) =
  match time_left t with
  | None -> base
  | Some remaining ->
    let slice = Float.max 0.0 (remaining *. share t.policy site) in
    let max_seconds =
      match base.Atpg.max_seconds with
      | None -> Some slice
      | Some s -> Some (Float.min s slice)
    in
    { base with Atpg.max_seconds }

let concrete_limits t (base : Atpg.limits) =
  clamp_limits t Concretize
    { base with Atpg.max_backtracks = base.Atpg.max_backtracks * t.escalation }

let escalation t = t.escalation

(* Restoring a checkpointed escalation factor on resume: clamp into
   the policy's legal range rather than trusting the file. *)
let set_escalation t factor =
  t.escalation <- max 1 (min t.policy.backtrack_cap factor)

let escalate t =
  if t.escalation < t.policy.backtrack_cap then begin
    t.escalation <-
      min t.policy.backtrack_cap (t.escalation * t.policy.backtrack_growth);
    Telemetry.incr c_escalations;
    Telemetry.event "supervisor_escalation"
      [ ("factor", Rfn_obs.Json.Int t.escalation) ]
  end

(* ---- the ladder executor --------------------------------------------- *)

(* An injected delay must respect the deadline, or the grace-period
   guarantee would be voided by the harness itself. [Unix.sleepf] can
   return early when a signal lands (a profiler's SIGALRM), so loop
   until the intended wake-up time. *)
let sleep_within t s =
  let s = match time_left t with None -> s | Some r -> Float.min s r in
  let wake = Telemetry.now () +. s in
  let rec nap () =
    let remaining = wake -. Telemetry.now () in
    if remaining > 0.0 then begin
      (try Unix.sleepf remaining
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      nap ()
    end
  in
  if s > 0.0 then nap ()

let run t ~site ~engine ~phase ~iteration rungs =
  let fail ~attempts resource =
    F.make ~iteration ~retries:attempts ~engine ~phase resource
  in
  let site_attr = ("site", Rfn_obs.Json.Str (site_to_string site)) in
  let rec go attempts last = function
    | [] -> Error (fail ~attempts:(attempts - 1) last)
    | (kind, label, thunk) :: rest ->
      if out_of_time t then Error (fail ~attempts F.Time)
      else begin
        (match kind with
        | Primary -> ()
        | Retry -> Telemetry.incr c_retries
        | Fallback -> Telemetry.incr c_fallbacks);
        let injected =
          match (kind, t.inject) with
          | Primary, Some hook -> hook site
          | _ -> None
        in
        let result =
          match injected with
          | Some Fail ->
            Telemetry.incr c_injected;
            Error F.Injected
          | Some (Delay s) ->
            Telemetry.incr c_injected;
            sleep_within t s;
            thunk ()
          | None -> thunk ()
        in
        match result with
        | Ok v ->
          if attempts > 0 then begin
            Telemetry.incr c_recoveries;
            Telemetry.event "supervisor_recovery"
              [
                site_attr;
                ("rung", Rfn_obs.Json.Str label);
                ("attempts", Rfn_obs.Json.Int attempts);
              ]
          end;
          Ok v
        | Error r ->
          Telemetry.event "supervisor_failure"
            (site_attr
            :: ("rung", Rfn_obs.Json.Str label)
            :: F.to_attrs (fail ~attempts r));
          if F.retryable_resource r then go (attempts + 1) r rest
          else Error (fail ~attempts r)
      end
  in
  match rungs with
  | [] -> invalid_arg "Supervisor.run: empty ladder"
  | rungs -> go 0 (F.Invariant "empty ladder") rungs
